package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// TokenHeader carries the session attach token on authenticated calls.
const TokenHeader = "X-Heimdall-Token"

// Handler returns the service's HTTP JSON API (stdlib only):
//
//	POST   /v1/tenants                                     {"id","scenario"}
//	GET    /v1/tenants
//	GET    /v1/tenants/{t}
//	POST   /v1/tenants/{t}/tickets                         {"summary","srcHost",...}
//	GET    /v1/tenants/{t}/tickets
//	POST   /v1/tenants/{t}/issues/{issue}                  inject scripted issue + file ticket
//	POST   /v1/tenants/{t}/sessions                        {"technician","ticket"}
//	GET    /v1/tenants/{t}/sessions
//	GET    /v1/tenants/{t}/sessions/{s}                    attach (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/exec               {"device","line"} (token header)
//	GET    /v1/tenants/{t}/sessions/{s}/privileges         (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/review             (token header)
//	POST   /v1/tenants/{t}/sessions/{s}/commit             (token header)
//	DELETE /v1/tenants/{t}/sessions/{s}                    close (token header)
//	GET    /metrics                                        Prometheus exposition
//	GET    /healthz
//
// Errors map onto statuses: unknown tenant/session/ticket 404, duplicate
// tenant 409, token mismatch 403, reference-monitor denial 403, expired
// session 410, closed session 409, verify-queue overload 429.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID       string `json:"id"`
			Scenario string `json:"scenario"`
		}
		if !decode(w, r, &req) {
			return
		}
		info, err := s.CreateTenant(req.ID, req.Scenario)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Tenants())
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}", func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.tenantInfo(t))
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/tickets", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Summary  string   `json:"summary"`
			SrcHost  string   `json:"srcHost"`
			DstHost  string   `json:"dstHost"`
			Suspects []string `json:"suspects"`
			Reporter string   `json:"reporter"`
		}
		if !decode(w, r, &req) {
			return
		}
		tk, err := s.CreateTicket(r.PathValue("tenant"), ticket.Ticket{
			Summary: req.Summary, SrcHost: req.SrcHost, DstHost: req.DstHost,
			Suspects: req.Suspects, CreatedBy: req.Reporter,
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, tk)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/tickets", func(w http.ResponseWriter, r *http.Request) {
		tks, err := s.Tickets(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, tks)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/issues/{issue}", func(w http.ResponseWriter, r *http.Request) {
		tk, err := s.InjectIssue(r.PathValue("tenant"), r.PathValue("issue"), "api")
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, tk)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Technician string `json:"technician"`
			Ticket     string `json:"ticket"`
		}
		if !decode(w, r, &req) {
			return
		}
		info, err := s.CreateSession(r.PathValue("tenant"), req.Technician, req.Ticket)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions", func(w http.ResponseWriter, r *http.Request) {
		infos, err := s.Sessions(r.PathValue("tenant"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Attach(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/exec", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Device string `json:"device"`
			Line   string `json:"line"`
		}
		if !decode(w, r, &req) {
			return
		}
		out, err := s.Exec(r.PathValue("tenant"), r.PathValue("session"),
			r.Header.Get(TokenHeader), req.Device, req.Line)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"output": out})
	})

	mux.HandleFunc("GET /v1/tenants/{tenant}/sessions/{session}/privileges", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Privileges(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/review", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Review(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		writeDecision(w, res, err)
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/sessions/{session}/commit", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Commit(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader))
		writeDecision(w, res, err)
	})

	mux.HandleFunc("DELETE /v1/tenants/{tenant}/sessions/{session}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.CloseSession(r.PathValue("tenant"), r.PathValue("session"), r.Header.Get(TokenHeader)); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": "closed"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		exp, ok := s.meter.(telemetry.Exposer)
		if !ok {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = fmt.Fprint(w, exp.Dump())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"tenants": s.reg.count(),
		})
	})

	return mux
}

// writeDecision renders a Review/Commit outcome. A rejected change set is
// a successful API call (200 with accepted=false), not a transport error;
// only infrastructure failures (overload, auth, lifecycle) use error
// statuses.
func writeDecision(w http.ResponseWriter, res ReviewResult, err error) {
	if err != nil && res.Reason == "" {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var denied *twin.ErrDenied
	switch {
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrBadToken), errors.As(err, &denied):
		status = http.StatusForbidden
	case errors.Is(err, ErrNoTenant), errors.Is(err, ErrNoSession), errors.Is(err, ErrNoScenario):
		status = http.StatusNotFound
	case errors.Is(err, ErrTenantExists), errors.Is(err, ErrSessionClosed):
		status = http.StatusConflict
	case errors.Is(err, ErrSessionExpired):
		status = http.StatusGone
	case errors.Is(err, ErrPoolClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
