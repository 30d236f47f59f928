package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"heimdall/internal/service"
	"heimdall/internal/telemetry"
)

// Daemon is heimdalld as the benchmark runs it: service.New with the
// daemon's flag defaults and its telemetry registry, serving
// Service.Handler() on a loopback port. The idle sweeper is not started:
// its default period (one minute) is longer than any run.
type Daemon struct {
	Svc  *service.Service
	Reg  *telemetry.Registry
	URL  string
	srv  *http.Server
	done chan error
}

// StartDaemon starts the service and its HTTP server.
func StartDaemon() (*Daemon, error) {
	reg := telemetry.NewRegistry()
	svc := service.New(service.Config{
		Shards:      8,
		VerifyQueue: 64,
		IdleTimeout: 30 * time.Minute,
		Meter:       reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	d := &Daemon{
		Svc:  svc,
		Reg:  reg,
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: svc.Handler()},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// Stop shuts the HTTP server down, waits for it to exit and stops the
// verify pool.
func (d *Daemon) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	<-d.done
	d.Svc.Close()
}

// Client is one technician's HTTP client: a single keep-alive loopback
// connection, reused for every request.
type Client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

// NewClient opens a client against the daemon.
func NewClient(base string) *Client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     5 * time.Minute,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

// Close drops the client's connection.
func (c *Client) Close() { c.tr.CloseIdleConnections() }

// Response is one completed request.
type Response struct {
	Status int
	Body   []byte
}

// OK reports a 2xx status.
func (r Response) OK() bool { return r.Status >= 200 && r.Status < 300 }

// Do sends one JSON request and reads the whole response body, so the
// connection goes back to the keep-alive pool.
func (c *Client) Do(method, path, token string, body any) (Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return Response{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return Response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set(service.TokenHeader, token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return Response{}, err
	}
	return Response{Status: resp.StatusCode, Body: b}, nil
}

// Session is an open technician session as the API returned it.
type Session struct {
	Tenant string
	ID     string
	Token  string
	Ticket string
}

func sessionPath(s *Session) string {
	return "/v1/tenants/" + s.Tenant + "/sessions/" + s.ID
}

// Onboard creates a tenant.
func (c *Client) Onboard(id, scenario string) error {
	r, err := c.Do("POST", "/v1/tenants", "", map[string]string{"id": id, "scenario": scenario})
	return expect(r, err, "onboard "+id)
}

// Inject injects a scripted issue and returns the filed ticket's ID.
func (c *Client) Inject(tenant, issue string) (string, error) {
	r, err := c.Do("POST", "/v1/tenants/"+tenant+"/issues/"+issue, "", nil)
	if err := expect(r, err, "inject "+issue+" into "+tenant); err != nil {
		return "", err
	}
	var tk struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.Body, &tk); err != nil || tk.ID == "" {
		return "", fmt.Errorf("inject %s into %s: bad ticket body %q", issue, tenant, r.Body)
	}
	return tk.ID, nil
}

// OpenSession opens a twin session for the technician on the ticket.
func (c *Client) OpenSession(tenant, tech, ticketID string) (*Session, error) {
	r, err := c.Do("POST", "/v1/tenants/"+tenant+"/sessions", "",
		map[string]string{"technician": tech, "ticket": ticketID})
	if err := expect(r, err, "open session on "+ticketID); err != nil {
		return nil, err
	}
	var info struct {
		Session string `json:"session"`
		Token   string `json:"token"`
	}
	if err := json.Unmarshal(r.Body, &info); err != nil || info.Token == "" {
		return nil, fmt.Errorf("open session on %s: bad body %q", ticketID, r.Body)
	}
	return &Session{Tenant: tenant, ID: info.Session, Token: info.Token, Ticket: ticketID}, nil
}

// Exec runs one command; a 2xx response carries the command output.
func (c *Client) Exec(s *Session, device, line string) (Response, string, error) {
	r, err := c.Do("POST", sessionPath(s)+"/exec", s.Token, map[string]string{"device": device, "line": line})
	if err != nil || !r.OK() {
		return r, "", err
	}
	var out struct {
		Output string `json:"output"`
	}
	if err := json.Unmarshal(r.Body, &out); err != nil {
		return r, "", fmt.Errorf("exec %q: bad body: %w", line, err)
	}
	return r, out.Output, nil
}

// Decision is the review/commit response body.
type Decision struct {
	Accepted  bool   `json:"accepted"`
	Reason    string `json:"reason"`
	Checked   int    `json:"checked"`
	Committed bool   `json:"committed"`
	Status    string `json:"status"`
}

// Review submits the session's pending change set for review; Commit
// pushes it to production.
func (c *Client) Review(s *Session) (Response, Decision, error) { return c.decide(s, "review") }

// Commit pushes the session's change set through the enforcer.
func (c *Client) Commit(s *Session) (Response, Decision, error) { return c.decide(s, "commit") }

func (c *Client) decide(s *Session, verb string) (Response, Decision, error) {
	var d Decision
	r, err := c.Do("POST", sessionPath(s)+"/"+verb, s.Token, nil)
	if err != nil || !r.OK() {
		return r, d, err
	}
	if err := json.Unmarshal(r.Body, &d); err != nil {
		return r, d, fmt.Errorf("%s: bad body: %w", verb, err)
	}
	return r, d, nil
}

// CloseSession ends the session.
func (c *Client) CloseSession(s *Session) (Response, error) {
	return c.Do("DELETE", sessionPath(s), s.Token, nil)
}

func expect(r Response, err error, what string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !r.OK() {
		return fmt.Errorf("%s: HTTP %d: %s", what, r.Status, bytes.TrimSpace(r.Body))
	}
	return nil
}
