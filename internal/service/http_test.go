package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heimdall/internal/telemetry"
)

// httpClient is a thin helper over the test server.
type httpClient struct {
	t   *testing.T
	srv *httptest.Server
}

func (c *httpClient) do(method, path, token string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set(TokenHeader, token)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (c *httpClient) doJSON(method, path, token string, body, out any) int {
	c.t.Helper()
	status, raw := c.do(method, path, token, body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, raw, err)
		}
	}
	return status
}

func TestHTTPWorkflow(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, PlatformSeed: "http-test"})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	// Onboard a tenant.
	var tenant TenantInfo
	if s := c.doJSON("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}, &tenant); s != http.StatusCreated {
		t.Fatalf("create tenant: status %d", s)
	}
	if tenant.Devices == 0 {
		t.Fatalf("tenant reports no devices: %+v", tenant)
	}
	// Duplicate onboarding conflicts.
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}); s != http.StatusConflict {
		t.Fatalf("duplicate tenant: status %d, want 409", s)
	}
	// Unknown scenario.
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "x", "scenario": "nope"}); s != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", s)
	}

	// Inject a scripted issue — files the ticket.
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/acl", "", nil, &tk); s != http.StatusCreated {
		t.Fatalf("inject issue: status %d", s)
	}
	if tk.ID == "" {
		t.Fatal("injected issue returned no ticket ID")
	}

	// Open a session for the ticket.
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "alice", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatalf("create session: status %d", s)
	}
	if info.Token == "" || len(info.Slice) == 0 {
		t.Fatalf("session info incomplete: %+v", info)
	}
	sessPath := "/v1/tenants/acme/sessions/" + info.Session

	// Session listing withholds the token.
	var list []Info
	if s := c.doJSON("GET", "/v1/tenants/acme/sessions", "", nil, &list); s != http.StatusOK {
		t.Fatalf("list sessions: status %d", s)
	}
	if len(list) != 1 || list[0].Token != "" {
		t.Fatalf("session listing leaked the token: %+v", list)
	}

	// Attach needs the right token.
	if s, _ := c.do("GET", sessPath, "wrong-token", nil); s != http.StatusForbidden {
		t.Fatalf("bad-token attach: status %d, want 403", s)
	}
	if s := c.doJSON("GET", sessPath, info.Token, nil, &info); s != http.StatusOK {
		t.Fatalf("attach: status %d", s)
	}

	// Mediated exec inside the slice succeeds.
	var execOut struct {
		Output string `json:"output"`
	}
	if s := c.doJSON("POST", sessPath+"/exec", info.Token, map[string]string{"device": info.Slice[0], "line": "show ip route"}, &execOut); s != http.StatusOK {
		t.Fatalf("exec: status %d", s)
	}
	if execOut.Output == "" {
		t.Fatal("exec returned empty output")
	}

	// Privilege inspection shows the compiled rules and slice.
	var priv PrivilegeInfo
	if s := c.doJSON("GET", sessPath+"/privileges", info.Token, nil, &priv); s != http.StatusOK {
		t.Fatalf("privileges: status %d", s)
	}
	if priv.Ticket != tk.ID || len(priv.Rules) == 0 || len(priv.Slice) == 0 {
		t.Fatalf("privileges incomplete: %+v", priv)
	}

	// Run the scripted fix so there is something to review and commit.
	tn, err := svc.Tenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	var script []struct{ Device, Line string }
	for _, is := range tn.ScenarioData().Issues {
		if is.Name == "acl" {
			for _, cmd := range is.Script {
				script = append(script, struct{ Device, Line string }{cmd.Device, cmd.Line})
			}
		}
	}
	if len(script) == 0 {
		t.Fatal("acl issue has no script")
	}
	for _, cmd := range script {
		if s, out := c.do("POST", sessPath+"/exec", info.Token, map[string]string{"device": cmd.Device, "line": cmd.Line}); s != http.StatusOK {
			t.Fatalf("scripted exec %q on %s: status %d: %s", cmd.Line, cmd.Device, s, out)
		}
	}

	// Review (no production mutation), then commit.
	var rev ReviewResult
	if s := c.doJSON("POST", sessPath+"/review", info.Token, nil, &rev); s != http.StatusOK {
		t.Fatalf("review: status %d", s)
	}
	if !rev.Accepted || rev.Committed {
		t.Fatalf("review = %+v, want accepted and not committed", rev)
	}
	var com ReviewResult
	if s := c.doJSON("POST", sessPath+"/commit", info.Token, nil, &com); s != http.StatusOK {
		t.Fatalf("commit: status %d", s)
	}
	if !com.Accepted || !com.Committed {
		t.Fatalf("commit = %+v, want accepted and committed", com)
	}

	// Close; double close conflicts; exec after close conflicts.
	if s, _ := c.do("DELETE", sessPath, info.Token, nil); s != http.StatusOK {
		t.Fatalf("close: status %d", s)
	}
	if s, _ := c.do("DELETE", sessPath, info.Token, nil); s != http.StatusConflict {
		t.Fatalf("double close: status %d, want 409", s)
	}
	if s, _ := c.do("POST", sessPath+"/exec", info.Token, map[string]string{"device": info.Slice[0], "line": "show ip route"}); s != http.StatusConflict {
		t.Fatalf("exec after close: status %d, want 409", s)
	}

	// Metrics exposition carries the per-tenant series.
	s, raw := c.do("GET", "/metrics", "", nil)
	if s != http.StatusOK {
		t.Fatalf("metrics: status %d", s)
	}
	metrics := string(raw)
	for _, want := range []string{
		`heimdall_service_commands_total{tenant="acme"}`,
		`heimdall_service_sessions_total{tenant="acme"}`,
		`heimdall_service_mediation_seconds`,
		"heimdall_service_queue_depth",
		"heimdall_service_tenants",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Health.
	if s, _ := c.do("GET", "/healthz", "", nil); s != http.StatusOK {
		t.Fatalf("healthz: status %d", s)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	vc := telemetry.NewVirtualClock(time.Unix(1700000000, 0))
	svc := New(Config{Clock: vc.Now, IdleTimeout: time.Minute})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	// Unknown tenant and session are 404.
	if s, _ := c.do("GET", "/v1/tenants/ghost", "", nil); s != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", s)
	}
	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "enterprise"}); s != http.StatusCreated {
		t.Fatal("create tenant failed")
	}
	if s, _ := c.do("GET", "/v1/tenants/acme/sessions/S-9999", "tok", nil); s != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", s)
	}
	// Bad request body is 400.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/tenants", strings.NewReader("{not json"))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	// A body over the size limit is 413.
	huge := `{"id":"` + strings.Repeat("a", maxBodyBytes) + `","scenario":"enterprise"}`
	resp, err = srv.Client().Post(srv.URL+"/v1/tenants", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Expired session is 410.
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/vlan", "", nil, &tk); s != http.StatusCreated {
		t.Fatal("inject issue failed")
	}
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "bob", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatal("create session failed")
	}
	vc.Advance(2 * time.Minute)
	if s, _ := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/exec", info.Token,
		map[string]string{"device": info.Slice[0], "line": "show ip route"}); s != http.StatusGone {
		t.Fatalf("expired exec: status %d, want 410", s)
	}

	// Denied command (outside privilege) is 403: a VLAN ticket's spec does
	// not grant ACL writes, even on the suspect device itself.
	var tk2 struct {
		ID       string   `json:"id"`
		Suspects []string `json:"suspects"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/vlan", "", nil, &tk2); s != http.StatusCreated {
		t.Fatal("second inject failed")
	}
	if len(tk2.Suspects) == 0 {
		t.Fatal("vlan ticket has no suspects")
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "eve", "ticket": tk2.ID}, &info); s != http.StatusCreated {
		t.Fatal("second session failed")
	}
	if s, out := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/exec", info.Token,
		map[string]string{"device": tk2.Suspects[0], "line": "access-list EDGE 10 permit ip any any"}); s != http.StatusForbidden {
		t.Fatalf("denied exec: status %d, want 403 (%s)", s, out)
	}
}

func TestHTTPReviewOverloadIs429(t *testing.T) {
	svc := New(Config{VerifyWorkers: 1, VerifyQueue: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &httpClient{t: t, srv: srv}

	if s, _ := c.do("POST", "/v1/tenants", "", map[string]string{"id": "acme", "scenario": "university"}); s != http.StatusCreated {
		t.Fatal("create tenant failed")
	}
	var tk struct {
		ID string `json:"id"`
	}
	if s := c.doJSON("POST", "/v1/tenants/acme/issues/acl", "", nil, &tk); s != http.StatusCreated {
		t.Fatal("inject issue failed")
	}
	var info Info
	if s := c.doJSON("POST", "/v1/tenants/acme/sessions", "", map[string]string{"technician": "alice", "ticket": tk.ID}, &info); s != http.StatusCreated {
		t.Fatal("create session failed")
	}

	// Saturate the pool directly (1 worker blocked + 1 queued), then hit
	// the review endpoint: it must fail fast with 429.
	release := make(chan struct{})
	started := make(chan struct{})
	go func() { _ = svc.Pool().Do("acme", func() { close(started); <-release }) }()
	<-started
	queued := make(chan error, 1)
	go func() { queued <- svc.Pool().Do("acme", func() {}) }()
	waitDepth(t, svc.Pool(), 1)

	s, out := c.do("POST", "/v1/tenants/acme/sessions/"+info.Session+"/review", info.Token, nil)
	if s != http.StatusTooManyRequests {
		t.Fatalf("overloaded review: status %d, want 429 (%s)", s, out)
	}
	close(release)
	if err := <-queued; err != nil {
		t.Fatalf("queued pool task failed: %v", err)
	}
}
