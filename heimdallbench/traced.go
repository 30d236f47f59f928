package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/core"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

// Spans are named "layer/Call": the layer is the repository module the
// benchmark calls into (service, pool, core, twin, console, privilege,
// dataplane, verify, enforcer, audit, netmodel, config), the call is the
// public function it timed. Each workload operation is one trace: a root
// "op/<kind>" span whose children are the calls the operation made, in
// the order and nesting the service makes them. Probe calls that time a
// single layer in isolation are traces of their own under "probe/<name>"
// roots.

// tracing opens the spans. Traced workload operations open a root span;
// untraced ones run the same calls with no span, and the two interleave
// through the run (see opTraced).
type tracing struct {
	tr *telemetry.Tracer
}

// root opens the root span of one workload operation.
func (x *tracing) root(name, op string) *telemetry.Span {
	return x.tr.StartTrace(name, telemetry.L("op", op))
}

// call runs fn inside a child span of parent, or plainly when parent is
// nil (an untraced operation), and returns the finished span.
func (x *tracing) call(parent *telemetry.Span, name string, fn func(sp *telemetry.Span)) *telemetry.Span {
	if parent == nil {
		fn(nil)
		return nil
	}
	sp := parent.StartChild(name, telemetry.L("op", parent.Attrs["op"]))
	fn(sp)
	return sp.Finish()
}

// probe runs fn as a single-layer probe: a trace of its own.
func (x *tracing) probe(name string, fn func(sp *telemetry.Span)) *telemetry.Span {
	sp := x.tr.StartTrace(name)
	fn(sp)
	return sp.Finish()
}

func finish(sp *telemetry.Span) {
	if sp != nil {
		sp.Finish()
	}
}

// shadow is one technician session the traced re-drive holds itself: the
// engagement core.System.StartWork built and the consoles opened on it,
// exactly what a service session holds.
type shadow struct {
	eng      *core.Engagement
	consoles map[string]*twin.Session
}

func (s *shadow) console(x *tracing, parent *telemetry.Span, device string) (*twin.Session, error) {
	if con, ok := s.consoles[device]; ok {
		return con, nil
	}
	var con *twin.Session
	var err error
	x.call(parent, "twin/Twin.OpenConsole", func(*telemetry.Span) { con, err = s.eng.Console(device) })
	if err != nil {
		return nil, err
	}
	s.consoles[device] = con
	return con, nil
}

// shadowsPerTenant bounds the sessions the traced re-drive opens per tenant
// for diagnose and review_storm; the service's own sessions stay open
// beside them, so the live heap matches the end-to-end run.
const shadowsPerTenant = 2

// inproc re-drives a workload in-process through the public calls the
// service makes for each request.
type inproc struct {
	b       *Bench
	x       *tracing
	shadows [][]*shadow // by tenant

	mu  sync.Mutex
	rec *Recorder
	// opTimes holds each operation's duration by mode (traced or not).
	opTimes                           map[bool][]time.Duration
	reviews, hits, coalesced, denials atomic.Int64
}

func (dr *inproc) openShadow(t int, tech string) (*shadow, error) {
	tp := dr.b.Plan.Tenants[t]
	tk, err := fileTicket(dr.b.D.Svc, tp.ID, tp.Script.Issue)
	if err != nil {
		return nil, err
	}
	ten, err := dr.b.D.Svc.Tenant(tp.ID)
	if err != nil {
		return nil, err
	}
	eng, err := ten.System().StartWork(tk.ID, tech)
	if err != nil {
		return nil, err
	}
	return &shadow{eng: eng, consoles: make(map[string]*twin.Session)}, nil
}

// prepare opens the re-drive's own sessions (diagnose, review_storm) and
// runs each one's diagnosis once (diagnose) or applies its scripted fix
// (review_storm).
func (dr *inproc) prepare() error {
	if dr.b.Workload == TicketChurn {
		return nil
	}
	dr.shadows = make([][]*shadow, len(dr.b.Plan.Tenants))
	for t := range dr.b.Plan.Tenants {
		for k := 0; k < shadowsPerTenant; k++ {
			s, err := dr.openShadow(t, fmt.Sprintf("traced-%03d-%d", t, k))
			if err != nil {
				return err
			}
			dr.shadows[t] = append(dr.shadows[t], s)
			// Diagnose warms its sessions as the timed run's set-up does;
			// review_storm applies the fix.
			cmds := dr.b.Plan.Tenants[t].Script.Diagnose
			if dr.b.Workload == ReviewStorm {
				cmds = dr.b.Plan.Tenants[t].Script.Fix
			}
			for _, cmd := range cmds {
				con, err := s.console(dr.x, nil, cmd.Device)
				if err != nil {
					return err
				}
				if _, err := con.Exec(cmd.Line); err != nil {
					return fmt.Errorf("%s %q: %w", dr.b.Plan.Tenants[t].ID, cmd.Line, err)
				}
			}
		}
	}
	return nil
}

// run drives the workload with the bench's client count for d. Operations
// are traced in alternate pairs (see opTraced).
func (dr *inproc) run(d time.Duration) {
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < dr.b.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := newRecorder()
			times := map[bool][]time.Duration{}
			timed := func(traced bool, op func()) {
				t0 := time.Now()
				op()
				times[traced] = append(times[traced], time.Since(t0))
			}
			for time.Now().Before(deadline) {
				switch dr.b.Workload {
				case Diagnose:
					i := int(next.Add(1) - 1)
					timed(opTraced(i), func() { dr.execOp(rec, i) })
				case ReviewStorm:
					i := int(next.Add(1) - 1)
					timed(opTraced(i), func() { dr.reviewOp(rec, i) })
				case TicketChurn:
					t, i := dr.b.churn.next(&next)
					timed(opTraced(i), func() { dr.ticketOp(rec, t, i) })
					dr.b.churn.done(t)
				}
			}
			dr.mu.Lock()
			dr.rec.merge(rec)
			for k, v := range times {
				dr.opTimes[k] = append(dr.opTimes[k], v...)
			}
			dr.mu.Unlock()
		}()
	}
	wg.Wait()
}

// opTraced reports whether operation i is traced. Request orders
// alternate networks, so operations go untraced and traced in pairs, each
// pair one request per network, and both halves see the same mix.
func opTraced(i int) bool { return (i/len(scenarioNames))%2 == 1 }

// opRoot opens operation i's root span when it is traced.
func (dr *inproc) opRoot(kind string, i int) *telemetry.Span {
	if !opTraced(i) {
		return nil
	}
	return dr.x.root("op/"+kind, fmt.Sprintf("%s-%d", kind, i))
}

// execOp is one diagnose request: the registry lookup and the mediated
// command, as Service.Exec makes them.
func (dr *inproc) execOp(rec *Recorder, i int) {
	op := dr.b.Plan.DiagnoseOp(i)
	t := dr.b.Plan.Sessions[op.Session].Tenant
	tp := dr.b.Plan.Tenants[t]
	s := dr.shadows[t][op.Session%shadowsPerTenant]
	root := dr.opRoot("exec", i)
	defer finish(root)
	rec.Attempted++
	dr.x.call(root, "service/Service.Tenant", func(*telemetry.Span) { _, _ = dr.b.D.Svc.Tenant(tp.ID) })
	con, err := s.console(dr.x, root, op.Device)
	if err != nil {
		rec.failf("%s: console %s: %v", tp.ID, op.Device, err)
		return
	}
	var out string
	dr.x.call(root, "twin/Session.Exec", func(sp *telemetry.Span) {
		if sp != nil {
			sp.SetAttr("write", "false")
		}
		out, err = con.Exec(op.Line)
	})
	var denied *twin.ErrDenied
	switch {
	case op.Probe != "" && err == nil:
		rec.Breaches = append(rec.Breaches, fmt.Sprintf("%s: probe %q on %s was allowed", tp.ID, op.Line, op.Device))
	case op.Probe != "" && errors.As(err, &denied):
		dr.denials.Add(1)
		dr.b.probes[t].Add(1)
	case err != nil:
		rec.failf("%s %q: %v", tp.ID, op.Line, err)
	case out != dr.b.Refs[refKey(tp.Scenario, tp.Script.Issue.Name)].Outputs[op.Command]:
		rec.failf("%s %q: output differs from the reference", tp.ID, op.Line)
	}
}

// review mirrors Service.Review: resolve the tenant, key the pending
// change set, and run the review through the shared pool, coalesced on
// the key.
func (dr *inproc) review(rec *Recorder, root *telemetry.Span, tenantID string, eng *core.Engagement) bool {
	dr.x.call(root, "service/Service.Tenant", func(*telemetry.Span) { _, _ = dr.b.D.Svc.Tenant(tenantID) })
	var key string
	var ok bool
	dr.x.call(root, "core/Engagement.ReviewKey", func(*telemetry.Span) { key, ok = eng.ReviewKey() })
	if !ok {
		rec.failf("%s: nothing to review", tenantID)
		return false
	}
	type outcome struct {
		accepted bool
		hit      bool
		err      error
	}
	var shared any
	var coalesced bool
	var err error
	dr.x.call(root, "pool/Pool.DoShared", func(sp *telemetry.Span) {
		shared, coalesced, err = dr.b.D.Svc.Pool().DoShared(tenantID, key, func() any {
			var o outcome
			dr.x.call(sp, "core/Engagement.ReviewCached", func(*telemetry.Span) {
				d, hit, err := eng.ReviewCached()
				o = outcome{err: err, hit: hit}
				if d != nil {
					o.accepted = d.Accepted
				}
			})
			return o
		})
	})
	dr.reviews.Add(1)
	if err != nil {
		rec.failf("%s: review: %v", tenantID, err)
		return false
	}
	o := shared.(outcome)
	switch {
	case coalesced:
		dr.coalesced.Add(1)
	case o.hit:
		dr.hits.Add(1)
	}
	if o.err != nil || !o.accepted {
		rec.failf("%s: review of a correct fix not accepted (%v)", tenantID, o.err)
		return false
	}
	return true
}

func (dr *inproc) reviewOp(rec *Recorder, i int) {
	op := dr.b.Plan.ReviewOp(i)
	t := dr.b.Plan.Sessions[op.Session].Tenant
	s := dr.shadows[t][op.Session%shadowsPerTenant]
	root := dr.opRoot("review", i)
	defer finish(root)
	rec.Attempted++
	dr.review(rec, root, dr.b.Plan.Tenants[t].ID, s.eng)
}

// ticketOp is one ticket lifecycle: inject, start work (the service's
// session open), the whole script, review, commit through the pool.
func (dr *inproc) ticketOp(rec *Recorder, t, i int) {
	tp := dr.b.Plan.Tenants[t]
	root := dr.opRoot("ticket", i)
	defer finish(root)
	rec.Attempted++
	var tk *ticket.Ticket
	var err error
	dr.x.call(root, "service/Service.InjectIssue", func(*telemetry.Span) {
		tk, err = dr.b.D.Svc.InjectIssue(tp.ID, tp.Script.Issue.Name, "heimdallbench")
	})
	if err != nil {
		rec.failf("%s: inject: %v", tp.ID, err)
		return
	}
	ten, err := dr.b.D.Svc.Tenant(tp.ID)
	if err != nil {
		rec.failf("%v", err)
		return
	}
	var eng *core.Engagement
	dr.x.call(root, "core/System.StartWork", func(*telemetry.Span) {
		eng, err = ten.System().StartWork(tk.ID, "churn-"+tk.ID)
	})
	if err != nil {
		rec.failf("%s: start work: %v", tp.ID, err)
		return
	}
	s := &shadow{eng: eng, consoles: make(map[string]*twin.Session)}
	ref := dr.b.Refs[refKey(tp.Scenario, tp.Script.Issue.Name)]
	nfix := len(tp.Script.Fix)
	for k, cmd := range tp.Script.Issue.Script {
		con, err := s.console(dr.x, root, cmd.Device)
		if err != nil {
			rec.failf("%s: console %s: %v", tp.ID, cmd.Device, err)
			return
		}
		write := k >= len(tp.Script.Diagnose) && k < len(tp.Script.Diagnose)+nfix
		var out string
		dr.x.call(root, "twin/Session.Exec", func(sp *telemetry.Span) {
			if sp != nil {
				sp.SetAttr("write", fmt.Sprint(write))
			}
			out, err = con.Exec(cmd.Line)
		})
		if err != nil || out != ref.Outputs[k] {
			rec.failf("%s %q: err=%v or output differs from the reference", tp.ID, cmd.Line, err)
			return
		}
	}
	if !dr.review(rec, root, tp.ID, eng) {
		return
	}
	var committed bool
	dr.x.call(root, "pool/Pool.Do", func(sp *telemetry.Span) {
		err = dr.b.D.Svc.Pool().Do(tp.ID, func() {
			dr.x.call(sp, "core/Engagement.Commit", func(*telemetry.Span) {
				d, cerr := eng.Commit()
				committed = cerr == nil && d != nil && d.Accepted
			})
		})
	})
	if err != nil || !committed || ten.System().Tickets.Get(tk.ID).Status != ticket.Resolved {
		rec.failf("%s: commit of %s not committed and resolved (%v)", tp.ID, tk.ID, err)
	}
}

// gcSample reads the runtime's cumulative GC CPU time, total CPU time and
// GC pause histogram.
type gcSample struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	g := gcSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// gcBetween returns the GC share of CPU time and the p99 GC pause (µs)
// between two samples.
func gcBetween(a, b gcSample) (fraction, pauseP99us float64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		fraction = (b.gcCPU - a.gcCPU) / d
	}
	if a.pauses == nil || b.pauses == nil {
		return fraction, 0
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return fraction, 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want && c > 0 {
			// Report the bucket's upper bound (bounded for the last one).
			hi := b.pauses.Buckets[i+1]
			if hi > 1e9 {
				hi = b.pauses.Buckets[i]
			}
			return fraction, hi * 1e6
		}
	}
	return fraction, 0
}

// traced is the --trace 1 run: the same set-up over HTTP, then the
// workload re-driven in-process through the layers' public calls for the
// measured time, every other operation traced, then the single-layer
// probes. It reports the per-layer metrics, the per-layer
// self time and the tracing overhead, and writes every span as JSONL.
func traced(cfg Config, plan *Plan, refs References, clients int) (*Outcome, error) {
	b, err := Build(cfg.Workload, plan, refs, clients)
	if err != nil {
		return nil, err
	}
	defer b.Stop()
	setupHeap := liveHeap()

	x := &tracing{tr: telemetry.NewTracer(nil)}
	dr := &inproc{b: b, x: x, rec: newRecorder(), opTimes: make(map[bool][]time.Duration)}
	if err := dr.prepare(); err != nil {
		return nil, fmt.Errorf("traced re-drive set-up: %w", err)
	}
	gc0 := readGC()
	dr.run(time.Duration(cfg.Seconds * float64(time.Second)))
	gcFraction, gcPause := gcBetween(gc0, readGC())

	m := newLayerMetrics()
	waits := b.D.Svc.Pool().QueueWaits()
	m.set("pool.queue_wait_p50_ms", quantile(ms(waits), 0.5), "ms")
	m.set("pool.queue_wait_p99_ms", quantile(ms(waits), 0.99), "ms")
	m.set("pool.peak_depth", float64(b.D.Svc.Pool().PeakDepth()), "count")
	m.set("pool.backpressure", b.D.Reg.CounterValue("heimdall_service_backpressure_total"), "count")
	reviews := dr.reviews.Load()
	m.set("pool.cache_hits", float64(dr.hits.Load()), "count")
	m.set("pool.coalesced", float64(dr.coalesced.Load()), "count")
	m.set("pool.dedup_ratio", ratio(float64(dr.hits.Load()+dr.coalesced.Load()), float64(reviews)), "ratio")
	m.set("runtime.gc_cpu_fraction", gcFraction, "ratio")
	m.set("runtime.gc_pause_p99_us", gcPause, "us")
	m.set("runtime.live_heap_mib", float64(setupHeap)/(1<<20), "MiB")

	// The probes time differences of a few microseconds between calls, so
	// they run on a quiet heap: the workload's sessions are closed first.
	// The end-of-run audit below does not depend on them.
	for i, sess := range b.Sessions {
		if sess != nil {
			if err := b.D.Svc.CloseSession(sess.Tenant, sess.ID, sess.Token); err != nil {
				return nil, fmt.Errorf("close %s: %w", plan.Sessions[i].Technician, err)
			}
		}
	}
	dr.shadows = nil
	liveHeap()

	p := &prober{b: b, x: x, m: m}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	m.set("privilege.denials", float64(dr.denials.Load()+p.denials), "count")

	spans := x.tr.Finished()
	m.fromSpans(spans)
	var opSpans []*telemetry.Span
	for _, s := range spans {
		if s.Attrs["op"] != "" {
			opSpans = append(opSpans, s)
		}
	}
	opSelf := selfTimes(opSpans)
	opKind := primaryOp(cfg.Workload)
	untraced := us(dr.opTimes[false])
	tracedOps := us(dr.opTimes[true])
	overhead := median(tracedOps) - median(untraced)
	accounted := ratio(median(childSums(spans, "op/"+opKind)), median(untraced))
	m.set("trace.overhead_us", overhead, "us")
	m.set("trace.overhead_share", ratio(overhead, median(untraced)), "ratio")
	m.set("trace.accounted_share", accounted, "ratio")
	m.set("trace.spans", float64(len(spans)), "count")
	nops := float64(len(tracedOps))
	for _, l := range opLayers {
		m.set("self."+l+"_us_per_op", ratio(opSelf[l].self.Seconds()*1e6, nops), "us")
		if l != "op" {
			m.set("calls."+l+"_per_op", ratio(float64(opSelf[l].calls), nops), "count")
		}
	}

	bad := append(dr.rec.Breaches, b.Audit()...)
	bad = append(bad, p.bad...)
	if err := writeSpans(cfg.SpanFile, x.tr); err != nil {
		return nil, err
	}

	cfg.Log("traced %s: %d tenants, %d clients, in-process re-drive for %.1fs (alternate pairs of operations traced), then single-layer probes",
		cfg.Workload, len(plan.Tenants), clients, cfg.Seconds)
	cfg.Log("op/%s: untraced p50 %.1f us (n=%d), traced p50 %.1f us (n=%d)", opKind, median(untraced), len(untraced), median(tracedOps), len(tracedOps))
	within := "within"
	if accounted < accountedLow || accounted > accountedHigh {
		within = "OUTSIDE"
	}
	cfg.Log("tracing overhead: %+.2f us per op (%+.1f%%); layer spans account for %.1f%% of the untraced op, %s the stated tolerance of %.0f%%-%.0f%%",
		overhead, 100*ratio(overhead, median(untraced)), 100*accounted, within, 100*accountedLow, 100*accountedHigh)
	self := selfTimes(spans)
	cfg.Log("%-10s %12s %10s %12s   (self time over every span, probes included)", "layer", "self_ms", "calls", "self_us/call")
	for _, l := range sortedLayers(self) {
		st := self[l]
		cfg.Log("%-10s %12.3f %10d %12.2f", l, st.self.Seconds()*1e3, st.calls, st.self.Seconds()*1e6/float64(st.calls))
	}
	cfg.Log("per-layer metrics:")
	for _, name := range sortedNames(m.metrics) {
		cfg.Log("  %-34s %14.4f %s", name, m.metrics[name].Value, m.metrics[name].Unit)
	}
	cfg.Log("spans: %d written to %s", len(spans), cfg.SpanFile)
	for _, r := range dr.rec.Reasons {
		cfg.Log("failure: %s", r)
	}
	for _, s := range bad {
		cfg.Log("INCORRECT: %s", s)
	}
	out := &Outcome{
		Correct:   len(bad) == 0,
		Attempted: dr.rec.Attempted,
		Failed:    dr.rec.Failed,
		Metrics:   m.metrics,
	}
	if out.Attempted == 0 {
		out.Attempted, out.Failed, out.Correct = 1, 1, false
	}
	return out, nil
}

// The traced run states its accounting tolerance: the median sum of an
// operation's layer spans must lie within this share of the median
// untraced operation time.
const (
	accountedLow  = 0.80
	accountedHigh = 1.25
)

// opLayers are the layers a workload operation's span tree reaches; the
// per-op self time and calls of each are per-layer metrics ("op" is the
// root span's own time: the benchmark's glue between calls).
var opLayers = []string{"op", "service", "pool", "core", "twin"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type layerStat struct {
	self  time.Duration
	calls int
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, "/")
	return l
}

// selfTimes returns each layer's self time (span duration minus the part
// its child spans cover) and call count.
func selfTimes(spans []*telemetry.Span) map[string]layerStat {
	children := make(map[string]time.Duration)
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] += s.Duration()
		}
	}
	out := make(map[string]layerStat)
	for _, s := range spans {
		st := out[layerOf(s.Name)]
		st.self += s.Duration() - children[s.SpanID]
		st.calls++
		out[layerOf(s.Name)] = st
	}
	return out
}

// childSums returns, for every root span of the given name, the summed
// duration of its direct children.
func childSums(spans []*telemetry.Span, root string) []float64 {
	roots := make(map[string]bool)
	for _, s := range spans {
		if s.Name == root {
			roots[s.SpanID] = true
		}
	}
	sums := make(map[string]time.Duration)
	for _, s := range spans {
		if roots[s.ParentID] {
			sums[s.ParentID] += s.Duration()
		}
	}
	out := make([]float64, 0, len(sums))
	for _, d := range sums {
		out = append(out, float64(d)/float64(time.Microsecond))
	}
	return out
}

func sortedNames(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedLayers(m map[string]layerStat) []string {
	out := make([]string, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func writeSpans(path string, tr *telemetry.Tracer) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.ExportJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
