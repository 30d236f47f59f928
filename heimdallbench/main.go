// Command heimdallbench is Heimdall's benchmark: it runs heimdalld's
// service in-process behind its real HTTP handler on a loopback port and
// drives it with a closed loop of technician clients, one keep-alive
// connection each, the way an MSP's technicians use the daemon.
//
//	bash heimdallbench/run.sh --workload diagnose --seed 1 --seconds 20 --trace 0
//
// run from the repository root. Workloads: diagnose, review_storm,
// ticket_churn (see README.md). With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it re-drives the workload in-process through the
// layers' public calls, records one span per call, and prints the
// per-layer metrics. A completed run ends its standard output with the
// JSON result; an incorrect one then exits 1, and a run that cannot
// complete exits 1 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Size is defaultSize; tests shrink it.
	Size Size
	// SpanFile receives the traced run's spans as JSONL.
	SpanFile string
	// Log receives the human-readable report lines.
	Log func(format string, args ...any)
}

// Outcome is the run's result line.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	cfg := Config{Size: defaultSize}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", Diagnose, "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for the tenants' issues and the request order")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.SpanFile = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.Workload, cfg.Seed)
	cfg.Log = func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

	out, err := Execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heimdallbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heimdallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// Execute runs one benchmark invocation.
func Execute(cfg Config) (*Outcome, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.Workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloads, ", "))
	}
	if cfg.Seconds <= 0 || cfg.Size.Tenants < 1 || cfg.Size.SessionsPerTenant < 1 {
		return nil, errors.New("seconds, tenants and sessions must be positive")
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	// Go 1.24 sizes GOMAXPROCS from the machine, not the container's CPU
	// quota, so set it explicitly to the CPUs this process may run on, and
	// run one closed-loop client per CPU.
	clients := runtime.NumCPU()
	runtime.GOMAXPROCS(clients)
	cfg.Log("host %s", hostLine(cfg, clients))

	plan := NewPlan(cfg.Seed, cfg.Size)
	refs, err := BuildReferences(plan)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return traced(cfg, plan, refs, clients)
	}
	return endToEnd(cfg, plan, refs, clients)
}

// A timed run builds its workload at least minSetups times and until
// setupBudget seconds of set-up have run, at most maxSetups times; it
// reports the median set-up and measures the last build. The budget gives
// ticket_churn's half-second set-up as many samples as it needs for a
// steady median without tripling diagnose's.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = 4.0
)

// endToEnd builds the workload as above, then times the last build's
// closed loop and checks it.
func endToEnd(cfg Config, plan *Plan, refs References, clients int) (*Outcome, error) {
	var setups []float64
	var total float64
	var b *Bench
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		if b != nil {
			b.Stop()
			b = nil
			liveHeap()
		}
		t0 := time.Now()
		var err error
		if b, err = Build(cfg.Workload, plan, refs, clients); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	defer b.Stop()
	heap := liveHeap()

	rec := b.Run(time.Duration(cfg.Seconds * float64(time.Second)))
	bad := append(rec.Breaches, b.Audit()...)

	primary := primaryOp(cfg.Workload)
	lat := ms(rec.Lat[primary])
	out := &Outcome{
		Correct:   len(bad) == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics: map[string]Metric{
			"setup_s":       {median(setups), "s"},
			"op_p50_ms":     {scenarioMedian(rec, primary), "ms"},
			"op_p99_ms":     {quantile(lat, 0.99), "ms"},
			"ops_per_s":     {float64(len(lat)) / cfg.Seconds, "1/s"},
			"live_heap_mib": {float64(heap) / (1 << 20), "MiB"},
		},
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
		bad = append(bad, "no operation completed")
	}

	cfg.Log("workload %s: %d tenants, %d sessions, %d clients, closed loop over loopback HTTP, %.0fs measured",
		cfg.Workload, len(plan.Tenants), sessionsOpened(cfg.Workload, plan), clients, cfg.Seconds)
	cfg.Log("setup_s=%.4f s (median of %d: %s)", median(setups), len(setups), fmtList(setups))
	cfg.Log("op = %s round trip; op_p50_ms = mean of the per-scenario medians; op_p99_ms = pooled p99", primary)
	kinds := make([]string, 0, len(rec.Lat))
	for k := range rec.Lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := ms(rec.Lat[k])
		cfg.Log("%s_p50_ms=%.4f ms  %s_p99_ms=%.4f ms  (n=%d)", k, quantile(l, 0.5), k, quantile(l, 0.99), len(l))
	}
	cfg.Log("%s percentiles: p90=%.4f p95=%.4f p99=%.4f p99.9=%.4f ms", primary,
		quantile(lat, 0.90), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999))
	switch cfg.Workload {
	case Diagnose:
		cfg.Log("cmds_per_s=%.2f 1/s", float64(len(lat))/cfg.Seconds)
	case ReviewStorm:
		cfg.Log("reviews_per_s=%.2f 1/s", float64(len(lat))/cfg.Seconds)
	case TicketChurn:
		cfg.Log("tickets_per_s=%.2f 1/s", float64(len(lat))/cfg.Seconds)
	}
	if n := sessionsOpened(cfg.Workload, plan); n > 0 {
		cfg.Log("heap_per_session_kib=%.2f KiB (%d live sessions)", float64(heap)/1024/float64(n), n)
	}
	cfg.Log("fail_ratio=%.6f (%d of %d)", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	cfg.Log("peak RSS %s", peakRSS())
	for _, r := range rec.Reasons {
		cfg.Log("failure: %s", r)
	}
	for _, s := range bad {
		cfg.Log("INCORRECT: %s", s)
	}
	return out, nil
}

// scenarioMedian is the mean of the two networks' median round trips.
// University requests cost several times enterprise ones, so the pooled
// latency distribution has two modes; its median sits in the gap between
// them and jumps with the share each network got, while each network's
// own median is steady.
func scenarioMedian(rec *Recorder, kind string) float64 {
	sum := 0.0
	for _, scen := range scenarioNames {
		sum += quantile(ms(rec.Lat[kind+"."+scen]), 0.5)
	}
	return sum / float64(len(scenarioNames))
}

// primaryOp names the operation behind a workload's op_* metrics.
func primaryOp(workload string) string {
	switch workload {
	case ReviewStorm:
		return "review"
	case TicketChurn:
		return "ticket"
	}
	return "exec"
}

func sessionsOpened(workload string, p *Plan) int {
	if workload == TicketChurn {
		return 0
	}
	return len(p.Sessions)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
