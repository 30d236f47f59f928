package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var tiny = Size{Tenants: 2, SessionsPerTenant: 2}

// schedule renders everything a plan decides, for comparison.
func schedule(p *Plan) []string {
	var out []string
	for _, t := range p.Tenants {
		out = append(out, t.ID+" "+t.Scenario+" "+t.Script.Issue.Name)
	}
	for i := 0; i < 500; i++ {
		op := p.DiagnoseOp(i)
		out = append(out, op.Device+" "+op.Line)
		out = append(out, p.Sessions[p.ReviewOp(i).Session].Technician)
	}
	for _, t := range p.ChurnOrder() {
		out = append(out, p.Tenants[t].ID)
	}
	return out
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a, b := NewPlan(7, defaultSize), NewPlan(7, defaultSize)
	if !reflect.DeepEqual(schedule(a), schedule(b)) {
		t.Fatal("the same seed produced two different schedules")
	}
	if reflect.DeepEqual(schedule(a), schedule(NewPlan(8, defaultSize))) {
		t.Fatal("a different seed produced the same schedule")
	}
}

func TestPlanShape(t *testing.T) {
	p := NewPlan(3, defaultSize)
	issues := map[string]int{}
	for i, tp := range p.Tenants {
		if tp.Scenario != scenarioNames[i%2] {
			t.Fatalf("tenant %d is %s, want alternating scenarios", i, tp.Scenario)
		}
		issues[tp.Scenario+"/"+tp.Script.Issue.Name]++
	}
	for k, n := range issues {
		if n < 8 || n > 9 {
			t.Errorf("%s dealt to %d tenants, want an equal share (8 or 9 of 25)", k, n)
		}
	}
	probes := 0
	for i := 0; i < 20000; i++ {
		if p.DiagnoseOp(i).Probe != "" {
			probes++
		}
	}
	if probes < 800 || probes > 1200 {
		t.Errorf("%d probes in 20000 diagnose requests, want about one in %d", probes, probeEvery)
	}
	seen := map[int]bool{}
	for _, tn := range p.ChurnOrder() {
		if seen[tn] {
			t.Fatalf("tenant %d appears twice in one churn cycle", tn)
		}
		seen[tn] = true
	}
	if len(seen) != defaultSize.Tenants {
		t.Fatalf("churn covers %d tenants, want %d", len(seen), defaultSize.Tenants)
	}
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := Config{Workload: w, Seed: 5, Seconds: 0.6, Trace: trace, Size: tiny,
				SpanFile: t.TempDir() + "/spans.jsonl"}
			out, err := Execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := sortedNames(out.Metrics); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trace=%v reports %v, BENCHMARK.json lists %v", w, trace, got, want)
			}
			if !trace {
				for k, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive value", w, k, m.Value)
					}
				}
			}
		}
	}
}

// TestFailuresAreCounted drives requests the gate must refuse through the
// same paths the timed phase uses.
func TestFailuresAreCounted(t *testing.T) {
	plan := NewPlan(5, Size{Tenants: 1, SessionsPerTenant: 2})
	refs, err := BuildReferences(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Diagnose, plan, refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	cl := NewClient(b.D.URL)
	defer cl.Close()
	script := plan.Tenants[0].Script
	good := Op{Session: 0, Command: 0, Device: script.Diagnose[0].Device, Line: script.Diagnose[0].Line}

	rec := newRecorder()
	b.diagnoseOp(cl, rec, good)
	if rec.Failed != 0 {
		t.Fatalf("a correct command was counted as failed: %v", rec.Reasons)
	}

	// A non-2xx response: the right session with a wrong token (403 on a
	// command that is not a probe).
	real := b.Sessions[0]
	forged := *real
	forged.Token = strings.Repeat("0", len(real.Token))
	b.Sessions[0] = &forged
	rec = newRecorder()
	b.diagnoseOp(cl, rec, good)
	b.Sessions[0] = real
	if rec.Failed != 1 {
		t.Fatalf("a 403 on a scripted command counted %d failures, want 1", rec.Failed)
	}

	// A wrong output: the reference says otherwise.
	ref := refs[refKey(plan.Tenants[0].Scenario, script.Issue.Name)]
	saved := ref.Outputs[0]
	ref.Outputs[0] = saved + "tampered"
	rec = newRecorder()
	b.diagnoseOp(cl, rec, good)
	ref.Outputs[0] = saved
	if rec.Failed != 1 {
		t.Fatalf("a wrong output counted %d failures, want 1", rec.Failed)
	}

	// A probe that is not denied: a read command posing as a probe gets
	// 200, which is a mediation breach, not a mere failure.
	rec = newRecorder()
	b.diagnoseOp(cl, rec, Op{Session: 0, Device: script.Issue.SrcHost, Probe: "show running-config", Line: "show running-config"})
	if len(rec.Breaches) != 1 {
		t.Fatalf("an allowed probe gave %d breaches, want 1", len(rec.Breaches))
	}

	// A real probe is denied, and the audit must hold exactly one deny per
	// denied probe.
	rec = newRecorder()
	b.diagnoseOp(cl, rec, Op{Session: 1, Device: script.Issue.SrcHost, Probe: probeForms[0], Line: probeForms[0]})
	if rec.Failed != 0 || len(rec.Breaches) != 0 {
		t.Fatalf("a denied probe was counted as a failure: %v %v", rec.Reasons, rec.Breaches)
	}
	if bad := b.Audit(); len(bad) != 0 {
		t.Fatalf("audit of a clean run: %v", bad)
	}
	b.probes[0].Add(1)
	if bad := b.Audit(); len(bad) != 1 {
		t.Fatalf("audit missed a probe with no deny decision: %v", bad)
	}
	b.probes[0].Add(-1)

	// A review with nothing to review comes back 4xx.
	rec = newRecorder()
	b.reviewOp(cl, rec, Op{Session: 0})
	if rec.Failed != 1 {
		t.Fatalf("a failed review counted %d failures, want 1", rec.Failed)
	}
}
