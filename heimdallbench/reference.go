package main

import (
	"fmt"
	"sort"

	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/scenarios"
	"heimdall/internal/service"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

// Reference is the oracle for one (scenario, issue): the output of every
// script command, captured once in a private deployment outside the
// service under test, and the policies production violates while the
// issue is open (Broken) and after its fix is committed (Fixed).
type Reference struct {
	Outputs []string
	Broken  []string
	Fixed   []string
}

// References maps "scenario/issue" to its reference.
type References map[string]*Reference

func refKey(scenario, issue string) string { return scenario + "/" + issue }

// BuildReferences replays every scripted issue of the plan's tenants
// through core directly: inject, start work, run the whole script,
// commit.
func BuildReferences(p *Plan) (References, error) {
	refs := make(References)
	for _, t := range p.Tenants {
		key := refKey(t.Scenario, t.Script.Issue.Name)
		if refs[key] != nil {
			continue
		}
		ref, err := buildReference(t.Scenario, t.Script.Issue)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", key, err)
		}
		refs[key] = ref
	}
	return refs, nil
}

func buildReference(scenario string, issue scenarios.Issue) (*Reference, error) {
	scen := service.BuiltinCatalog()[scenario]()
	sys, err := core.NewSystem(core.Options{
		Network: scen.Network, Policies: scen.Policies, Sensitive: scen.Sensitive,
		PlatformSeed: "reference",
	})
	if err != nil {
		return nil, err
	}
	if err := sys.MutateProduction(issue.Fault.Inject); err != nil {
		return nil, err
	}
	ref := &Reference{Broken: violations(sys)}
	tk := sys.Tickets.Create(ticket.Ticket{
		Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects: []string{issue.Fault.RootCause},
	})
	eng, err := sys.StartWork(tk.ID, "reference")
	if err != nil {
		return nil, err
	}
	if ref.Outputs, err = eng.RunScript(issue.Script); err != nil {
		return nil, err
	}
	if _, err := eng.Commit(); err != nil {
		return nil, err
	}
	ref.Fixed = violations(sys)
	return ref, nil
}

// violations lists, sorted, the policies production currently breaks.
func violations(sys *core.System) []string {
	return violationNames(verify.Check(dataplane.Compute(sys.Production()), sys.Policies()))
}

func violationNames(res *verify.Result) []string {
	out := []string{}
	for _, v := range res.Violations {
		out = append(out, v.Policy.String())
	}
	sort.Strings(out)
	return out
}
