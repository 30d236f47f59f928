// Package twin implements Heimdall's twin network (paper §4.2): an
// isolated, emulated copy of the production network a technician works on
// instead of the production network itself.
//
// The twin decouples the traditional monolithic emulator into:
//
//   - an emulation layer: a full-fidelity, sanitized image of every device,
//     so faults reproduce exactly (security comes from mediation, not from
//     omitting devices that might be the root cause). Twins opened on the
//     same production version share one sanitized Base and its snapshot;
//     each twin copies a device only when a technician first writes it;
//   - a presentation layer: the topology view and consoles exposed to the
//     technician, restricted to a task-driven slice of devices relevant to
//     the ticket;
//   - a reference monitor between them that mediates every command against
//     the ticket's Privilegemsp and records every decision in the audit
//     trail.
package twin

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
)

// Config assembles a twin network for one ticket.
type Config struct {
	Ticket     string
	Technician string
	// Production is the network being mimicked; the twin never mutates it.
	// It is ignored when Base is set.
	Production *netmodel.Network
	// Base, when set, is the shared sanitized image of production the
	// twin starts from (see NewBase). When nil, New builds a private one.
	Base *Base
	// Spec is the ticket's Privilegemsp enforced by the reference monitor.
	Spec *privilege.Spec
	// Slice is the set of devices visible in the presentation layer.
	// Compute it with ComputeSlice, or pass nil to expose everything
	// (the "All" baseline of the evaluation).
	Slice map[string]bool
	// Trail receives reference-monitor decisions; nil disables auditing.
	Trail *audit.Trail
	// Meter receives reference-monitor metrics (commands mediated,
	// allow/deny decisions per action class, mediation latency); nil
	// means the no-op meter.
	Meter telemetry.Meter
}

// Twin is one instantiated twin network.
type Twin struct {
	ticket     string
	technician string
	spec       *privilege.Spec
	// compiled caches the trie form of spec so the reference monitor
	// checks mediated commands without rescanning the rule list. Callers
	// may extend a ticket's privileges by appending rules (the core engine
	// does), so the cache is keyed by rule count and rebuilt when it grows.
	compiled atomic.Pointer[compiledSpec]
	base     *Base             // shared sanitized image, never written
	emul     *netmodel.Network // copy-on-write view of base.net
	slice    map[string]bool   // nil means every device is visible
	env      *console.Env
	trail    *audit.Trail
	meter    telemetry.Meter

	// mu serializes everything that touches the emulation layer or the
	// console environment's snapshot cache: command execution, diffing,
	// and snapshot reads. A twin is shared by every session opened on it
	// (one technician may hold consoles on several devices, and the
	// service layer multiplexes API calls onto the same twin), so the
	// emulation layer itself must be safe for concurrent use.
	mu sync.Mutex
}

// Base is a sanitized image of one production version (secrets redacted)
// together with its lazily computed dataplane snapshot. Any number of
// twins may share one Base: none of them ever writes its network, so the
// image doubles as every twin's diff baseline and its snapshot as every
// twin's first snapshot.
type Base struct {
	net  *netmodel.Network
	once sync.Once
	snap *dataplane.Snapshot
}

// NewBase builds the sanitized image of production. The caller must keep
// production from changing during the call; later changes to production
// do not show in the base.
func NewBase(production *netmodel.Network) *Base {
	return &Base{net: production.CloneWith(config.Sanitize)}
}

// Network returns the sanitized image. It is shared: treat it as
// read-only.
func (b *Base) Network() *netmodel.Network { return b.net }

// Snapshot returns the image's dataplane snapshot, computed on first use.
func (b *Base) Snapshot() *dataplane.Snapshot {
	b.once.Do(func() { b.snap = dataplane.Compute(b.net) })
	return b.snap
}

// New builds the twin. Its emulation layer is a copy-on-write view of the
// base: every device is shared with the base until a technician's first
// write to it, which gives the twin a private copy of that device alone.
func New(cfg Config) (*Twin, error) {
	base := cfg.Base
	if base == nil {
		if cfg.Production == nil {
			return nil, fmt.Errorf("twin: nil production network")
		}
		base = NewBase(cfg.Production)
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("twin: nil Privilegemsp")
	}
	meter := cfg.Meter
	if meter == nil {
		meter = telemetry.Nop()
	}
	tw := &Twin{
		ticket:     cfg.Ticket,
		technician: cfg.Technician,
		spec:       cfg.Spec,
		base:       base,
		emul:       base.net.CloneCOW(),
		slice:      cfg.Slice,
		trail:      cfg.Trail,
		meter:      meter,
	}
	// Technician consoles are the emulation layer's only writers (Exec
	// serializes under tw.mu), so post-write snapshots derive incrementally
	// from the previous one — at first the base's shared snapshot — instead
	// of recomputing the dataplane from scratch, the dominant cost of
	// diagnosis scripts that alternate fixes with reachability checks.
	tw.env = console.NewEnvFrom(tw.emul, base.Snapshot)
	if cfg.Meter != nil {
		tw.env.Meter = cfg.Meter
	}
	tw.log(audit.KindSession, fmt.Sprintf("twin created (%d devices, %d visible)",
		len(base.net.Devices), len(tw.VisibleDevices())), true)
	return tw, nil
}

// log appends to the audit trail when one is attached.
func (tw *Twin) log(kind audit.Kind, detail string, allowed bool) {
	if tw.trail != nil {
		tw.trail.Append(tw.ticket, tw.technician, kind, detail, allowed)
	}
}

// VisibleDevices returns the presentation-layer topology: the devices the
// technician can see and open consoles on, sorted. It reads the base's
// device map, which has the same names as the emulation layer's and,
// unlike it, is never written, so no lock is needed.
func (tw *Twin) VisibleDevices() []string {
	if tw.slice == nil {
		return tw.base.net.DeviceNames()
	}
	var out []string
	for name := range tw.slice {
		if tw.base.net.Devices[name] != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Visible reports whether a device is inside the presentation slice.
func (tw *Twin) Visible(device string) bool {
	if tw.slice == nil {
		return tw.base.net.Devices[device] != nil
	}
	return tw.slice[device] && tw.base.net.Devices[device] != nil
}

// Network exposes the emulation layer, used by the enforcer for diffing
// and by tests; technicians only ever interact through sessions. Devices
// the twin has not written are shared with the base: read-only.
func (tw *Twin) Network() *netmodel.Network { return tw.emul }

// Baseline returns the sanitized image the twin started from. It is
// shared with every twin on the same base: read-only.
func (tw *Twin) Baseline() *netmodel.Network { return tw.base.net }

// Snapshot returns the twin's current dataplane snapshot.
func (tw *Twin) Snapshot() *dataplane.Snapshot {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.env.Snapshot()
}

// Changes computes the semantic configuration diff between the twin's
// baseline and its current state: exactly what the technician changed.
// Devices still shared with the base are skipped without a diff.
func (tw *Twin) Changes() []config.Change {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return config.DiffNetwork(tw.base.net, tw.emul)
}

// Session is a mediated console on one visible device.
type Session struct {
	twin *Twin
	con  *console.Console
}

// OpenConsole opens a session on a device. Devices outside the slice do
// not exist as far as the presentation layer is concerned.
func (tw *Twin) OpenConsole(device string) (*Session, error) {
	if !tw.Visible(device) {
		tw.log(audit.KindDecision, fmt.Sprintf("deny console on %s (outside slice)", device), false)
		tw.decision("deny", "session")
		return nil, fmt.Errorf("twin: no such device %q", device)
	}
	tw.log(audit.KindSession, "console opened on "+device, true)
	tw.decision("allow", "session")
	return &Session{twin: tw, con: console.New(device, tw.env)}, nil
}

// decision counts one reference-monitor verdict by action class.
func (tw *Twin) decision(verdict, class string) {
	tw.meter.Counter("heimdall_monitor_decisions_total",
		telemetry.L("decision", verdict), telemetry.L("class", class)).Inc()
}

// actionClass maps a console action ("config.interface.set") to its
// class ("config") to bound decision-counter cardinality.
func actionClass(action string) string {
	if i := strings.IndexByte(action, '.'); i > 0 {
		return action[:i]
	}
	return action
}

// Device returns the session's device name.
func (s *Session) Device() string { return s.con.Device() }

// ErrDenied is returned (wrapped) when the reference monitor blocks a
// command.
type ErrDenied struct {
	Action   string
	Resource string
}

// Error implements the error interface.
func (e *ErrDenied) Error() string {
	return fmt.Sprintf("twin: permission denied: %s on %s", e.Action, e.Resource)
}

// Exec runs one command line through the reference monitor: parse,
// privilege check, audit, then execute in the emulation layer.
func (s *Session) Exec(line string) (string, error) {
	tw := s.twin
	// One command at a time per twin: parse, decision, audit and execution
	// form one serialized critical section, so concurrent sessions can
	// never interleave half-applied configuration mutations or observe a
	// snapshot mid-invalidation, and the audit trail's command/decision
	// ordering matches the execution order.
	tw.mu.Lock()
	defer tw.mu.Unlock()
	start := time.Now()
	tw.meter.Counter("heimdall_monitor_commands_total").Inc()
	cmd, err := s.con.Parse(line)
	if err != nil {
		tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s (parse error)", s.Device(), line), false)
		tw.decision("deny", "parse-error")
		return "", err
	}
	tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s", s.Device(), line), true)
	if !tw.allows(cmd.Action, cmd.Resource) {
		tw.log(audit.KindDecision, fmt.Sprintf("deny %s on %s", cmd.Action, cmd.Resource), false)
		tw.decision("deny", actionClass(cmd.Action))
		tw.observeMediation(start)
		return "", &ErrDenied{Action: cmd.Action, Resource: cmd.Resource}
	}
	tw.log(audit.KindDecision, fmt.Sprintf("allow %s on %s", cmd.Action, cmd.Resource), true)
	tw.decision("allow", actionClass(cmd.Action))
	// Mediation latency is the monitor's own cost: parse + privilege
	// check + audit, before the command touches the emulation layer.
	tw.observeMediation(start)
	if cmd.Write {
		// Copy on write: every console write touches only its own
		// device, so a private copy of that one device keeps the base
		// and every sibling twin untouched.
		if d := tw.emul.Devices[cmd.Device]; d != nil && d == tw.base.net.Devices[cmd.Device] {
			tw.emul.Devices[cmd.Device] = d.Clone()
		}
	}
	out, err := s.con.Execute(cmd)
	tw.meter.Histogram("heimdall_monitor_exec_seconds", telemetry.LatencyBuckets).
		ObserveDuration(time.Since(start))
	if err != nil {
		tw.log(audit.KindCommand, fmt.Sprintf("[%s] %s failed: %v", s.Device(), line, err), true)
		return "", err
	}
	return out, nil
}

// compiledSpec pairs a compiled rule trie with the rule count it was built
// from, so the mediation path can detect appended rules.
type compiledSpec struct {
	nrules int
	c      *privilege.CompiledSpec
}

// allows evaluates the mediation decision through the compiled spec,
// recompiling when the rule list grew since the last command. The cache is
// an atomic pointer, so concurrent sessions stay race-free (a concurrent
// append at worst costs one extra compile).
func (tw *Twin) allows(action, resource string) bool {
	n := len(tw.spec.Rules)
	cs := tw.compiled.Load()
	if cs == nil || cs.nrules != n {
		cs = &compiledSpec{nrules: n, c: tw.spec.Compile()}
		tw.compiled.Store(cs)
	}
	return cs.c.Allows(action, resource)
}

func (tw *Twin) observeMediation(start time.Time) {
	tw.meter.Histogram("heimdall_monitor_mediation_seconds", telemetry.LatencyBuckets).
		ObserveDuration(time.Since(start))
}
