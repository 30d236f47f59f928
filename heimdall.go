// Package heimdall is the public API of this repository: a complete
// implementation of Heimdall, the least-privilege architecture for managed
// network services from "Watching the watchmen: Least privilege for managed
// network services" (HotNets'21).
//
// Heimdall replaces the current MSP model — where an authenticated
// technician holds root on every device of the customer network — with a
// three-step workflow:
//
//  1. a fine-grained privilege specification (Privilegemsp) is generated
//     for each ticket from a task template or written in a small DSL;
//  2. the technician works inside an isolated twin network that mimics the
//     production network, with every command mediated by a reference
//     monitor against the Privilegemsp;
//  3. a policy enforcer — hosted in a (simulated) trusted execution
//     environment — verifies the proposed changes against the customer's
//     network policies, schedules them safely into production, and keeps a
//     tamper-evident audit trail.
//
// The package re-exports the stable surface of the internal packages, so a
// downstream user needs a single import:
//
//	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod})
//	tk := sys.Tickets.Create(heimdall.Ticket{Summary: "h1 cannot reach h2",
//	        Kind: heimdall.TaskConnectivity, SrcHost: "h1", DstHost: "h2"})
//	eng, err := sys.StartWork(tk.ID, "alice")
//	sess, err := eng.Console("r1")
//	out, err := sess.Exec("show ip route")
//	decision, err := eng.Commit()
//
// See the examples/ directory for complete runnable programs and DESIGN.md
// for the system inventory.
package heimdall

import (
	"heimdall/internal/audit"
	"heimdall/internal/authz"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/monitor"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/replica"
	"heimdall/internal/scenarios"
	"heimdall/internal/service"
	"heimdall/internal/spec"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// Network model.
type (
	// Network is the semantic model of a managed network.
	Network = netmodel.Network
	// Device is one managed network element (router, switch or host).
	Device = netmodel.Device
	// Interface is one interface of a device.
	Interface = netmodel.Interface
	// ACL is an ordered access list.
	ACL = netmodel.ACL
	// ACLEntry is one rule of an access list.
	ACLEntry = netmodel.ACLEntry
	// StaticRoute is a manually configured route.
	StaticRoute = netmodel.StaticRoute
	// OSPFProcess is a device's OSPF configuration.
	OSPFProcess = netmodel.OSPFProcess
	// BGPProcess is a device's eBGP configuration.
	BGPProcess = netmodel.BGPProcess
	// BGPNeighbor is one configured eBGP peering.
	BGPNeighbor = netmodel.BGPNeighbor
	// DeviceKind classifies devices (Router, Switch, Host).
	DeviceKind = netmodel.DeviceKind
	// Protocol identifies IP protocols in flows and ACLs.
	Protocol = netmodel.Protocol
	// ACLAction is the verdict of an ACL entry.
	ACLAction = netmodel.ACLAction
)

// ACL entry actions.
const (
	ACLPermit = netmodel.Permit
	ACLDeny   = netmodel.Deny
)

// Device kinds and protocols.
const (
	Router = netmodel.Router
	Switch = netmodel.Switch
	Host   = netmodel.Host

	AnyProto = netmodel.AnyProto
	TCP      = netmodel.TCP
	UDP      = netmodel.UDP
	ICMP     = netmodel.ICMP
)

// NewNetwork returns an empty network model.
func NewNetwork(name string) *Network { return netmodel.NewNetwork(name) }

// Configuration text.
var (
	// ParseConfig reads vendor-style configuration text into a device model.
	ParseConfig = config.Parse
	// PrintConfig renders a device model as canonical configuration text.
	PrintConfig = config.Print
	// DiffDevices computes the semantic changes between two device states.
	DiffDevices = config.DiffDevice
)

// Dataplane.
type (
	// Snapshot is the computed forwarding state of one network
	// configuration.
	Snapshot = dataplane.Snapshot
	// Flow describes traffic for traces and policy checks.
	Flow = dataplane.Flow
	// Trace is the hop-by-hop fate of one flow.
	Trace = dataplane.Trace
	// ChangeKind classifies a configuration change for incremental
	// snapshot derivation (Snapshot.Derive).
	ChangeKind = dataplane.ChangeKind
	// NetworkChange names one mutated device and its change class.
	NetworkChange = dataplane.Change
	// ChangeSet lists the changes between a snapshot's network and a
	// derived network.
	ChangeSet = dataplane.ChangeSet
)

// Change classes for Snapshot.Derive. ChangeL2 covers switching-fabric
// edits (VLANs, access/trunk port membership, L2 port state); ChangeL3Topology
// covers routed-interface and addressing edits. ChangeTopology remains the
// conservative umbrella for link or device add/remove.
const (
	ChangeACL        = dataplane.ChangeACL
	ChangeStatic     = dataplane.ChangeStatic
	ChangeOSPF       = dataplane.ChangeOSPF
	ChangeBGP        = dataplane.ChangeBGP
	ChangeL2         = dataplane.ChangeL2
	ChangeL3Topology = dataplane.ChangeL3Topology
	ChangeTopology   = dataplane.ChangeTopology
)

// ComputeSnapshot computes the forwarding behaviour of a network.
func ComputeSnapshot(n *Network) *Snapshot { return dataplane.Compute(n) }

// Policies and verification.
type (
	// Policy is one verifiable network policy.
	Policy = verify.Policy
	// Violation is a failed policy with its counterexample trace.
	Violation = verify.Violation
	// VerifyResult summarises one verification run.
	VerifyResult = verify.Result
)

// Policy kinds.
const (
	Reachability = verify.Reachability
	Isolation    = verify.Isolation
	Waypoint     = verify.Waypoint
)

var (
	// CheckPolicies evaluates policies against a snapshot.
	CheckPolicies = verify.Check
	// ParsePolicies decodes a JSON policy set.
	ParsePolicies = verify.ParsePolicies
	// MinePolicies derives the policy set implied by a baseline snapshot
	// (the config2spec role in the paper's pipeline).
	MinePolicies = spec.Mine
)

// MiningOptions configures MinePolicies.
type MiningOptions = spec.Options

// MiningService is one probed protocol/port combination.
type MiningService = spec.Service

// Privilegemsp.
type (
	// PrivilegeSpec is a ticket's Privilegemsp.
	PrivilegeSpec = privilege.Spec
	// PrivilegeRule is one allow/deny predicate.
	PrivilegeRule = privilege.Rule
	// CompiledPrivilegeSpec is a Spec compiled into a segment trie for
	// allocation-free Allows checks on hot mediation paths.
	CompiledPrivilegeSpec = privilege.CompiledSpec
	// TaskKind classifies tickets for privilege templates.
	TaskKind = privilege.TaskKind
	// TemplateInput describes a ticket to GeneratePrivileges.
	TemplateInput = privilege.TemplateInput
	// Escalation is a pending privilege escalation request.
	Escalation = privilege.Escalation
)

// Task kinds for privilege templates.
const (
	TaskConnectivity = privilege.TaskConnectivity
	TaskACL          = privilege.TaskACL
	TaskVLAN         = privilege.TaskVLAN
	TaskOSPF         = privilege.TaskOSPF
	TaskISP          = privilege.TaskISP
	TaskInterface    = privilege.TaskInterface
	TaskMonitoring   = privilege.TaskMonitoring

	Allow = privilege.AllowEffect
	Deny  = privilege.DenyEffect
)

var (
	// ParsePrivilegeSpec parses the text DSL ("allow(action, resource)").
	ParsePrivilegeSpec = privilege.ParseSpec
	// GeneratePrivileges builds a task-driven Privilegemsp.
	GeneratePrivileges = privilege.Generate
)

// Twin network.
type (
	// Twin is an isolated twin network for one ticket.
	Twin = twin.Twin
	// TwinConfig assembles a twin network.
	TwinConfig = twin.Config
	// TwinSession is a mediated console on a twin device.
	TwinSession = twin.Session
	// SliceStrategy selects how the presentation slice is computed.
	SliceStrategy = twin.SliceStrategy
	// ErrDenied is returned when the reference monitor blocks a command.
	ErrDenied = twin.ErrDenied
)

// Slice strategies (the paper's Figure 5 design space).
const (
	SliceAll        = twin.SliceAll
	SliceNeighbors  = twin.SliceNeighbors
	SliceTaskDriven = twin.SliceTaskDriven
)

var (
	// NewTwin builds a twin network.
	NewTwin = twin.New
	// ComputeSlice returns the devices a strategy exposes for a ticket.
	ComputeSlice = twin.ComputeSlice
)

// Terminal adds IOS-style modal editing (configure terminal, sub-modes) on
// top of any mediated command Runner.
type Terminal = console.Terminal

// TerminalRunner executes one flat console command line.
type TerminalRunner = console.Runner

// NewTerminal wraps a Runner (e.g. a TwinSession's Exec) in a modal
// terminal.
func NewTerminal(run console.Runner) *Terminal { return console.NewTerminal(run) }

// Tickets.
type (
	// Ticket describes one reported issue.
	Ticket = ticket.Ticket
	// TicketStatus is the lifecycle state of a ticket.
	TicketStatus = ticket.Status
	// Fault is one injectable misconfiguration (fault-injection library).
	Fault = ticket.Fault
	// FixCommand is one console command of a prepared fix script.
	FixCommand = ticket.FixCommand
)

// Ticket statuses.
const (
	TicketOpen       = ticket.Open
	TicketInProgress = ticket.InProgress
	TicketResolved   = ticket.Resolved
	TicketRejected   = ticket.Rejected
	TicketClosed     = ticket.Closed
)

// Enforcer, audit and enclave.
type (
	// Enforcer gates twin changes into production.
	Enforcer = enforcer.Enforcer
	// Decision is the outcome of reviewing a change set.
	Decision = enforcer.Decision
	// AuditTrail is the tamper-evident audit log.
	AuditTrail = audit.Trail
	// AuditEntry is one link of the audit chain.
	AuditEntry = audit.Entry
	// EnclavePlatform is the simulated TEE root of trust.
	EnclavePlatform = enclave.Platform
	// AttestationReport proves the enforcer's code identity.
	AttestationReport = enclave.Report
)

// ScheduleChanges orders a change set for safe application (additive
// changes before subtractive ones).
var ScheduleChanges = enforcer.Schedule

// Resilient commit pipeline (see docs/ROBUSTNESS.md).
type (
	// RetryPolicy tunes per-change push retries and backoff
	// (Enforcer.Retry; the zero value means the defaults).
	RetryPolicy = enforcer.RetryPolicy
	// CommitTarget is the device-push path of a commit.
	CommitTarget = enforcer.Target
	// RecoveryReport describes what Enforcer.Recover did.
	RecoveryReport = enforcer.RecoveryReport
	// CommitJournal is the enforcer's write-ahead commit journal.
	CommitJournal = journal.Journal
	// JournalRecord is one hash-chained commit-journal record.
	JournalRecord = journal.Record
	// FaultPlan is a deterministic fault schedule.
	FaultPlan = faultinject.Plan
	// FaultRule schedules faults for one device/operation.
	FaultRule = faultinject.Rule
	// FaultInjector executes a FaultPlan (Enforcer.SetInjector).
	FaultInjector = faultinject.Injector
)

var (
	// NewFaultInjector builds an injector from a fault plan.
	NewFaultInjector = faultinject.New
	// RandomFaultPlan derives a reproducible fault schedule from a seed.
	RandomFaultPlan = faultinject.RandomPlan
	// IsTransientFault reports whether an error is retryable.
	IsTransientFault = faultinject.IsTransient
	// WrapFaultConn gates a net.Conn with an injector (transport drills).
	WrapFaultConn = faultinject.WrapConn
	// ImportCommitJournal parses an exported commit journal and verifies
	// it against the journal key before recovery may trust it.
	ImportCommitJournal = journal.Import
)

// Replicated enforcer: N replicas each holding an independent HMAC-chained
// journal copy, quorum commits and Byzantine cross-audit (see
// docs/ROBUSTNESS.md, "The replicated enforcer").
type (
	// ReplicaGroup is a quorum of enforcer replicas; wire it in with
	// Enforcer.SetTarget to replicate commits.
	ReplicaGroup = replica.Group
	// ReplicaConfig assembles a ReplicaGroup.
	ReplicaConfig = replica.Config
	// EnforcerReplica is one member of a ReplicaGroup.
	EnforcerReplica = replica.Replica
	// ReplicaState is a replica's lifecycle state (live, lagging,
	// quarantined).
	ReplicaState = replica.State
	// ReplicaAuditReport is the outcome of one Byzantine cross-audit.
	ReplicaAuditReport = replica.AuditReport
	// QuorumError is the permanent (non-retryable) error a commit gets
	// when the live replica count falls below quorum.
	QuorumError = replica.QuorumError
	// JournalDiff classifies how two journal chains relate
	// (equal/prefix/extends/diverged) with the first disagreeing index.
	JournalDiff = journal.DiffResult
	// JournalHead summarises a chain tip (length + head hash).
	JournalHead = journal.Head
	// JournalApproval is one multi-party authorization signature embedded
	// in a journal intent record.
	JournalApproval = journal.Approval
)

var (
	// NewReplicaGroup builds a replica group mirroring the coordinator's
	// journal onto fresh copies of the production network.
	NewReplicaGroup = replica.NewGroup
	// DiffJournals compares two journal chains record by record.
	DiffJournals = journal.Diff
)

// M-of-N multi-party authorization: high-risk change sets need M approval
// signatures before the enforcer (and every replica) will push them.
type (
	// AuthzRisk classifies a change set's blast radius.
	AuthzRisk = authz.Risk
	// AuthzPolicy holds the registered approvers and the M-of-N rule per
	// risk class.
	AuthzPolicy = authz.Policy
	// AuthzSigner produces HMAC approval signatures for one approver.
	AuthzSigner = authz.Signer
)

var (
	// ClassifyRisk assigns a change set its risk class.
	ClassifyRisk = authz.Classify
	// NewAuthzPolicy builds an M-of-N approval policy.
	NewAuthzPolicy = authz.NewPolicy
	// AuthzDigest is the canonical ticket+changes digest approvals sign.
	AuthzDigest = authz.Digest
)

// ImportAuditTrail parses an exported audit trail and verifies it against
// the trail key, rejecting any tampering.
var ImportAuditTrail = audit.Import

// SummarizeAuditTrail groups trail entries into per-ticket review reports.
var SummarizeAuditTrail = audit.Summarize

// AuditTicketReport is the per-ticket review summary an auditor reads.
type AuditTicketReport = audit.TicketReport

// ReachabilityDelta is one host pair whose reachability a change flips.
type ReachabilityDelta = verify.Delta

// DiffReachability returns the host pairs whose delivery verdict changes
// between two snapshots (the what-if view of a change set).
var DiffReachability = verify.DiffReachability

// ConfigChange is one semantic configuration change.
type ConfigChange = config.Change

// Workflow.
type (
	// System is one Heimdall deployment for a customer network.
	System = core.System
	// Options configures a deployment.
	Options = core.Options
	// Engagement is one technician working one ticket inside a twin.
	Engagement = core.Engagement
)

// NewSystem builds a Heimdall deployment around a production network.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// EmergencySession is a mediated, enforcer-guarded console on a production
// device (paper §7 emergency mode; see Engagement.EnableEmergency).
type EmergencySession = core.EmergencySession

// Replay is the result of re-executing a ticket's audited session.
type Replay = core.Replay

// ReplayTicket re-executes a ticket's allowed commands — extracted from a
// verified audit trail — on a twin of the incident-time baseline.
var ReplayTicket = core.ReplayTicket

// Performance monitoring (the paper's §2.1 third MSP service class).
type (
	// TrafficDemand is one offered host-to-host flow.
	TrafficDemand = monitor.Demand
	// BandwidthReport aggregates routed demands into per-interface load.
	BandwidthReport = monitor.Report
	// InterfaceLoad is the traffic leaving one interface.
	InterfaceLoad = monitor.InterfaceLoad
)

var (
	// EvaluateTraffic routes a demand matrix over a snapshot.
	EvaluateTraffic = monitor.Evaluate
	// UniformTrafficMatrix generates a deterministic random demand matrix.
	UniformTrafficMatrix = monitor.UniformMatrix
)

// Telemetry: dependency-free metrics and span tracing for the mediation
// path. Pass a *MetricsRegistry as Options.Meter to instrument a whole
// deployment, or leave it nil for the zero-cost no-op meter.
type (
	// Meter hands out counters, gauges and histograms.
	Meter = telemetry.Meter
	// MetricsRegistry is the concrete Meter with Prometheus-text exposition.
	MetricsRegistry = telemetry.Registry
	// MetricLabel is one metric or span label.
	MetricLabel = telemetry.Label
	// Tracer records parent/child spans on a pluggable clock.
	Tracer = telemetry.Tracer
	// Span is one traced operation.
	Span = telemetry.Span
	// VirtualClock is a manually advanced clock for deterministic spans.
	VirtualClock = telemetry.VirtualClock
)

var (
	// NewMetricsRegistry creates an empty metrics registry.
	NewMetricsRegistry = telemetry.NewRegistry
	// NopMeter returns the shared no-op meter.
	NopMeter = telemetry.Nop
	// Label builds one metric label.
	Label = telemetry.L
	// NewTracer creates a span tracer on the given clock (nil = wall clock).
	NewTracer = telemetry.NewTracer
	// NewVirtualClock creates a deterministic clock starting at start.
	NewVirtualClock = telemetry.NewVirtualClock
	// LatencyBuckets is the default histogram bucketing for latencies.
	LatencyBuckets = telemetry.LatencyBuckets
	// CheckPoliciesMetered is CheckPolicies with verifier telemetry.
	CheckPoliciesMetered = verify.CheckMetered
)

// Evaluation scenarios (the paper's Table 1 networks).
type Scenario = scenarios.Scenario

var (
	// EnterpriseScenario builds the enterprise evaluation network.
	EnterpriseScenario = scenarios.Enterprise
	// UniversityScenario builds the university evaluation network.
	UniversityScenario = scenarios.University
	// ProviderScenario builds the multi-site eBGP scenario (beyond the
	// paper's Table 1 pair).
	ProviderScenario = scenarios.Provider
)

// Multi-tenant service (cmd/heimdalld): one long-running process hosting
// many customer networks, each behind its own twin/enforcer/audit-trail
// deployment, with session lifecycle, bounded verify capacity and an HTTP
// JSON API. See docs/SERVICE.md.
type (
	// Service hosts many tenant deployments concurrently.
	Service = service.Service
	// ServiceConfig tunes a Service (shards, verify pool, idle timeout,
	// clock, catalog).
	ServiceConfig = service.Config
	// ServiceTenant is one hosted customer network.
	ServiceTenant = service.Tenant
	// SessionInfo is the API-facing view of a technician session.
	SessionInfo = service.Info
)

var (
	// NewService assembles a multi-tenant service.
	NewService = service.New
	// BuiltinScenarioCatalog maps the built-in scenario names to their
	// constructors for ServiceConfig.Catalog.
	BuiltinScenarioCatalog = service.BuiltinCatalog
)

// Service errors (HTTP-mapped by the API layer).
var (
	ErrServiceQueueFull      = service.ErrQueueFull
	ErrServiceSessionExpired = service.ErrSessionExpired
	ErrServiceSessionClosed  = service.ErrSessionClosed
	ErrServiceBadToken       = service.ErrBadToken
)
