package config

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"

	"heimdall/internal/netmodel"
)

// Op identifies the kind of a semantic configuration change.
type Op int

const (
	// OpAddInterface creates a new interface with the given state.
	OpAddInterface Op = iota
	// OpSetInterface replaces the state of an existing interface.
	OpSetInterface
	// OpAddACLEntry inserts one ACL entry (creating the ACL if needed).
	OpAddACLEntry
	// OpRemoveACLEntry deletes one ACL entry by sequence number.
	OpRemoveACLEntry
	// OpRemoveACL deletes a whole ACL.
	OpRemoveACL
	// OpAddStaticRoute installs a static route.
	OpAddStaticRoute
	// OpRemoveStaticRoute withdraws a static route.
	OpRemoveStaticRoute
	// OpSetOSPF replaces the device's OSPF process configuration.
	OpSetOSPF
	// OpRemoveOSPF deletes the OSPF process.
	OpRemoveOSPF
	// OpSetVLAN creates or renames a VLAN.
	OpSetVLAN
	// OpRemoveVLAN deletes a VLAN definition.
	OpRemoveVLAN
	// OpSetGateway changes the device's default gateway.
	OpSetGateway
	// OpSetBGP replaces the device's BGP process configuration.
	OpSetBGP
	// OpRemoveBGP deletes the BGP process.
	OpRemoveBGP
)

var opNames = map[Op]string{
	OpAddInterface: "add-interface", OpSetInterface: "set-interface",
	OpAddACLEntry: "add-acl-entry", OpRemoveACLEntry: "remove-acl-entry",
	OpRemoveACL: "remove-acl", OpAddStaticRoute: "add-static-route",
	OpRemoveStaticRoute: "remove-static-route", OpSetOSPF: "set-ospf",
	OpRemoveOSPF: "remove-ospf", OpSetVLAN: "set-vlan",
	OpRemoveVLAN: "remove-vlan", OpSetGateway: "set-gateway",
	OpSetBGP: "set-bgp", OpRemoveBGP: "remove-bgp",
}

// String returns the kebab-case name of the op.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Change is one semantic configuration change on one device. Exactly the
// payload fields relevant to Op are set.
type Change struct {
	Device string
	Op     Op

	Interface *netmodel.Interface // OpAddInterface, OpSetInterface
	ACLName   string              // ACL ops
	Entry     *netmodel.ACLEntry  // OpAddACLEntry
	Seq       int                 // OpRemoveACLEntry
	Route     *netmodel.StaticRoute
	OSPF      *netmodel.OSPFProcess
	BGP       *netmodel.BGPProcess
	VLAN      *netmodel.VLAN
	VLANID    int // OpRemoveVLAN
	Gateway   netip.Addr
}

// Resource returns the privilege-resource path the change touches, in the
// form consumed by the Privilegemsp evaluator, e.g.
// "device:r3:acl:WEB-IN" or "device:r1:interface:Gi0/0".
func (c Change) Resource() string {
	switch c.Op {
	case OpAddInterface, OpSetInterface:
		return fmt.Sprintf("device:%s:interface:%s", c.Device, c.Interface.Name)
	case OpAddACLEntry, OpRemoveACLEntry, OpRemoveACL:
		return fmt.Sprintf("device:%s:acl:%s", c.Device, c.ACLName)
	case OpAddStaticRoute, OpRemoveStaticRoute:
		return fmt.Sprintf("device:%s:route:%s", c.Device, c.Route.Prefix)
	case OpSetOSPF, OpRemoveOSPF:
		return fmt.Sprintf("device:%s:ospf", c.Device)
	case OpSetBGP, OpRemoveBGP:
		return fmt.Sprintf("device:%s:bgp", c.Device)
	case OpSetVLAN:
		return fmt.Sprintf("device:%s:vlan:%d", c.Device, c.VLAN.ID)
	case OpRemoveVLAN:
		return fmt.Sprintf("device:%s:vlan:%d", c.Device, c.VLANID)
	case OpSetGateway:
		return fmt.Sprintf("device:%s:gateway", c.Device)
	}
	return "device:" + c.Device
}

// Action returns the privilege-action name of the change, e.g.
// "config.acl.add".
func (c Change) Action() string {
	switch c.Op {
	case OpAddInterface:
		return "config.interface.add"
	case OpSetInterface:
		return "config.interface.set"
	case OpAddACLEntry:
		return "config.acl.add"
	case OpRemoveACLEntry:
		return "config.acl.remove"
	case OpRemoveACL:
		return "config.acl.remove"
	case OpAddStaticRoute:
		return "config.route.add"
	case OpRemoveStaticRoute:
		return "config.route.remove"
	case OpSetOSPF:
		return "config.ospf.set"
	case OpRemoveOSPF:
		return "config.ospf.remove"
	case OpSetBGP:
		return "config.bgp.set"
	case OpRemoveBGP:
		return "config.bgp.remove"
	case OpSetVLAN:
		return "config.vlan.set"
	case OpRemoveVLAN:
		return "config.vlan.remove"
	case OpSetGateway:
		return "config.gateway.set"
	}
	return "config.unknown"
}

// String renders the change for logs and audit entries.
func (c Change) String() string {
	switch c.Op {
	case OpAddACLEntry:
		return fmt.Sprintf("%s %s: %s", c.Device, c.Op, FormatACLEntry(c.Entry))
	case OpRemoveACLEntry:
		return fmt.Sprintf("%s %s: %s seq %d", c.Device, c.Op, c.ACLName, c.Seq)
	case OpAddStaticRoute, OpRemoveStaticRoute:
		return fmt.Sprintf("%s %s: %s via %s", c.Device, c.Op, c.Route.Prefix, c.Route.NextHop)
	case OpAddInterface, OpSetInterface:
		state := "up"
		if c.Interface.Shutdown {
			state = "shutdown"
		}
		return fmt.Sprintf("%s %s: %s (%s)", c.Device, c.Op, c.Interface.Name, state)
	default:
		return fmt.Sprintf("%s %s: %s", c.Device, c.Op, c.Resource())
	}
}

// Additive reports whether the change can only add connectivity (safe to
// apply early) as opposed to removing it. The enforcer's scheduler applies
// additive changes before subtractive ones to avoid transient blackholes.
func (c Change) Additive() bool {
	switch c.Op {
	case OpAddACLEntry:
		return c.Entry.Action == netmodel.Permit
	case OpAddStaticRoute, OpSetVLAN, OpAddInterface, OpSetOSPF, OpSetBGP, OpSetGateway:
		return true
	case OpSetInterface:
		return !c.Interface.Shutdown
	}
	return false
}

// DiffDevice computes the semantic changes that transform old into new.
// Both devices must have the same name.
func DiffDevice(old, new *netmodel.Device) []Change {
	var out []Change
	dev := old.Name

	// Interfaces.
	for _, name := range new.InterfaceNames() {
		ni := new.Interfaces[name]
		oi := old.Interfaces[name]
		if oi == nil {
			out = append(out, Change{Device: dev, Op: OpAddInterface, Interface: ni.Clone()})
			continue
		}
		if !reflect.DeepEqual(oi, ni) {
			out = append(out, Change{Device: dev, Op: OpSetInterface, Interface: ni.Clone()})
		}
	}

	// ACLs: entry-level diff.
	for _, name := range new.ACLNames() {
		na, oa := new.ACLs[name], old.ACLs[name]
		oldBySeq := make(map[int]netmodel.ACLEntry)
		if oa != nil {
			for _, e := range oa.Entries {
				oldBySeq[e.Seq] = e
			}
		}
		for _, e := range na.Entries {
			oe, ok := oldBySeq[e.Seq]
			if ok && oe == e {
				delete(oldBySeq, e.Seq)
				continue
			}
			if ok {
				// Replacement: remove then add.
				out = append(out, Change{Device: dev, Op: OpRemoveACLEntry, ACLName: name, Seq: e.Seq})
				delete(oldBySeq, e.Seq)
			}
			ee := e
			out = append(out, Change{Device: dev, Op: OpAddACLEntry, ACLName: name, Entry: &ee})
		}
		var stale []int
		for seq := range oldBySeq {
			stale = append(stale, seq)
		}
		sort.Ints(stale)
		for _, seq := range stale {
			out = append(out, Change{Device: dev, Op: OpRemoveACLEntry, ACLName: name, Seq: seq})
		}
	}
	for _, name := range old.ACLNames() {
		if new.ACLs[name] == nil {
			out = append(out, Change{Device: dev, Op: OpRemoveACL, ACLName: name})
		}
	}

	// Static routes.
	routeKey := func(r netmodel.StaticRoute) string {
		return fmt.Sprintf("%s|%s|%d", r.Prefix, r.NextHop, r.Distance)
	}
	oldRoutes := make(map[string]netmodel.StaticRoute)
	for _, r := range old.StaticRoutes {
		oldRoutes[routeKey(r)] = r
	}
	for _, r := range new.StaticRoutes {
		if _, ok := oldRoutes[routeKey(r)]; ok {
			delete(oldRoutes, routeKey(r))
			continue
		}
		rr := r
		out = append(out, Change{Device: dev, Op: OpAddStaticRoute, Route: &rr})
	}
	var staleRoutes []string
	for k := range oldRoutes {
		staleRoutes = append(staleRoutes, k)
	}
	sort.Strings(staleRoutes)
	for _, k := range staleRoutes {
		rr := oldRoutes[k]
		out = append(out, Change{Device: dev, Op: OpRemoveStaticRoute, Route: &rr})
	}

	// OSPF.
	switch {
	case old.OSPF == nil && new.OSPF != nil:
		out = append(out, Change{Device: dev, Op: OpSetOSPF, OSPF: new.OSPF.Clone()})
	case old.OSPF != nil && new.OSPF == nil:
		out = append(out, Change{Device: dev, Op: OpRemoveOSPF})
	case old.OSPF != nil && !reflect.DeepEqual(old.OSPF, new.OSPF):
		out = append(out, Change{Device: dev, Op: OpSetOSPF, OSPF: new.OSPF.Clone()})
	}

	// BGP.
	switch {
	case old.BGP == nil && new.BGP != nil:
		out = append(out, Change{Device: dev, Op: OpSetBGP, BGP: new.BGP.Clone()})
	case old.BGP != nil && new.BGP == nil:
		out = append(out, Change{Device: dev, Op: OpRemoveBGP})
	case old.BGP != nil && !reflect.DeepEqual(old.BGP, new.BGP):
		out = append(out, Change{Device: dev, Op: OpSetBGP, BGP: new.BGP.Clone()})
	}

	// VLANs.
	for _, id := range new.VLANIDs() {
		nv, ov := new.VLANs[id], old.VLANs[id]
		if ov == nil || *ov != *nv {
			vv := *nv
			out = append(out, Change{Device: dev, Op: OpSetVLAN, VLAN: &vv})
		}
	}
	for _, id := range old.VLANIDs() {
		if new.VLANs[id] == nil {
			out = append(out, Change{Device: dev, Op: OpRemoveVLAN, VLANID: id})
		}
	}

	// Default gateway.
	if old.DefaultGateway != new.DefaultGateway {
		out = append(out, Change{Device: dev, Op: OpSetGateway, Gateway: new.DefaultGateway})
	}
	return out
}

// DiffNetwork computes per-device changes across two snapshots of the same
// network (devices present only in one side are ignored: Heimdall tickets
// never add or remove devices). A device both sides share by pointer — a
// copy-on-write view the writer never touched — has no changes and is
// skipped without a diff.
func DiffNetwork(old, new *netmodel.Network) []Change {
	var out []Change
	for _, name := range old.DeviceNames() {
		od, nd := old.Devices[name], new.Devices[name]
		if nd == nil || nd == od {
			continue
		}
		out = append(out, DiffDevice(od, nd)...)
	}
	return out
}

// ApplyChange mutates the device according to the change. It returns an
// error when the change references state that does not exist.
func ApplyChange(d *netmodel.Device, c Change) error {
	if d.Name != c.Device {
		return fmt.Errorf("config: change for %s applied to %s", c.Device, d.Name)
	}
	switch c.Op {
	case OpAddInterface, OpSetInterface:
		d.Interfaces[c.Interface.Name] = c.Interface.Clone()
	case OpAddACLEntry:
		d.ACL(c.ACLName, true).InsertEntry(*c.Entry)
	case OpRemoveACLEntry:
		a := d.ACL(c.ACLName, false)
		if a == nil || !a.RemoveEntry(c.Seq) {
			return fmt.Errorf("config: %s: no entry %s seq %d", d.Name, c.ACLName, c.Seq)
		}
	case OpRemoveACL:
		if _, ok := d.ACLs[c.ACLName]; !ok {
			return fmt.Errorf("config: %s: no ACL %s", d.Name, c.ACLName)
		}
		delete(d.ACLs, c.ACLName)
	case OpAddStaticRoute:
		d.StaticRoutes = append(d.StaticRoutes, *c.Route)
	case OpRemoveStaticRoute:
		for i, r := range d.StaticRoutes {
			if r == *c.Route {
				d.StaticRoutes = append(d.StaticRoutes[:i], d.StaticRoutes[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("config: %s: no route %s via %s", d.Name, c.Route.Prefix, c.Route.NextHop)
	case OpSetOSPF:
		d.OSPF = c.OSPF.Clone()
	case OpRemoveOSPF:
		d.OSPF = nil
	case OpSetBGP:
		d.BGP = c.BGP.Clone()
	case OpRemoveBGP:
		d.BGP = nil
	case OpSetVLAN:
		v := *c.VLAN
		d.VLANs[v.ID] = &v
	case OpRemoveVLAN:
		if _, ok := d.VLANs[c.VLANID]; !ok {
			return fmt.Errorf("config: %s: no VLAN %d", d.Name, c.VLANID)
		}
		delete(d.VLANs, c.VLANID)
	case OpSetGateway:
		d.DefaultGateway = c.Gateway
	default:
		return fmt.Errorf("config: unknown op %v", c.Op)
	}
	return nil
}

// ApplyChanges applies every change to the network in order, stopping at
// the first error.
func ApplyChanges(n *netmodel.Network, changes []Change) error {
	for _, c := range changes {
		d := n.Devices[c.Device]
		if d == nil {
			return fmt.Errorf("config: change for unknown device %s", c.Device)
		}
		if err := ApplyChange(d, c); err != nil {
			return err
		}
	}
	return nil
}
