package spec

import (
	"fmt"
)

// DirLine is the per-address state a directory controller keeps. Sharers
// is a bitset value (see NodeSet) so lines clone by assignment.
type DirLine struct {
	State   State
	Sharers NodeSet
	Owner   NodeID
}

// dirEntry is one materialized line, kept in a slice sorted by address
// (same layout rationale as cacheEntry: clone is a memcpy, snapshot and
// binary encoding iterate in order without sorting).
type dirEntry struct {
	a Addr
	l DirLine
}

// DirInst executes a directory controller specification for one cluster.
// The backing Memory may be shared with other directories (the merged
// directory shares one LLC/memory across all clusters).
type DirInst struct {
	id    NodeID
	proto *Protocol
	mem   *Memory
	lines []dirEntry // sorted by address
	trace func(string)

	// onTransition, when set, observes every applied transition. The
	// fusion engine hooks this to intercept globally-visible writes and to
	// enumerate the merged FSM.
	onTransition func(a Addr, t *Transition, m *Msg)
}

// NewDirInst builds a directory for the protocol over the given memory.
func NewDirInst(id NodeID, proto *Protocol, mem *Memory) *DirInst {
	return &DirInst{id: id, proto: proto, mem: mem}
}

// SetTrace installs a trace sink.
func (d *DirInst) SetTrace(fn func(string)) { d.trace = fn }

// SetTransitionHook installs a transition observer.
func (d *DirInst) SetTransitionHook(fn func(a Addr, t *Transition, m *Msg)) { d.onTransition = fn }

// OwnedIDs implements Component.
func (d *DirInst) OwnedIDs() []NodeID { return []NodeID{d.id} }

// ID returns the directory's node id.
func (d *DirInst) ID() NodeID { return d.id }

// Protocol returns the protocol this directory runs.
func (d *DirInst) Protocol() *Protocol { return d.proto }

// Memory returns the backing memory.
func (d *DirInst) Memory() *Memory { return d.mem }

// initLine is the pristine line value for this directory's protocol.
func (d *DirInst) initLine() DirLine {
	return DirLine{State: d.proto.Dir.Init, Owner: NoNode}
}

// findLine binary-searches the sorted line slice for addr, returning the
// insertion index and whether the line is present. The checker holds a
// handful of lines; the performance simulator holds thousands, so lookup
// must not be linear.
func (d *DirInst) findLine(a Addr) (int, bool) {
	lo, hi := 0, len(d.lines)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.lines[mid].a < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.lines) && d.lines[lo].a == a
}

// lineAt returns the materialized line for addr, or nil.
func (d *DirInst) lineAt(a Addr) *DirLine {
	if i, ok := d.findLine(a); ok {
		return &d.lines[i].l
	}
	return nil
}

// lineRead returns the line value for addr without materializing (pure).
func (d *DirInst) lineRead(a Addr) DirLine {
	if l := d.lineAt(a); l != nil {
		return *l
	}
	return d.initLine()
}

// Line returns the directory line for addr (materialized on demand). The
// pointer is valid until the next materialization or compaction.
func (d *DirInst) Line(a Addr) *DirLine {
	i, ok := d.findLine(a)
	if ok {
		return &d.lines[i].l
	}
	d.lines = append(d.lines, dirEntry{})
	copy(d.lines[i+1:], d.lines[i:])
	d.lines[i] = dirEntry{a: a, l: d.initLine()}
	return &d.lines[i].l
}

// LineState returns the directory state for addr (pure).
func (d *DirInst) LineState(a Addr) State {
	if l := d.lineAt(a); l != nil {
		return l.State
	}
	return d.proto.Dir.Init
}

// Stable reports whether every directory line is in a stable state.
func (d *DirInst) Stable() bool {
	for i := range d.lines {
		if !d.proto.Dir.IsStable(d.lines[i].l.State) {
			return false
		}
	}
	return true
}

// compact drops lines that are back to the pristine initial state so
// snapshots stay canonical.
func (d *DirInst) compact() {
	init := d.initLine()
	kept := d.lines[:0]
	for i := range d.lines {
		if d.lines[i].l != init {
			kept = append(kept, d.lines[i])
		}
	}
	d.lines = kept
}

// compactAt drops the line at a if it is back to the pristine initial
// state. Apply only mutates the line it was handed, so checking that one
// line is equivalent to the full compact scan (and O(log n) rather than
// O(n) for the simulator's thousands of lines).
func (d *DirInst) compactAt(a Addr) {
	if i, ok := d.findLine(a); ok && d.lines[i].l == d.initLine() {
		d.lines = append(d.lines[:i], d.lines[i+1:]...)
	}
}

// Lookup returns the transition this directory would take for the message
// in its current state, or nil if it would stall. No state is modified.
func (d *DirInst) Lookup(m *Msg) *Transition {
	line := d.lineRead(m.Addr)
	ctx := MsgCtx{
		IsOwner:      m.Src == line.Owner,
		IsLastSharer: line.Sharers.Len() == 1 && line.Sharers.Has(m.Src),
	}
	return d.proto.Dir.OnMessage(line.State, m, ctx)
}

// Deliver implements Component.
func (d *DirInst) Deliver(env Env, m Msg) bool {
	t := d.Lookup(&m)
	if t == nil {
		return false
	}
	d.Apply(env, m.Addr, d.Line(m.Addr), t, &m)
	return true
}

// Apply executes a directory transition (exported for the merged directory,
// which drives sub-directories directly when bridging).
func (d *DirInst) Apply(env Env, a Addr, line *DirLine, t *Transition, m *Msg) {
	if d.trace != nil {
		d.trace(fmt.Sprintf("dir%d a%d %s --%s--> %s", d.id, a, t.From, t.On, t.Next))
	}
	for _, act := range t.Actions {
		switch act.Op {
		case ActSend:
			d.send(env, a, line, act, m)
		case ActInvSharers:
			d.invSharers(env, a, line, act, m)
		case ActAddSharer:
			line.Sharers.Add(m.Src)
		case ActOwnerToSharers:
			if line.Owner != NoNode {
				line.Sharers.Add(line.Owner)
			}
		case ActRemoveSharer:
			line.Sharers.Remove(m.Src)
		case ActClearSharers:
			line.Sharers.Clear()
		case ActSetOwner:
			line.Owner = m.Src
		case ActClearOwner:
			line.Owner = NoNode
		case ActWriteMem:
			if m != nil && m.HasData {
				d.mem.Write(a, m.Data)
			}
		default:
			panic(fmt.Sprintf("spec: directory %s executing non-directory action %s", d.proto.Name, act))
		}
	}
	line.State = t.Next
	if d.onTransition != nil {
		d.onTransition(a, t, m)
	}
	d.compactAt(a)
}

// ackCount returns the number of sharers excluding the requestor.
func ackCount(line *DirLine, req NodeID) int {
	n := line.Sharers.Len()
	if line.Sharers.Has(req) {
		n--
	}
	return n
}

func (d *DirInst) send(env Env, a Addr, line *DirLine, act Action, m *Msg) {
	out := Msg{Type: act.Msg, Addr: a, Src: d.id, VNet: d.proto.VNetOf(act.Msg)}
	switch act.Dst {
	case ToMsgSrc:
		out.Dst, out.Req = m.Src, m.Req
	case ToMsgReq:
		out.Dst, out.Req = m.Req, m.Req
	case ToOwner:
		if line.Owner == NoNode {
			Fault(env, fmt.Errorf("spec: directory %s forwards %s to absent owner in state %s", d.proto.Name, act.Msg, line.State))
			return
		}
		out.Dst, out.Req = line.Owner, m.Req
	default:
		Fault(env, fmt.Errorf("spec: directory %s cannot send %s to %s", d.proto.Name, act.Msg, act.Dst))
		return
	}
	if act.ReqFromMsgSrc {
		out.Req = m.Src
	}
	switch act.Payload {
	case PayloadMem:
		out.Data, out.HasData = d.mem.Read(a), true
	case PayloadMsg:
		if m != nil {
			out.Data, out.HasData = m.Data, true
		}
	}
	if act.AckFromSharers {
		out.Ack = ackCount(line, m.Req)
	}
	env.Send(out)
}

// invSharers sends the invalidation message to every sharer except the
// requestor; acks flow to the requestor (carried in Req). NodeSet iterates
// in ascending id order, so send order is deterministic.
func (d *DirInst) invSharers(env Env, a Addr, line *DirLine, act Action, m *Msg) {
	req := m.Req
	vnet := d.proto.VNetOf(act.Msg)
	line.Sharers.Each(func(s NodeID) {
		if s != req {
			env.Send(Msg{Type: act.Msg, Addr: a, Src: d.id, Dst: s, Req: req, VNet: vnet})
		}
	})
}

// Clone implements Component.
func (d *DirInst) Clone() Component { return d.CloneDir(d.mem.Clone()) }

// CloneWithMemory clones the directory onto an externally cloned shared
// memory (hosts that snapshot the memory separately use this so the copy
// stays connected).
func (d *DirInst) CloneWithMemory(mem *Memory) Component { return d.CloneDir(mem) }

// CloneDir deep-copies the directory onto the given memory (callers that
// share memory across directories clone the memory once and pass it to
// each).
func (d *DirInst) CloneDir(mem *Memory) *DirInst {
	cp := &DirInst{id: d.id, proto: d.proto, mem: mem, onTransition: d.onTransition}
	if len(d.lines) > 0 {
		cp.lines = append(make([]dirEntry, 0, len(d.lines)), d.lines...)
	}
	return cp
}

// Snapshot implements Component (memory is snapshotted separately by the
// host, since it may be shared).
func (d *DirInst) Snapshot(b *SnapshotWriter) {
	fmt.Fprintf(b, "dir%d{", d.id)
	for i := range d.lines {
		l := &d.lines[i].l
		sh := make([]int, 0, l.Sharers.Len())
		l.Sharers.Each(func(s NodeID) { sh = append(sh, int(s)) })
		fmt.Fprintf(b, "a%d:%s,o%d,s%v;", d.lines[i].a, l.State, l.Owner, sh)
	}
	b.WriteString("}")
}
