package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"heterogen/internal/spec"
)

// Extraction through a growing table. CompileCtx swaps the searched
// system's merged directory for an extractDir: a tableReg (the CompiledDir
// layout) over the compiler's growing table of interned (directory state,
// memory) pairs. Within one extraction the index and the pair are in
// bijection, so the checker keys, spills and restores the directory as the
// varint index alone and still tells apart exactly the states it did with
// the full encoding. A hit is a lock-free lookup plus tableReg.step; only a
// miss takes the compiler mutex and interprets, on a shadow MergedDir
// decoded from the state's spill image.

// compTransition is one recorded outcome: the successor state, the
// messages the interpreted deliver sent (replayed in order), and whether
// the shared memory changed (the successor's memory image is installed
// wholesale).
type compTransition struct {
	next  int32
	sends []spec.Msg
	remem bool
}

// compRecord is one recorded transition.
type compRecord struct {
	pre int32
	msg spec.Msg
	tr  compTransition
}

// xState is one interned state during extraction: its compState images,
// the warm seed's index for it (-1 when the seed never saw it), and its
// recorded transitions — a message-sorted list replaced copy-on-write
// under compiler.mu and read lock-free by hits.
type xState struct {
	compState
	seed int32
	out  atomic.Pointer[[]compRecord]
}

// lookup returns the recorded transition of the state on m, or nil.
func (st *xState) lookup(m *spec.Msg) *compRecord {
	p := st.out.Load()
	if p == nil {
		return nil
	}
	out := *p
	lo, hi := 0, len(out)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := msgCmp(m, &out[mid].msg)
		if c == 0 {
			return &out[mid]
		}
		if c < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return nil
}

// add publishes a new record (caller holds compiler.mu; r.msg is unrecorded).
func (st *xState) add(r compRecord) {
	var out []compRecord
	if p := st.out.Load(); p != nil {
		out = *p
	}
	i, _ := slices.BinarySearchFunc(out, r.msg, func(e compRecord, m spec.Msg) int { return msgCmp(&e.msg, &m) })
	out = slices.Insert(slices.Clip(out), i, r)
	st.out.Store(&out)
}

const stateChunkBits = 10

type stateChunk [1 << stateChunkBits]xState

// stateTab is the extraction's growing state table: fixed-size chunks
// behind an atomically replaced chunk list, so a published state never
// moves and readers index it without a lock while misses append under
// compiler.mu.
type stateTab struct {
	chunks atomic.Pointer[[]*stateChunk]
	n      atomic.Int32
}

// at returns state i, which must have been published.
func (t *stateTab) at(i int32) *xState {
	return &(*t.chunks.Load())[i>>stateChunkBits][i&(1<<stateChunkBits-1)]
}

// grow appends a zero state and returns its index and slot (caller holds
// compiler.mu and fills the slot before publishing the index).
func (t *stateTab) grow() (int32, *xState) {
	i := t.n.Load()
	var chunks []*stateChunk
	if p := t.chunks.Load(); p != nil {
		chunks = *p
	}
	if int(i>>stateChunkBits) == len(chunks) {
		chunks = append(chunks[:len(chunks):len(chunks)], new(stateChunk))
		t.chunks.Store(&chunks)
	}
	t.n.Store(i + 1)
	return i, t.at(i)
}

// compiler is the extraction's growing transition table, shared by every
// extractDir clone of the searched system.
type compiler struct {
	cf   *CompiledFusion
	tab  stateTab
	memo bool // replay recorded pairs instead of re-interpreting
	seed *WarmSeed

	// mu serializes misses; everything below is guarded by it.
	mu       sync.Mutex
	keys     map[string]int32 // interned enc++mem -> state index
	keyBuf   []byte
	spillBuf []byte
	dirs     []*extractDir // every clone, for the memo-hit count

	interpreted int64 // deliveries that ran the interpreted MergedDir
	warmHits    int64 // deliveries replayed from the warm seed
	err         error
}

// newCompiler builds the extraction table for cf, interning the initial
// directory state as index 0 (CompiledDir starts there).
func newCompiler(cf *CompiledFusion, cfg CompileConfig) *compiler {
	c := &compiler{cf: cf, keys: map[string]int32{}, memo: !cfg.NoMemo, seed: cfg.WarmSeed}
	c.intern(cf.layout.Merged)
	return c
}

// root returns the extraction directory at the initial state over mem.
func (c *compiler) root(mem *spec.Memory) *extractDir {
	d := &extractDir{tableReg: tableReg{mem: mem}, c: c}
	c.dirs = append(c.dirs, d)
	return d
}

// drain hands the finished extraction to finalize: the interned states as
// CompiledFusion.states and every recorded transition, in state order.
func (c *compiler) drain() []compRecord {
	n := c.tab.n.Load()
	c.cf.states = make([]compState, n)
	var recs []compRecord
	for i := int32(0); i < n; i++ {
		st := c.tab.at(i)
		c.cf.states[i] = st.compState
		if p := st.out.Load(); p != nil {
			recs = append(recs, *p...)
		}
	}
	return recs
}

// step applies a recorded outcome to d.
func (c *compiler) step(d *extractDir, env spec.Env, tr compTransition) bool {
	var img []byte
	if tr.remem {
		img = c.tab.at(tr.next).mem
	}
	return d.step(env, tr.next, tr.sends, img)
}

// miss delivers m to d when the lock-free probe found no recorded entry
// (or memoization is off). Under the mutex it re-checks the table — another
// worker may have recorded the pair meanwhile, so each pair is resolved
// exactly once — then resolves the pair from the warm seed, decoding the
// seed's successor images into d's shadow, or by interpreting the delivery
// on the shadow; it interns the successor, records the outcome and steps
// through it like a hit. Seed matching is by exact (encoding, memory)
// bytes plus the message, so a seed hit replays the very transition this
// configuration would interpret: the merged directory's transition
// function does not depend on the driver programs a compatible seed may
// differ in.
func (c *compiler) miss(d *extractDir, env spec.Env, m spec.Msg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	pre := d.cur
	st := c.tab.at(pre)
	if r := st.lookup(&m); r != nil && c.memo {
		d.hits++
		return c.step(d, env, r.tr)
	}
	var sh *MergedDir
	var sends []spec.Msg
	var err error
	ok := false
	if e := c.seed.entry(st.seed, m); e != nil {
		c.warmHits++
		if ok = e.next != stallState; ok {
			sends = c.seed.sends[e.sendOff : e.sendOff+e.sendLen : e.sendOff+e.sendLen]
			if sh, err = d.materialize(c.seed.spills[e.next]); err == nil {
				err = d.mem.DecodeState(spec.NewDec(c.seed.mems[e.next]))
			}
		}
	} else {
		c.interpreted++
		if sh, err = d.materialize(st.spill); err == nil {
			var se shadowEnv
			ok, sends = sh.deliver(&se, m), se.sends
			if se.fault != nil {
				spec.Fault(env, se.fault)
				return false
			}
		}
	}
	if err != nil {
		spec.Fault(env, fmt.Errorf("core: extraction state %d on %s: stored image undecodable: %w", pre, m, err))
		return false
	}
	tr := compTransition{next: stallState}
	if ok {
		post := c.intern(sh)
		tr = compTransition{next: post, sends: sends, remem: !bytes.Equal(st.mem, c.tab.at(post).mem)}
	} else if len(sends) > 0 && c.err == nil {
		// A stalled delivery must be effect-free: the checker discards the
		// stalled move, so a send here would be unreplayable.
		c.err = fmt.Errorf("core: stalled delivery of %s sent %d messages during compile", m, len(sends))
	}
	c.record(st, compRecord{pre: pre, msg: m, tr: tr})
	return c.step(d, env, tr)
}

// shadowEnv collects the sends of an interpreted shadow delivery and the
// first fault a constituent controller reported during it.
type shadowEnv struct {
	sends []spec.Msg
	fault error
}

func (e *shadowEnv) Send(m spec.Msg) { e.sends = append(e.sends, m) }

func (e *shadowEnv) Fault(err error) {
	if e.fault == nil {
		e.fault = err
	}
}

// entry returns the seed's recorded entry for seed state si on m, or nil
// (also for a nil seed or an unseen state).
func (s *WarmSeed) entry(si int32, m spec.Msg) *compEntry {
	if s == nil || si < 0 {
		return nil
	}
	return findEntry(s.entries[s.stateOff[si]:s.stateOff[si+1]], &m)
}

// intern returns the index of the directory's current (state, memory)
// pair, creating the state on first sight. A pair seen before must carry
// the same exact spill image: two distinct directory states under one key
// mean the binary encoding is not injective over reachable states, and the
// table-index directory would silently merge them. Snapshots are not
// captured here; CompiledFusion.snapshot rebuilds them from the spill
// image on demand.
func (c *compiler) intern(d *MergedDir) int32 {
	c.keyBuf = d.AppendBinary(c.keyBuf[:0])
	split := len(c.keyBuf)
	c.keyBuf = d.Memory().AppendBinary(c.keyBuf)
	c.spillBuf = d.AppendState(c.spillBuf[:0])
	if idx, ok := c.keys[string(c.keyBuf)]; ok {
		if !bytes.Equal(c.spillBuf, c.tab.at(idx).spill) && c.err == nil {
			c.err = fmt.Errorf("core: two directory states share interned state %d — binary state encoding is not injective over reachable states", idx)
		}
		return idx
	}
	idx, st := c.tab.grow()
	st.enc = append([]byte(nil), c.keyBuf[:split]...)
	st.mem = append([]byte(nil), c.keyBuf[split:]...)
	st.spill = append([]byte(nil), c.spillBuf...)
	st.refs = d.RefNodes()
	if len(c.cf.perms) > 1 {
		st.relab = make([][]byte, len(c.cf.perms))
		st.relab[0] = st.enc
		for i := 1; i < len(c.cf.perms); i++ {
			st.relab[i] = d.AppendBinaryRelabeled(nil, c.cf.perms[i])
		}
	}
	st.seed = -1
	if c.seed != nil {
		if v, ok := c.seed.keys[string(c.keyBuf)]; ok {
			st.seed = v
		}
	}
	c.keys[string(c.keyBuf)] = idx
	return idx
}

// record stores (or re-verifies) one transition. The conflicting-outcome
// check only fires under NoMemo — with memoization on a recorded pair
// replays before reaching record.
func (c *compiler) record(st *xState, r compRecord) {
	if e := st.lookup(&r.msg); e != nil {
		if !sameTransition(e.tr, r.tr) && c.err == nil {
			c.err = fmt.Errorf("core: state %d on %s recorded two different outcomes — binary state encoding is not injective over reachable states", r.pre, r.msg)
		}
		return
	}
	st.add(r)
}

// sameTransition compares two table entries field by field.
func sameTransition(a, b compTransition) bool {
	return a.next == b.next && a.remem == b.remem && slices.Equal(a.sends, b.sends)
}

// extractDir is the table-index directory the extraction search runs: a
// tableReg over the compiler's growing table plus, materialized on the
// clone's first miss, a shadow MergedDir to interpret misses on. Each
// search worker's cursor is its own clone, so shadows and hit counters are
// never shared.
type extractDir struct {
	tableReg
	c      *compiler
	shadow *MergedDir
	hits   int64 // memo hits served by this clone
}

// Deliver implements spec.Component: a recorded pair steps through the
// table; anything else goes to compiler.miss.
func (d *extractDir) Deliver(env spec.Env, m spec.Msg) bool {
	if d.c.memo {
		if r := d.c.tab.at(d.cur).lookup(&m); r != nil {
			d.hits++
			return d.c.step(d, env, r.tr)
		}
	}
	return d.c.miss(d, env, m)
}

// materialize decodes an exact spill image into d's shadow directory,
// which shares d's memory (already the state's memory image).
func (d *extractDir) materialize(spill []byte) (*MergedDir, error) {
	if d.shadow == nil {
		d.shadow = d.c.cf.layout.Merged.CloneWithMemory(d.mem).(*MergedDir)
	}
	return d.shadow, d.shadow.DecodeState(spec.NewDec(spill))
}

// OwnedIDs implements spec.Component.
func (d *extractDir) OwnedIDs() []spec.NodeID { return d.c.cf.owned }

// Clone implements spec.Component.
func (d *extractDir) Clone() spec.Component { return d.CloneWithMemory(d.mem.Clone()) }

// CloneWithMemory implements mcheck.MemoryCloner.
func (d *extractDir) CloneWithMemory(mem *spec.Memory) spec.Component {
	cp := &extractDir{tableReg: tableReg{cur: d.cur, mem: mem}, c: d.c}
	d.c.mu.Lock()
	d.c.dirs = append(d.c.dirs, cp)
	d.c.mu.Unlock()
	return cp
}

// Snapshot implements spec.Component with the interpreted snapshot.
func (d *extractDir) Snapshot(b *spec.SnapshotWriter) {
	b.WriteString(d.c.cf.snapshot(d.cur, &d.c.tab.at(d.cur).compState))
}

// AppendBinary implements spec.BinaryAppender: the state index alone.
func (d *extractDir) AppendBinary(buf []byte) []byte { return d.AppendState(buf) }

// DecodeState implements spec.StateCodec.
func (d *extractDir) DecodeState(dec *spec.Dec) error {
	return d.decode(dec, int(d.c.tab.n.Load()))
}

// RefNodes implements spec.NodeReferrer.
func (d *extractDir) RefNodes() spec.NodeSet { return d.c.tab.at(d.cur).refs }

var (
	_ spec.Component      = (*extractDir)(nil)
	_ spec.BinaryAppender = (*extractDir)(nil)
	_ spec.NodeReferrer   = (*extractDir)(nil)
)
