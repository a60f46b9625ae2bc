package mcheck

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the memory-bounded visited-state storage engine:
//
//   - fpSet: a lock-free open-addressing table of 64-bit state fingerprints
//     (Stern & Dill's hash compaction) — CAS-based linear-probe inserts,
//     power-of-two capacity doubling under a stop-the-world rendezvous with
//     the worker pool, ~8–10 bytes per state with no shard mutexes on the
//     hot path.
//   - bloomSet: a fixed-size Bloom filter of k=3 bits per state (Holzmann's
//     bitstate / supertrace search) for runs whose state count exceeds even
//     a fingerprint table's budget.
//
// Both are lossy: two distinct states may collide, silently omitting part
// of the state space. storageStats carries the standard omission-probability
// estimates so results report how much to trust a "no deadlock" verdict,
// the way Murphi prints its omission probabilities.

// storageStats is the accounting snapshot a visited set reports at the end
// of a search.
type storageStats struct {
	mode       string  // "exact", "hash-compaction" or "bitstate"
	tableBytes int64   // memory held by the visited structure
	loadFactor float64 // final occupancy (table load or filter fill)
	peakLoad   float64 // highest observed occupancy
	omission   float64 // probability at least one state was omitted
}

// inserter is one worker's insertion handle into a visited set. Handles are
// not safe for concurrent use by multiple goroutines; each worker owns one.
type inserter interface {
	// Insert adds the state encoding and reports whether it was new.
	Insert(enc []byte) bool
	// Begin and End bracket one expansion's run of Inserts so a handle can
	// amortize per-probe synchronization across the whole batch (the
	// fingerprint table holds its growth-rendezvous flag open for the
	// window; the striped sets have nothing to amortize and no-op). An
	// Insert outside any window behaves as a window of one.
	Begin()
	End()
}

// visitedSet is the visited-state store shared by search workers.
type visitedSet interface {
	// handle returns worker w's insertion handle (w < the worker count the
	// set was created for).
	handle(w int) inserter
	// Size returns the number of distinct states inserted so far.
	Size() int
	// Full reports whether the store hit its memory budget and can no
	// longer accept states (the search must truncate).
	Full() bool
	// load returns the current occupancy in [0,1] (cheap; progress ticker).
	load() float64
	// stats returns the end-of-search accounting snapshot.
	stats() storageStats
	// release returns every byte the set acquired from a shared MemPool
	// (a no-op for unpooled sets); called once when the search ends.
	release()
}

// newVisited builds the visited set for the configured storage mode.
func newVisited(opts Options, workers int) visitedSet {
	switch {
	case opts.Bitstate:
		return newBloomSet(opts.MemBudget, opts.MemPool)
	case opts.HashCompaction:
		return newFPSet(opts.MemBudget, workers, opts.MemPool)
	default:
		return newExactSet()
	}
}

// sternDillOmission is the standard hash-compaction omission-probability
// bound for n states and 64-bit fingerprints: the chance that at least one
// state's fingerprint collided with another's, P ≈ 1 - exp(-n(n-1)/2^65)
// (Stern & Dill; Murphi prints the same estimate after compacted runs).
func sternDillOmission(n int64) float64 {
	if n < 2 {
		return 0
	}
	x := float64(n) * float64(n-1) / math.Exp2(65)
	return -math.Expm1(-x)
}

// ---------------------------------------------------------------------------
// Exact mode: the 64-shard mutex-striped map of full state encodings.

// visitedShards is the stripe count of the exact set. 64 stripes keep lock
// contention negligible for any worker count the search runs with.
const visitedShards = 64

// exactSlot is one open-addressing slot: the encoding's full 64-bit hash
// plus its position in the shard's arena. len == 0 marks an empty slot
// (state encodings are never empty — every component writes at least its
// id or a count).
type exactSlot struct {
	hash uint64
	off  uint32
	len  uint32
}

// exactShard is one mutex-striped stripe of the exact set: a power-of-two
// open-addressing table over a pointer-free byte arena. Compared to a
// map[string]struct{} this reuses the hash the stripe selector already
// computed (the runtime map would re-hash every ~250-byte key) and stores
// all encodings in one append-only allocation, so the garbage collector
// neither traces per-state strings nor scans the arena.
type exactShard struct {
	mu    sync.Mutex
	slots []exactSlot
	n     int
	arena []byte // all stored encodings, concatenated
	_     [24]byte
}

// exactSet stores complete state encodings — no omissions, memory grows
// with total encoding size. States are keyed by their compact binary
// encoding; the encoding's exactHash selects the stripe and probe start.
type exactSet struct {
	size     atomic.Int64
	encBytes atomic.Int64 // total bytes of stored encodings
	shards   [visitedShards]exactShard
}

func newExactSet() *exactSet { return &exactSet{} }

const exactInitSlots = 1024

// probeStart maps a hash to a slot index. The low six bits picked the
// shard, so they are constant within one stripe; probing starts from the
// bits above them.
func exactProbeStart(h uint64, mask uint64) uint64 { return (h >> 6) & mask }

func (s *exactShard) grow() {
	old := s.slots
	s.slots = make([]exactSlot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.len == 0 {
			continue
		}
		i := exactProbeStart(sl.hash, mask)
		for s.slots[i].len != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// Insert implements inserter. The set itself is the handle for every
// worker: shard mutexes make it safe for concurrent use.
func (v *exactSet) Insert(enc []byte) bool {
	h := exactHash(enc)
	s := &v.shards[h%visitedShards]
	s.mu.Lock()
	if s.slots == nil {
		s.slots = make([]exactSlot, exactInitSlots)
	}
	mask := uint64(len(s.slots) - 1)
	i := exactProbeStart(h, mask)
	for {
		sl := s.slots[i]
		if sl.len == 0 {
			break
		}
		if sl.hash == h && int(sl.len) == len(enc) &&
			bytes.Equal(s.arena[sl.off:sl.off+sl.len], enc) {
			s.mu.Unlock()
			return false
		}
		i = (i + 1) & mask
	}
	off := len(s.arena)
	if off+len(enc) > math.MaxUint32 {
		// 4 GiB of encodings in ONE of 64 stripes (~256 GiB total) is far
		// beyond any configuration this checker hosts.
		s.mu.Unlock()
		panic("mcheck: exact-set stripe arena exceeds 4 GiB")
	}
	s.arena = append(s.arena, enc...)
	s.slots[i] = exactSlot{hash: h, off: uint32(off), len: uint32(len(enc))}
	s.n++
	if 4*s.n >= 3*len(s.slots) {
		s.grow()
	}
	s.mu.Unlock()
	v.size.Add(1)
	v.encBytes.Add(int64(len(enc)))
	return true
}

// Begin/End implement the inserter batching hooks: the shard mutexes are
// already per-probe, there is no cross-worker rendezvous to amortize.
func (v *exactSet) Begin() {}
func (v *exactSet) End()   {}

func (v *exactSet) handle(int) inserter { return v }
func (v *exactSet) Size() int           { return int(v.size.Load()) }
func (v *exactSet) Full() bool          { return false }
func (v *exactSet) load() float64       { return 0 }
func (v *exactSet) release()            {} // exact mode is unpooled (see MemPool)

func (v *exactSet) stats() storageStats {
	slotBytes := int64(0)
	for i := range v.shards {
		v.shards[i].mu.Lock()
		slotBytes += int64(len(v.shards[i].slots)) * 16 // sizeof(exactSlot)
		v.shards[i].mu.Unlock()
	}
	return storageStats{
		mode:       "exact",
		tableBytes: v.encBytes.Load() + slotBytes,
	}
}

// ---------------------------------------------------------------------------
// Hash compaction: the lock-free fingerprint table.

const (
	// fpInitialSlots is the starting capacity (power of two).
	fpInitialSlots = 1 << 16
	// fpGrowLoad is the load factor that triggers capacity doubling.
	fpGrowLoad = 0.75
	// fpFullLoad is the load factor beyond which a table that can no
	// longer grow (memory budget) declares itself full: linear probing
	// degrades sharply past it.
	fpFullLoad = 0.9375
	// fpMaxProbe bounds an insert's probe run; a failure forces growth
	// (or fullness at the budget cap). Far beyond any plausible cluster
	// length at fpFullLoad occupancy.
	fpMaxProbe = 4096
	// fpDefaultMaxBytes caps table growth when no MemBudget is given:
	// effectively unbounded (MaxStates fires long before 8 GiB of
	// fingerprints — a billion states).
	fpDefaultMaxBytes = 8 << 30
)

// fpSlots is one immutable-capacity generation of the table. Slot value 0
// means empty; fingerprint 0 is remapped to 1 on insert (a benign extra
// collision in a 2^64 space).
type fpSlots struct {
	mask   uint64 // len(slots)-1
	growAt int64  // count that triggers doubling
	slots  []uint64
}

func newFPSlots(n int) *fpSlots {
	return &fpSlots{
		mask:   uint64(n - 1),
		growAt: int64(float64(n) * fpGrowLoad),
		slots:  make([]uint64, n),
	}
}

// insert CAS-inserts fingerprint fp. isNew reports first insertion; ok is
// false when the probe bound was exhausted (caller must grow or give up).
func (t *fpSlots) insert(fp uint64) (isNew, ok bool) {
	i := fp & t.mask
	for probe := 0; probe < fpMaxProbe; probe++ {
		v := atomic.LoadUint64(&t.slots[i])
		if v == fp {
			return false, true
		}
		if v == 0 {
			if atomic.CompareAndSwapUint64(&t.slots[i], 0, fp) {
				return true, true
			}
			// Lost the race for this slot: re-read it (the winner may have
			// written our fingerprint) without advancing the probe.
			i--
		}
		i = (i + 1) & t.mask
	}
	return false, false
}

// insertFresh inserts during a rehash: single-threaded, table large enough
// by construction.
func (t *fpSlots) insertFresh(fp uint64) {
	i := fp & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = fp
}

// fpHandle is one worker's insertion handle. Its padded inflight flag is
// how the grower rendezvouses with the worker pool: a worker raises it
// before reading the table pointer and lowers it after its CAS completes,
// so once the grower has flipped seq to odd and observed every handle at
// zero, no insert can be in flight against the old generation.
//
// Begin/End open a batched window: the flag is raised once and held across
// every Insert of one expansion instead of being raised and lowered per
// probe, halving the rendezvous stores on the hot path. The safety argument
// is unchanged — a grower cannot pass its drain wait while the flag is up,
// so every windowed insert lands in the old generation and is rehashed.
// Growth is delayed by at most the remainder of one expansion: an Insert
// that observes seq odd mid-window stands down (drops the flag, waits,
// re-raises against the new table), and a windowed Insert that must grow
// itself drops the flag around the grow call — the grower drains every
// handle, its own caller's included.
type fpHandle struct {
	s        *fpSet
	inflight atomic.Int64
	batched  bool     // owner-only: a Begin/End window is open
	_        [40]byte // pad handles apart: each is written by one worker
}

// Begin implements inserter by opening a batched probe window.
func (h *fpHandle) Begin() { h.batched = true; h.raise() }

// End implements inserter by closing the window.
func (h *fpHandle) End() { h.batched = false; h.inflight.Store(0) }

// raise publishes the inflight flag, waiting out any growth in progress: on
// return the flag is up and seq was observed even after it went up — the
// precondition the growth rendezvous relies on.
func (h *fpHandle) raise() {
	for {
		h.inflight.Store(1)
		if h.s.seq.Load()&1 == 0 {
			return
		}
		h.inflight.Store(0)
		for h.s.seq.Load()&1 != 0 {
			runtime.Gosched()
		}
	}
}

// pause drops a batched window's flag (before a grow call); resume re-arms
// it. Both no-op outside a window, where Insert manages the flag per probe.
func (h *fpHandle) pause() {
	if h.batched {
		h.inflight.Store(0)
	}
}

func (h *fpHandle) resume() {
	if h.batched {
		h.raise()
	}
}

// fpSet is the lock-free fingerprint table (hash-compaction mode).
//
// Insert protocol (per worker handle):
//
//	raise inflight → check seq even (else lower and back off) → load
//	table pointer → CAS-probe insert → lower inflight
//
// Growth protocol (any inserter that trips the load threshold; growMu
// serializes growers):
//
//	seq ++ (odd: new inserts back off) → wait for every handle's
//	inflight to drain → rehash into a ×2 table → swap pointer → seq ++
//
// Go's atomics are sequentially consistent, which makes the rendezvous
// airtight: an inserter that saw seq even after raising its flag is, in
// the total order, before the grower's flip — so the grower's drain wait
// cannot pass until that insert lands in the old table, and the rehash
// copies it. Every state is therefore claimed exactly once, which is what
// keeps compacted counts equal to exact counts (no lost or double-expanded
// states).
type fpSet struct {
	cur     atomic.Pointer[fpSlots]
	count   atomic.Int64
	seq     atomic.Uint64 // even: stable; odd: growth in progress
	full    atomic.Bool
	growMu  sync.Mutex
	maxLen  int      // slot-count cap from the memory budget
	peak    float64  // highest pre-growth load factor; guarded by growMu
	pool    *MemPool // shared accountant (nil = private budget only)
	pooled  int64    // bytes currently acquired from pool; guarded by growMu
	handles []fpHandle
}

func newFPSet(memBudget int64, workers int, pool *MemPool) *fpSet {
	maxBytes := memBudget
	if maxBytes <= 0 {
		maxBytes = fpDefaultMaxBytes
	}
	maxLen := fpInitialSlots
	for int64(maxLen)*2*8 <= maxBytes {
		maxLen *= 2
	}
	s := &fpSet{maxLen: maxLen, pool: pool, handles: make([]fpHandle, workers)}
	for i := range s.handles {
		s.handles[i].s = s
	}
	n := fpInitialSlots
	if n > maxLen {
		n = maxLen
	}
	// The initial table is small (512 KiB); if even that does not fit in a
	// shared pool, start anyway — the first growth will be denied and the
	// search truncates with BudgetFull rather than failing to start.
	if pool.Acquire(int64(n) * 8) {
		s.pooled = int64(n) * 8
	}
	s.cur.Store(newFPSlots(n))
	return s
}

// release implements visitedSet: hand the acquired bytes back to the pool.
func (s *fpSet) release() {
	s.growMu.Lock()
	s.pool.Release(s.pooled)
	s.pooled = 0
	s.growMu.Unlock()
}

func (s *fpSet) handle(w int) inserter { return &s.handles[w] }
func (s *fpSet) Size() int             { return int(s.count.Load()) }
func (s *fpSet) Full() bool            { return s.full.Load() }

func (s *fpSet) load() float64 {
	t := s.cur.Load()
	return float64(s.count.Load()) / float64(len(t.slots))
}

func (s *fpSet) stats() storageStats {
	s.growMu.Lock()
	peak := s.peak
	s.growMu.Unlock()
	t := s.cur.Load()
	lf := s.load()
	if lf > peak {
		peak = lf
	}
	return storageStats{
		mode:       "hash-compaction",
		tableBytes: int64(len(t.slots)) * 8,
		loadFactor: lf,
		peakLoad:   peak,
		omission:   sternDillOmission(s.count.Load()),
	}
}

// Insert implements inserter; h is owned by a single worker.
func (h *fpHandle) Insert(enc []byte) bool {
	s := h.s
	if s.full.Load() {
		// At the budget cap and effectively saturated: drop the state. The
		// search observes Full() and truncates.
		return false
	}
	fp := fnv64a(enc)
	if fp == 0 {
		fp = 1 // 0 is the empty-slot sentinel
	}
	for {
		if !h.batched {
			h.raise()
		} else if s.seq.Load()&1 != 0 {
			// A grower is waiting on this handle: stand down so it can run,
			// then re-arm the window against the new generation.
			h.inflight.Store(0)
			for s.seq.Load()&1 != 0 {
				runtime.Gosched()
			}
			h.raise()
		}
		t := s.cur.Load()
		isNew, ok := t.insert(fp)
		if !h.batched {
			h.inflight.Store(0)
		}
		if !ok {
			h.pause()
			s.grow(t, true)
			h.resume()
			if s.full.Load() {
				return false
			}
			continue
		}
		if isNew && s.count.Add(1) >= t.growAt {
			h.pause()
			s.grow(t, false)
			h.resume()
		}
		return isNew
	}
}

// grow doubles the table (stop-the-world rendezvous; see the type comment).
// probeFailed marks a caller whose insert could not find a slot: if the
// budget forbids growing further, the table is declared full.
func (s *fpSet) grow(old *fpSlots, probeFailed bool) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	cur := s.cur.Load()
	if cur != old {
		return // another worker already grew past this generation
	}
	if lf := float64(s.count.Load()) / float64(len(cur.slots)); lf > s.peak {
		s.peak = lf
	}
	if len(cur.slots) >= s.maxLen {
		if probeFailed || s.load() >= fpFullLoad {
			s.full.Store(true)
		}
		return
	}
	// Under a shared pool the doubled generation must fit in the global
	// accountant too: a denial is exactly the budget-cap case above — the
	// memory exists, other searches hold it.
	newBytes := int64(len(cur.slots)) * 2 * 8
	if !s.pool.Acquire(newBytes) {
		if probeFailed || s.load() >= fpFullLoad {
			s.full.Store(true)
		}
		return
	}
	s.seq.Add(1) // odd: fresh inserts back off
	for i := range s.handles {
		h := &s.handles[i]
		for h.inflight.Load() != 0 {
			runtime.Gosched()
		}
	}
	next := newFPSlots(len(cur.slots) * 2)
	for _, fp := range cur.slots {
		if fp != 0 {
			next.insertFresh(fp)
		}
	}
	s.cur.Store(next)
	s.seq.Add(1) // even: table stable again
	// The old generation is garbage now; return its bytes to the pool.
	oldBytes := int64(len(cur.slots)) * 8
	if s.pooled >= oldBytes {
		s.pool.Release(oldBytes)
		s.pooled -= oldBytes
	}
	s.pooled += newBytes
}

// ---------------------------------------------------------------------------
// Bitstate (supertrace): the Bloom-filter visited set.

const (
	// bloomK is the bits set per state (SPIN's default hash count).
	bloomK = 3
	// bloomDefaultBytes sizes the filter when no MemBudget is given.
	bloomDefaultBytes = 64 << 20
)

// bloomStripes is the lock-stripe count of bloomSet: inserts of the same
// state hash to the same stripe, so duplicate claims serialize; distinct
// states collide on a stripe with probability 1/bloomStripes.
const bloomStripes = 512

// bloomSet is a fixed-size Bloom filter over state fingerprints: bloomK
// bits per state via double hashing. Bit-sets are CAS (stripes share
// words), and a mutex stripe keyed by the state's fingerprint serializes
// concurrent inserts of the same state — otherwise two workers could each
// flip a different one of its bits, both report it new, and the state
// would be expanded twice (counts would drift between worker counts).
// Never "full": past its working capacity it degrades by omitting states,
// which the fill-based omission estimate exposes.
type bloomSet struct {
	words   []uint64
	mask    uint64 // bit-index mask; bit count is a power of two
	stripes [bloomStripes]sync.Mutex
	size    atomic.Int64
	setBits atomic.Int64
	pool    *MemPool
	pooled  int64
}

func newBloomSet(memBudget int64, pool *MemPool) *bloomSet {
	maxBytes := memBudget
	if maxBytes <= 0 {
		maxBytes = bloomDefaultBytes
	}
	bits := uint64(1 << 16) // 8 KiB floor
	for bits*2/8 <= uint64(maxBytes) {
		bits *= 2
	}
	// The filter is sized once up front, so a shared pool shapes it at
	// creation: halve until the accountant grants the bytes. Omission
	// grows with fill, so a smaller filter degrades accuracy, never
	// soundness of a reported deadlock. The 8 KiB floor is taken
	// unconditionally — accounting noise next to any real pool.
	b := &bloomSet{pool: pool}
	for bits > 1<<16 && !pool.Acquire(int64(bits/8)) {
		bits /= 2
	}
	if pool != nil {
		b.pooled = int64(bits / 8)
		if bits == 1<<16 && !pool.Acquire(b.pooled) {
			// Floor not grantable: account it anyway (forced overdraft).
			pool.used.Add(b.pooled)
		}
	}
	b.words = make([]uint64, bits/64)
	b.mask = bits - 1
	return b
}

// release implements visitedSet.
func (b *bloomSet) release() {
	b.pool.Release(b.pooled)
	b.pooled = 0
}

// splitmix64 is the SplitMix64 finalizer: mixes a fingerprint into an
// independent second hash for double hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Insert implements inserter; the set itself is every worker's handle
// (no per-worker state).
func (b *bloomSet) Insert(enc []byte) bool {
	h1 := fnv64a(enc)
	h2 := splitmix64(h1) | 1 // odd stride visits all bit positions
	mu := &b.stripes[h1&(bloomStripes-1)]
	mu.Lock()
	isNew := false
	for j := uint64(0); j < bloomK; j++ {
		idx := (h1 + j*h2) & b.mask
		w := &b.words[idx>>6]
		bit := uint64(1) << (idx & 63)
		for {
			old := atomic.LoadUint64(w)
			if old&bit != 0 {
				break
			}
			if atomic.CompareAndSwapUint64(w, old, old|bit) {
				isNew = true
				b.setBits.Add(1)
				break
			}
		}
	}
	mu.Unlock()
	if isNew {
		b.size.Add(1)
	}
	return isNew
}

// Begin/End implement the inserter batching hooks: filter inserts are
// stripe-locked per probe, nothing to amortize.
func (b *bloomSet) Begin() {}
func (b *bloomSet) End()   {}

func (b *bloomSet) handle(int) inserter { return b }
func (b *bloomSet) Size() int           { return int(b.size.Load()) }
func (b *bloomSet) Full() bool          { return false }

func (b *bloomSet) load() float64 {
	return float64(b.setBits.Load()) / float64(b.mask+1)
}

// stats estimates the bitstate omission probability from the final fill f:
// each visited state was falsely "already seen" with probability ≈ f^k, so
// P(≥1 omission) ≈ 1 - (1 - f^k)^n. (An upper-bound flavor of SPIN's hash-
// factor heuristic; exact per-insert fills were lower than the final f.)
func (b *bloomSet) stats() storageStats {
	n := b.size.Load()
	f := b.load()
	var om float64
	if n > 0 && f > 0 {
		om = -math.Expm1(float64(n) * math.Log1p(-math.Pow(f, bloomK)))
	}
	return storageStats{
		mode:       "bitstate",
		tableBytes: int64(len(b.words)) * 8,
		loadFactor: f,
		peakLoad:   f,
		omission:   om,
	}
}
