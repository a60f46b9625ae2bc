//go:build !race

package mcheck

// Allocation regression guard for the successor-generation hot path. The
// search's inner loop is Clone → Apply → encode; the flat-slice state
// layout keeps that to O(components) allocations per successor (one
// backing slice per cloned component plus a handful of fixed-count
// slices: route is shared, messages live in one arena, core loads in
// another, and the encode buffer is reused). The file is excluded under
// the race detector, whose instrumentation changes allocation counts;
// `make check` runs it in a separate uninstrumented pass.

import (
	"runtime"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// allocBudget is the per-successor ceiling for the 3-cache MESI
// configuration below (4 components, 3 cores). Measured ~18 on the flat
// layout; the pre-optimization map-based layout sat well above 60. Slack
// covers Go-version variance without masking a return to per-map clones.
const allocBudget = 30

func TestAllocRegressionCloneApplyEncode(t *testing.T) {
	p := protocols.MustByName(protocols.NameMESI)
	sys := NewHomogeneous(p, 3)
	progs := make([][]spec.CoreReq, 3)
	for i := range progs {
		progs[i] = []spec.CoreReq{
			{Op: spec.OpStore, Addr: 0, Value: 7},
			{Op: spec.OpLoad, Addr: 1},
		}
	}
	sys.SetPrograms(progs)
	// Step a few transitions in so caches, directory and channels are all
	// populated — an empty system would understate the clone cost.
	for i := 0; i < 6; i++ {
		moves := sys.Moves(false)
		if len(moves) == 0 {
			break
		}
		next := sys.Clone()
		if next.Apply(moves[0]) {
			sys = next
		}
	}
	moves := sys.Moves(false)
	if len(moves) == 0 {
		t.Fatal("system quiesced before the measurement point")
	}
	mv := moves[0]
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		next := sys.Clone()
		next.Apply(mv)
		buf = encodeState(next, EncodingBinary, buf[:0])
	})
	t.Logf("Clone+Apply+encode: %.1f allocs per successor", allocs)
	if allocs > allocBudget {
		t.Errorf("Clone+Apply+encode allocates %.1f per successor, budget %d — the flat state layout regressed",
			allocs, allocBudget)
	}
}

// TestAllocRegressionWSDeque guards the byte frontier's hand-off cycle:
// once its chunks are warm, appending records to a worker's FIFO, popping
// them, publishing half on the worker's deque for an idle sibling and
// taking them into the sibling's FIFO allocates nothing — records live in
// pointer-free chunks that are recycled, never allocated per state.
func TestAllocRegressionWSDeque(t *testing.T) {
	ctx := &searchCtx{}
	rec := make([]byte, 240)
	f := newWSFrontier(ctx, nil, 2, rec)
	var batch recSlab
	cycle := func() {
		q := f.take(0, &batch)
		for i := 0; i < 8; i++ {
			q.push(rec)
		}
		q.popFront()
		f.idle.Store(1)
		f.share(0, q)
		for _, ok := q.popFront(); ok; _, ok = q.popFront() {
		}
		stolen := f.take(1, &batch)
		for _, ok := stolen.popFront(); ok; _, ok = stolen.popFront() {
		}
		f.idle.Store(0)
		f.work.Add(1) // worker 1's take counted it busy; it idles again next cycle
		q.push(rec)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("byte-frontier push+pop+share+take cycle allocates %.1f, want 0", allocs)
	}
}

// exploreBytesBudget caps the heap bytes a one-worker Explore allocates
// per visited state on the MESI configuration below. Measured ~700 with
// the byte frontier, about 500 of them the exact visited set's own
// encodings; a frontier of heap Systems copied per admitted state cost
// ~1600.
const exploreBytesBudget = 1024

// TestAllocRegressionExploreBytes guards the search loop end to end: a
// one-worker Explore of a small homogeneous MESI system must stay under
// exploreBytesBudget allocated bytes per visited state, counting the
// frontier, the visited set, the cursor and every scratch buffer.
func TestAllocRegressionExploreBytes(t *testing.T) {
	build := func() *System {
		sys := NewHomogeneous(protocols.MustByName(protocols.NameMESI), 2)
		sys.SetPrograms([][]spec.CoreReq{
			{{Op: spec.OpStore, Addr: 0, Value: 1}, {Op: spec.OpLoad, Addr: 1}, {Op: spec.OpStore, Addr: 1, Value: 3}},
			{{Op: spec.OpStore, Addr: 1, Value: 2}, {Op: spec.OpLoad, Addr: 0}, {Op: spec.OpLoad, Addr: 1}},
		})
		return sys
	}
	opts := Options{Workers: 1, Evictions: true, POR: POROff}
	Explore(build(), opts) // warm lazily built protocol tables
	sys := build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := Explore(sys, opts)
	runtime.ReadMemStats(&after)
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.States)
	t.Logf("one-worker Explore: %d states, %.0f bytes allocated per state", res.States, perState)
	if res.States < 10_000 {
		t.Fatalf("only %d states — workload too small to measure", res.States)
	}
	if perState > exploreBytesBudget {
		t.Errorf("one-worker Explore allocates %.0f bytes per state, budget %d", perState, exploreBytesBudget)
	}
}
