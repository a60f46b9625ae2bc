//go:build !race

package core

// Allocation regression guard for the extraction hit path. Once a
// (state, message) pair is in the growing table, the table-index
// directory must replay it — recorded sends, the successor's memory image,
// the new state index — without allocating: no directory is decoded or
// encoded, and the memory image decodes through a stack cursor into the
// cursor's existing cells. A regression here multiplies across the
// millions of deliveries the §VII-C extraction replays. Excluded under the
// race detector (instrumentation changes alloc counts); `make check` runs
// it in a separate uninstrumented pass.

import (
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// memoHitBudget is the per-delivery ceiling for a memo hit whose recorded
// transition installs a memory image, plus the test's own restore of the
// state register and memory.
const memoHitBudget = 0

func TestAllocRegressionMemoObserve(t *testing.T) {
	f := fusePair(t, protocols.NameMSI, protocols.NameRCC)
	cfg := TableIICompileConfig(true, 1)
	base, err := Compile(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A transition that changes memory, from the finished table.
	pre, ei := -1, int32(-1)
	for s := 0; s < len(base.states) && pre < 0; s++ {
		for i := base.stateOff[s]; i < base.stateOff[s+1]; i++ {
			if base.entries[i].remem {
				pre, ei = s, i
				break
			}
		}
	}
	if pre < 0 {
		t.Fatal("table has no memory-changing transition to replay")
	}
	m := base.entries[ei].msg
	preImg := base.states[pre]

	// A fresh extraction table holding that pre-state: the pair is
	// interpreted once below, then every measured delivery is a memo hit.
	cf, sys := newCompiledFusion(f, cfg)
	c := newCompiler(cf, cfg)
	sh := cf.layout.Merged.CloneWithMemory(spec.NewMemory()).(*MergedDir)
	if err := sh.DecodeState(spec.NewDec(preImg.spill)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Memory().DecodeState(spec.NewDec(preImg.mem)); err != nil {
		t.Fatal(err)
	}
	idx := c.intern(sh)
	d := c.root(sys.Mem)
	var dec spec.Dec
	restore := func() {
		d.cur = idx
		dec.Reset(preImg.mem)
		if err := d.mem.DecodeState(&dec); err != nil {
			t.Fatal(err)
		}
	}
	env := spec.EnvFunc(func(spec.Msg) {})
	restore()
	if !d.Deliver(env, m) {
		t.Fatalf("delivery of %s unexpectedly stalled", m)
	}
	if e := c.tab.at(idx).lookup(&m); c.interpreted != 1 || e == nil || !e.tr.remem {
		t.Fatalf("first delivery: %d interpreted, entry %v — want one interpreted memory-changing record", c.interpreted, e)
	}
	restore()

	allocs := testing.AllocsPerRun(200, func() {
		d.Deliver(env, m)
		restore()
	})
	if d.hits < 200 || c.interpreted != 1 {
		t.Fatalf("measured loop ran the interpreter (%d memo hits, %d interpreted)", d.hits, c.interpreted)
	}
	t.Logf("memo hit with memory image + restore: %.1f allocs per delivery", allocs)
	if allocs > memoHitBudget {
		t.Errorf("memo-hit replay allocates %.1f per delivery, budget %d — the extraction fast path regressed",
			allocs, memoHitBudget)
	}
}
