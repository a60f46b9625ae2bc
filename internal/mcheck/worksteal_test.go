package mcheck

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"heterogen/internal/protocols"
)

// TestWorkStealingDeterminism pins the work-stealing frontier's core
// contract: a non-truncated search visits the same state set — identical
// counts, deadlocks and outcome sets — at every worker count, over both
// the in-memory deques and the disk-spilling variant. Workers ∈ {2,4,8}
// all exceed this runner's core count, so the schedule interleavings the
// test sees include heavy steal traffic, not just one deque per core.
func TestWorkStealingDeterminism(t *testing.T) {
	baseline := exploreWith(t, sb(), 1, Options{Evictions: true, POR: POROff})
	bk := baseline.Outcomes.Keys()
	sort.Strings(bk)

	for _, workers := range []int{2, 4, 8} {
		for _, spill := range []bool{false, true} {
			name := fmt.Sprintf("w%d", workers)
			opts := Options{Evictions: true, POR: POROff}
			if spill {
				name += "+spill"
				opts.SpillDir = t.TempDir()
				opts.SpillRing = 128 // tiny ring: overflow into wave files
			}
			t.Run(name, func(t *testing.T) {
				res := exploreWith(t, sb(), workers, opts)
				if res.States != baseline.States {
					t.Errorf("visited %d states, sequential baseline %d", res.States, baseline.States)
				}
				if res.Transitions != baseline.Transitions {
					t.Errorf("applied %d transitions, baseline %d", res.Transitions, baseline.Transitions)
				}
				if res.Deadlocks != baseline.Deadlocks {
					t.Errorf("found %d deadlocks, baseline %d", res.Deadlocks, baseline.Deadlocks)
				}
				rk := res.Outcomes.Keys()
				sort.Strings(rk)
				if strings.Join(rk, "\n") != strings.Join(bk, "\n") {
					t.Errorf("outcome sets differ:\ngot:      %v\nbaseline: %v", rk, bk)
				}
				if spill {
					if err := CheckSpillBound(res, 128, workers); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// recs builds n distinct records.
func recs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("rec-%05d", i))
	}
	return out
}

// drain pops every record of s.
func drain(s *recSlab) []string {
	var out []string
	for rec, ok := s.popFront(); ok; rec, ok = s.popFront() {
		out = append(out, string(rec))
	}
	return out
}

// TestWSDequeMechanics exercises the frontier's in-memory hand-offs: a
// worker expands its own FIFO in place; while a sibling is idle, share
// publishes the older half of it on the worker's deque (once, until
// taken); takes move the oldest half of a deque, rounded up, into the
// taker's empty FIFO; and repeated cycles reuse chunks instead of growing.
func TestWSDequeMechanics(t *testing.T) {
	ctx := &searchCtx{}
	all := recs(10)
	f := newWSFrontier(ctx, nil, 2, all[0])
	var batch recSlab
	q := f.take(0, &batch)
	if q != &f.local[0] || q.n != 1 {
		t.Fatal("first take did not hand worker 0 its own FIFO holding the root")
	}
	q.popFront()
	for _, r := range all[1:] {
		q.push(r)
	}
	f.share(0, q)
	if f.deques[0].recs.n != 0 {
		t.Fatal("share published work with no sibling idle")
	}
	f.idle.Store(1)
	f.share(0, q)
	f.share(0, q)
	f.idle.Store(0)
	if f.deques[0].recs.n != 4 || q.n != 5 {
		t.Fatalf("share published %d records and kept %d, want the older 4 of 9, once", f.deques[0].recs.n, q.n)
	}
	if stolen := f.take(1, &batch); stolen != &f.local[1] || strings.Join(drain(stolen), ",") != "rec-00001,rec-00002" {
		t.Fatal("an idle worker did not take the oldest half of its sibling's deque into its own FIFO")
	}
	if got := f.work.Load(); got != 4 {
		t.Fatalf("work = %d, want 2 published records + 2 busy workers", got)
	}

	var d byteDeque
	for _, r := range all {
		d.recs.push(r)
	}
	if k := d.take(&batch); k != 5 {
		t.Fatalf("take moved %d of 10, want 5", k)
	}
	if got := drain(&batch); len(got) != 5 || got[0] != "rec-00000" || got[4] != "rec-00004" {
		t.Fatalf("take got %v, want the oldest 5 in order", got)
	}
	batch.reset()
	if k := d.take(&batch); k != 3 {
		t.Fatalf("take moved %d of 5, want 3", k)
	}
	batch.reset()

	// Records many chunks wide survive a move that spans chunks.
	var big recSlab
	wide := bytes.Repeat([]byte{'x'}, slabChunkBytes/3)
	for i := 0; i < 7; i++ {
		big.push(append([]byte{byte(i)}, wide...))
	}
	var got recSlab
	big.moveFront(&got, 5)
	for i := 0; i < 5; i++ {
		rec, _ := got.popFront()
		if rec[0] != byte(i) || len(rec) != len(wide)+1 {
			t.Fatalf("cross-chunk move returned record %d (len %d), want %d", rec[0], len(rec), i)
		}
	}
	if rest := drain(&big); len(rest) != 2 || rest[1][0] != 6 {
		t.Fatalf("cross-chunk move left %d records", len(rest))
	}

	// Push/take cycles recycle chunks rather than accumulating them.
	var d2 byteDeque
	for i := 0; i < 20000; i++ {
		d2.recs.push(all[i%10])
		d2.recs.push(all[i%10])
		batch.reset()
		d2.take(&batch)
		d2.take(&batch)
	}
	if n := len(d2.recs.chunks); n > 2 {
		t.Fatalf("drained deque still holds %d chunks", n)
	}
}

// TestWSByteDequeOverflow pins the spill frontier's batch contract: a
// spilling worker's admitted records move, in order, to the spill queue
// whenever they fill a batch, and take refills at most maxBatch records at
// a time from the queue's head, so the frontier stays one FIFO.
func TestWSByteDequeOverflow(t *testing.T) {
	ctx := &searchCtx{}
	q, err := newRecQueue(Options{SpillDir: t.TempDir(), SpillRing: 2 * maxBatch}, &ctx.stats)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	all := recs(3 * maxBatch)
	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	f := newWSFrontier(ctx, q, 1, all[0])
	var sc expandScratch
	for i := 1; i < maxBatch-1; i++ {
		f.local[0].push(all[i])
	}
	if q.len() != 0 {
		t.Fatalf("%d records reached the queue below a batch", q.len())
	}
	f.admit(0, &sc, sys) // the maxBatch-th admitted record
	if q.len() != maxBatch || f.local[0].n != 0 {
		t.Fatalf("a full batch of admitted records moved %d, kept %d; want %d, 0", q.len(), f.local[0].n, maxBatch)
	}
	for _, r := range all[maxBatch:] {
		f.local[0].push(r)
	}
	var batch recSlab
	for i := 0; i < len(all); {
		b := f.take(0, &batch)
		if b != &batch {
			t.Fatalf("take ran dry after %d records", i)
		}
		if b.n > maxBatch {
			t.Fatalf("take refilled %d records, cap %d", b.n, maxBatch)
		}
		for rec, ok := b.popFront(); ok; rec, ok = b.popFront() {
			want := string(all[i])
			if i == maxBatch-1 {
				want = string(appendSpill(sys, nil))
			}
			if string(rec) != want {
				t.Fatalf("record %d is %q, want %q", i, rec, want)
			}
			i++
		}
	}
	if q.spilled() == 0 {
		t.Fatal("a ring of 2 batches never wrote a wave")
	}
	if f.take(0, &batch) != nil {
		t.Fatal("take found work in a drained frontier")
	}
}

// TestFrontierRecordSurvivesPushes pins the aliasing contract the search
// loop relies on: a popped record is the restore image of the state being
// expanded, so successors appended meanwhile — to the same worker FIFO, or
// to the spill queue, filling its chunk, opening new ones, writing waves
// to disk — must leave its bytes intact until the next pop.
func TestFrontierRecordSurvivesPushes(t *testing.T) {
	wide := func(i int) []byte {
		return []byte(fmt.Sprintf("%06d-%s", i, strings.Repeat("s", 200+i%50)))
	}
	for _, spill := range []bool{false, true} {
		var fifo recSlab
		push := func(rec []byte) error { fifo.push(rec); return nil }
		pop := func() ([]byte, bool, error) { rec, ok := fifo.popFront(); return rec, ok, nil }
		var q *recQueue
		if spill {
			var err error
			if q, err = newRecQueue(Options{SpillRing: 64, SpillDir: t.TempDir()}, new(searchStats)); err != nil {
				t.Fatal(err)
			}
			defer q.close()
			push, pop = q.push, q.pop
		}
		next, popped := 0, 0
		pushNext := func() {
			if err := push(wide(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		pushNext()
		for popped < 5000 {
			rec, ok, err := pop()
			if err != nil || !ok {
				t.Fatalf("spill=%t: pop %d: ok=%t err=%v", spill, popped, ok, err)
			}
			want := wide(popped)
			// Expand: push a few successors before reading the record back.
			for k := 0; k < 3 && next < 6000; k++ {
				pushNext()
			}
			if !bytes.Equal(rec, want) {
				t.Fatalf("spill=%t: record %d changed while successors were pushed:\ngot  %q\nwant %q",
					spill, popped, rec, want)
			}
			popped++
		}
		if spill && q.spilled() == 0 {
			t.Fatal("ring of 64 never wrote a wave")
		}
	}
}

// TestSpillPeaksDeterministic: at Workers 1 the spill backend's peak
// counters are a function of the search alone — reruns report them
// exactly, so whole results still compare equal across front ends — and
// the in-memory search leaves them zero.
func TestSpillPeaksDeterministic(t *testing.T) {
	opts := Options{Evictions: true, POR: POROff, SpillDir: t.TempDir(), SpillRing: 128}
	a := exploreWith(t, sb(), 1, opts)
	b := exploreWith(t, sb(), 1, opts)
	if a.PeakResident != b.PeakResident || a.PeakFrontier != b.PeakFrontier {
		t.Fatalf("peaks differ between reruns: %d/%d vs %d/%d",
			a.PeakResident, a.PeakFrontier, b.PeakResident, b.PeakFrontier)
	}
	t.Logf("peaks: %d records resident, %d queued; %d spilled", a.PeakResident, a.PeakFrontier, a.SpilledStates)
	if err := CheckSpillBound(a, 128, 1); err != nil {
		t.Fatal(err)
	}
	if a.SpilledStates == 0 {
		t.Fatalf("a %d-record frontier never spilled past a ring of 128", a.PeakFrontier)
	}
	mem := exploreWith(t, sb(), 1, Options{Evictions: true, POR: POROff})
	if mem.PeakResident != 0 || mem.PeakFrontier != 0 {
		t.Fatalf("in-memory search reported spill peaks %d/%d", mem.PeakResident, mem.PeakFrontier)
	}
}

// TestDeadlockAtAgreement plants a deadlock — MSI's directory loses the
// row that completes a forwarded GetS, so S_D never drains — and pins
// that every worker count, in memory and spilling, reports the same
// deadlock count and the same DeadlockAt: the lexicographically least
// deadlocked snapshot, whichever worker found it first.
func TestDeadlockAtAgreement(t *testing.T) {
	p := badMSI(t, "  S_D msg Data -> S : writemem\n", "")
	progs, keys := reqsFor(sb())
	var base *Result
	for _, workers := range []int{1, 2, 4} {
		for _, spill := range []bool{false, true} {
			opts := Options{Workers: workers, Evictions: true, LoadKeys: keys}
			if spill {
				opts.SpillDir, opts.SpillRing = t.TempDir(), 64
			}
			sys := NewHomogeneous(p, 2)
			sys.SetPrograms(progs)
			res := Explore(sys, opts)
			if res.Err != nil || res.Truncated {
				t.Fatalf("workers=%d spill=%t: %s", workers, spill, res)
			}
			if base == nil {
				if res.Deadlocks == 0 || res.DeadlockAt == "" {
					t.Fatalf("the planted deadlock was not found: %s", res)
				}
				base = res
				t.Logf("%d states, %d deadlocks", res.States, res.Deadlocks)
				continue
			}
			if res.Deadlocks != base.Deadlocks || res.DeadlockAt != base.DeadlockAt {
				t.Fatalf("workers=%d spill=%t: %d deadlocks at\n%s\nworkers=1: %d at\n%s",
					workers, spill, res.Deadlocks, res.DeadlockAt, base.Deadlocks, base.DeadlockAt)
			}
		}
	}
}
