package mcheck

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
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

// TestWSDequeMechanics exercises the byte deque directly: thieves take
// half (rounded up) from the head, the owner takes from the tail, maxBatch
// caps a take, and repeated cycles reuse chunks instead of growing.
func TestWSDequeMechanics(t *testing.T) {
	var d byteDeque
	var st searchStats
	all := recs(10)
	for _, r := range all {
		d.recs.push(r)
	}
	var batch recSlab
	if !d.take(&batch, true, &st) {
		t.Fatal("take from a full deque failed")
	}
	if got := drain(&batch); len(got) != 5 || got[0] != "rec-00000" || got[4] != "rec-00004" {
		t.Fatalf("steal took %v, want the oldest 5 in order", got)
	}
	batch.reset()
	d.take(&batch, false, &st)
	if got := drain(&batch); len(got) != 3 || got[0] != "rec-00007" || got[2] != "rec-00009" {
		t.Fatalf("owner take got %v, want the newest 3 in order", got)
	}
	batch.reset()
	for _, r := range recs(1000) {
		d.recs.push(r)
	}
	if d.take(&batch, false, &st); batch.n != maxBatch {
		t.Fatalf("take ignored maxBatch: took %d", batch.n)
	}
	if st.frontier.cur.Load() != -int64(5+3+maxBatch) {
		t.Fatalf("takes counted %d records off the frontier", -st.frontier.cur.Load())
	}

	// Records many chunks wide survive a tail take that spans chunks.
	var big recSlab
	wide := bytes.Repeat([]byte{'x'}, slabChunkBytes/3)
	for i := 0; i < 7; i++ {
		big.push(append([]byte{byte(i)}, wide...))
	}
	var got recSlab
	big.moveBack(&got, 5)
	for i := 2; i < 7; i++ {
		rec, _ := got.popFront()
		if rec[0] != byte(i) || len(rec) != len(wide)+1 {
			t.Fatalf("cross-chunk take returned record %d (len %d), want %d", rec[0], len(rec), i)
		}
	}
	if rest := drain(&big); len(rest) != 2 || rest[1][0] != 1 {
		t.Fatalf("cross-chunk take left %d records", len(rest))
	}

	// Push/steal cycles recycle chunks rather than accumulating them.
	var d2 byteDeque
	for i := 0; i < 20000; i++ {
		d2.recs.push(all[i%10])
		d2.recs.push(all[i%10])
		batch.reset()
		d2.take(&batch, true, &st)
		d2.take(&batch, true, &st)
	}
	if n := len(d2.recs.chunks); n > 2 {
		t.Fatalf("drained deque still holds %d chunks", n)
	}
}

// TestWSByteDequeOverflow pins the spill frontier's cap contract: once a
// worker's deque outgrows dequeCap, flush moves its oldest half, in order,
// to the spill queue, and the deque keeps the newest records.
func TestWSByteDequeOverflow(t *testing.T) {
	ctx := &searchCtx{}
	q, err := newRecQueue(Options{SpillDir: t.TempDir(), SpillRing: 2 * maxBatch}, &ctx.stats)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	all := recs(2 * maxBatch)
	f := newWSFrontier(ctx, q, 2, all[0])
	if f.dequeCap != maxBatch {
		t.Fatalf("dequeCap = %d, want %d", f.dequeCap, maxBatch)
	}
	for _, r := range all[1 : maxBatch-1] {
		f.pend[0].push(r)
	}
	f.flush(0)
	if q.len() != 0 {
		t.Fatalf("%d records overflowed below the cap", q.len())
	}
	for _, r := range all[maxBatch-1:] {
		f.pend[0].push(r)
		if f.pend[0].n == maxBatch/2 {
			f.flush(0)
		}
	}
	f.flush(0)
	if q.len() == 0 || q.len()+f.deques[0].recs.n != len(all) {
		t.Fatalf("overflow moved %d records, deque kept %d of %d", q.len(), f.deques[0].recs.n, len(all))
	}
	var spilled recSlab
	for i := 0; ; i++ {
		rec, ok, err := q.pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if string(rec) != string(all[i]) {
			t.Fatalf("overflow record %d is %q, want the oldest in order", i, rec)
		}
		spilled.push(rec)
	}
	if rest := drain(&f.deques[0].recs); rest[len(rest)-1] != string(all[len(all)-1]) ||
		rest[0] != string(all[spilled.n]) {
		t.Fatalf("deque kept %s..%s, want the newest records", rest[0], rest[len(rest)-1])
	}
	if got := ctx.stats.frontier.cur.Load(); got != int64(len(all)) {
		t.Fatalf("frontier gauge %d, want %d", got, len(all))
	}
}

// TestFrontierRecordSurvivesPushes pins the aliasing contract the search
// loops rely on: a popped record is the restore image of the state being
// expanded, so successors appended to the same slab or queue meanwhile —
// filling its chunk, opening new ones, writing waves to disk — must leave
// its bytes intact.
func TestFrontierRecordSurvivesPushes(t *testing.T) {
	wide := func(i int) []byte {
		return []byte(fmt.Sprintf("%06d-%s", i, strings.Repeat("s", 200+i%50)))
	}
	for _, spill := range []bool{false, true} {
		opts := Options{SpillRing: 64}
		if spill {
			opts.SpillDir = t.TempDir()
		}
		q, err := newRecQueue(opts, new(searchStats))
		if err != nil {
			t.Fatal(err)
		}
		next, popped := 0, 0
		push := func() {
			if err := q.push(wide(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		push()
		for popped < 5000 {
			rec, ok, err := q.pop()
			if err != nil || !ok {
				t.Fatalf("spill=%t: pop %d: ok=%t err=%v", spill, popped, ok, err)
			}
			want := wide(popped)
			// Expand: push a few successors before reading the record back.
			for k := 0; k < 3 && next < 6000; k++ {
				push()
			}
			if !bytes.Equal(rec, want) {
				t.Fatalf("spill=%t: record %d changed while successors were pushed:\ngot  %q\nwant %q",
					spill, popped, rec, want)
			}
			popped++
		}
		if spill && q.spilledStates.Load() == 0 {
			t.Fatal("ring of 64 never wrote a wave")
		}
		q.close()
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
