package mcheck

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"heterogen/internal/spec"
)

// The search frontier holds every queued state as its spill-codec record
// (appendSpill) in pointer-free byte chunks: the collector never traces
// them, and a worker decodes each popped record into one long-lived cursor
// System instead of keeping a heap System per queued state.

// slabChunkBytes is the size of one record chunk.
const slabChunkBytes = 64 << 10

// slabSpare bounds the emptied chunks a slab keeps for reuse, so a
// draining frontier does not pin its peak footprint.
const slabSpare = 16

// slabChunk is one chunk of records stored back to back.
type slabChunk struct {
	data []byte   // record bytes, back to back
	offs []uint32 // start of each record in data
	lo   int      // offs[lo:] are live; earlier records were popped
}

// rec returns record i.
func (c *slabChunk) rec(i int) []byte {
	end := len(c.data)
	if i+1 < len(c.offs) {
		end = int(c.offs[i+1])
	}
	return c.data[c.offs[i]:end:end]
}

// recSlab is a double-ended queue of byte records. Pushes only append, so
// they never overwrite a stored byte; chunks are emptied for reuse only by
// the pop operations. A record returned by popFront therefore stays intact
// — however many records are pushed meanwhile — until the next pop, reset
// or move on the same slab.
type recSlab struct {
	chunks []*slabChunk // live chunks, oldest first
	spare  []*slabChunk // emptied chunks awaiting reuse
	n      int          // live records
}

// push appends a copy of rec at the back.
func (s *recSlab) push(rec []byte) {
	var c *slabChunk
	if k := len(s.chunks); k > 0 {
		c = s.chunks[k-1]
	}
	if c == nil || len(c.data)+len(rec) > cap(c.data) {
		if k := len(s.spare); k > 0 && len(rec) <= slabChunkBytes {
			c = s.spare[k-1]
			s.spare = s.spare[:k-1]
		} else {
			c = &slabChunk{data: make([]byte, 0, max(slabChunkBytes, len(rec)))}
		}
		s.chunks = append(s.chunks, c)
	}
	c.offs = append(c.offs, uint32(len(c.data)))
	c.data = append(c.data, rec...)
	s.n++
}

// popFront removes and returns the oldest record (see recSlab for how long
// the bytes stay valid).
func (s *recSlab) popFront() ([]byte, bool) {
	for len(s.chunks) > 0 && s.chunks[0].lo == len(s.chunks[0].offs) {
		s.retire(s.chunks[0])
		k := copy(s.chunks, s.chunks[1:])
		s.chunks[k] = nil
		s.chunks = s.chunks[:k]
	}
	if s.n == 0 {
		return nil, false
	}
	c := s.chunks[0]
	rec := c.rec(c.lo)
	c.lo++
	s.n--
	return rec, true
}

// moveFront copies the k oldest records into dst, oldest first, and
// removes them.
func (s *recSlab) moveFront(dst *recSlab, k int) {
	for ; k > 0; k-- {
		rec, _ := s.popFront()
		dst.push(rec)
	}
}

// moveBack copies the k newest records into dst, oldest first, and removes
// them.
func (s *recSlab) moveBack(dst *recSlab, k int) {
	ci, i := len(s.chunks)-1, 0
	for rem := k; ; ci-- {
		c := s.chunks[ci]
		if live := len(c.offs) - c.lo; live < rem {
			rem -= live
			continue
		}
		i = len(s.chunks[ci].offs) - rem
		break
	}
	for j := ci; j < len(s.chunks); j++ {
		c := s.chunks[j]
		from := c.lo
		if j == ci {
			from = i
		}
		for r := from; r < len(c.offs); r++ {
			dst.push(c.rec(r))
		}
	}
	for j := ci + 1; j < len(s.chunks); j++ {
		s.retire(s.chunks[j])
		s.chunks[j] = nil
	}
	c := s.chunks[ci]
	c.data = c.data[:c.offs[i]]
	c.offs = c.offs[:i]
	s.chunks = s.chunks[:ci+1]
	s.n -= k
}

// reset empties the slab.
func (s *recSlab) reset() {
	for i, c := range s.chunks {
		s.retire(c)
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:0]
	s.n = 0
}

// retire empties c and keeps it for reuse when it is a standard chunk and
// the spare list has room.
func (s *recSlab) retire(c *slabChunk) {
	if cap(c.data) == slabChunkBytes && len(s.spare) < slabSpare {
		c.data, c.offs, c.lo = c.data[:0], c.offs[:0], 0
		s.spare = append(s.spare, c)
	}
}

// writeTo writes the live records as one wave: a uvarint record count, a
// uvarint length per record, then the record bytes back to back.
func (s *recSlab) writeTo(w io.Writer) (int64, error) {
	hdr := spec.AppendUvarint(nil, uint64(s.n))
	for _, c := range s.chunks {
		for r := c.lo; r < len(c.offs); r++ {
			hdr = spec.AppendUvarint(hdr, uint64(len(c.rec(r))))
		}
	}
	n, err := w.Write(hdr)
	total := int64(n)
	for _, c := range s.chunks {
		if err != nil || c.lo == len(c.offs) {
			continue
		}
		n, err = w.Write(c.data[c.offs[c.lo]:])
		total += int64(n)
	}
	return total, err
}

// load appends a wave written by writeTo as one chunk aliasing buf and
// returns its record count.
func (s *recSlab) load(buf []byte) (int, error) {
	var d spec.Dec
	d.Reset(buf)
	n := int(d.Uvarint())
	if d.Err() != nil || n > len(buf) {
		return 0, fmt.Errorf("corrupt wave header")
	}
	c := &slabChunk{offs: make([]uint32, n)}
	size := 0
	for i := range c.offs {
		c.offs[i] = uint32(size)
		size += int(d.Uvarint())
	}
	if d.Err() != nil || d.Len() != size {
		return 0, fmt.Errorf("corrupt wave: %d record bytes, %d on file", size, d.Len())
	}
	if n > 0 {
		c.data = buf[len(buf)-size:]
		s.chunks = append(s.chunks, c)
		s.n += n
	}
	return n, nil
}

// gauge is a live count with its high-water mark, safe for concurrent use.
type gauge struct{ cur, peak atomic.Int64 }

func (g *gauge) add(n int) {
	v := g.cur.Add(int64(n))
	for p := g.peak.Load(); v > p && !g.peak.CompareAndSwap(p, v); p = g.peak.Load() {
	}
}

// maxBatch caps how many records one take hands a worker, and how many
// admitted records a worker buffers before publishing them.
const maxBatch = 64

// takeSpins is how many empty take sweeps merely yield before backing off
// with a short sleep (idle workers poll: there is no condition variable).
const takeSpins = 8

// byteDeque is one worker's share of the parallel frontier. The owner
// pushes at the tail and, in memory, pops there too (depth-first-ish,
// cache-warm); thieves steal from the head — the oldest, shallowest
// states, which tend to root the largest unexplored subtrees. With a spill
// backend the owner consumes the head as well, keeping the frontier
// breadth-first the way the sequential spill search does, so a search that
// outgrows the ring genuinely overflows to disk. Takes copy records out
// under the lock, so no worker ever reads bytes another may reuse.
type byteDeque struct {
	mu   sync.Mutex
	recs recSlab
	_    [32]byte // pad deques apart: owner-written fields stay on one line
}

// take moves up to half the live records (at most maxBatch, rounded up)
// into batch, from the head or the tail.
func (d *byteDeque) take(batch *recSlab, head bool, st *searchStats) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recs.n == 0 {
		return false
	}
	k := min((d.recs.n+1)/2, maxBatch)
	if head {
		d.recs.moveFront(batch, k)
	} else {
		d.recs.moveBack(batch, k)
	}
	st.admit(-k)
	return true
}

// wsFrontier is the parallel search's work-stealing frontier over
// per-worker byte deques, with an optional spill backend: a deque past
// dequeCap live records moves its oldest half to the shared spill queue,
// and a worker that finds every deque empty refills from that queue before
// concluding the search drained. Termination detection is one atomic
// outstanding-work counter: flush raises it before records become visible
// and settle lowers it only after their expansion completed, so it reaches
// zero exactly when every deque is empty and no expansion is in flight.
// Which worker expands which state is schedule-dependent, but the visited
// set admits each state exactly once, so counts, outcomes and verdicts are
// identical at any worker count (the determinism tests pin 1/2/4/8).
type wsFrontier struct {
	ctx      *searchCtx
	deques   []byteDeque
	pend     []recSlab // per-worker admitted records, published by flush
	over     []recSlab // per-worker overflow on its way to sq
	sq       *recQueue // spill backend; nil keeps the frontier in the deques
	spillMu  sync.Mutex
	dequeCap int
	work     atomic.Int64 // records pushed but not yet settled
	stopped  atomic.Bool
}

func newWSFrontier(ctx *searchCtx, sq *recQueue, workers int, root []byte) *wsFrontier {
	f := &wsFrontier{ctx: ctx, deques: make([]byteDeque, workers),
		pend: make([]recSlab, workers), over: make([]recSlab, workers)}
	if sq.spills() {
		f.sq = sq
		f.dequeCap = max(sq.ring/workers, maxBatch)
	}
	f.deques[0].recs.push(root)
	f.work.Store(1)
	ctx.stats.admit(1)
	return f
}

// take refills worker w's batch: from its own deque when possible, stolen
// from a sibling or read back from the spill queue otherwise. It spins down
// with a short backoff while siblings may still produce work and returns
// false when the search is complete or stopped.
func (f *wsFrontier) take(w int, batch *recSlab) bool {
	batch.reset()
	for spins := 0; ; spins++ {
		if f.stopped.Load() {
			return false
		}
		for i := range f.deques {
			if f.deques[(w+i)%len(f.deques)].take(batch, i > 0 || f.sq != nil, &f.ctx.stats) {
				return true
			}
		}
		if f.sq != nil && f.refill(batch) {
			return true
		}
		if f.work.Load() == 0 {
			return false
		}
		idleWait(spins)
	}
}

// refill reads up to maxBatch records back from the spill queue.
func (f *wsFrontier) refill(batch *recSlab) bool {
	f.spillMu.Lock()
	defer f.spillMu.Unlock()
	for batch.n < maxBatch {
		rec, ok, err := f.sq.pop()
		if err != nil {
			f.fail(err)
			return false
		}
		if !ok {
			break
		}
		batch.push(rec)
	}
	f.ctx.stats.admit(-batch.n)
	return batch.n > 0
}

// admit buffers the record of one admitted successor for worker w. next is
// borrowed — valid only for the duration of the call.
func (f *wsFrontier) admit(w int, sc *expandScratch, next *System) {
	sc.rec = appendSpill(next, sc.rec[:0])
	f.pend[w].push(sc.rec)
	if f.pend[w].n >= maxBatch {
		f.flush(w)
	}
}

// flush publishes worker w's buffered records onto its own deque, moving
// the deque's oldest half to the spill queue when it outgrew dequeCap.
func (f *wsFrontier) flush(w int) {
	pend, over := &f.pend[w], &f.over[w]
	n := pend.n
	if n == 0 {
		return
	}
	f.work.Add(int64(n))
	d := &f.deques[w]
	d.mu.Lock()
	pend.moveFront(&d.recs, n)
	f.ctx.stats.admit(n)
	if f.sq != nil && d.recs.n > f.dequeCap {
		d.recs.moveFront(over, d.recs.n/2)
	}
	d.mu.Unlock()
	pend.reset()
	if over.n == 0 {
		return
	}
	f.spillMu.Lock()
	for rec, ok := over.popFront(); ok; rec, ok = over.popFront() {
		if err := f.sq.push(rec); err != nil {
			f.fail(err)
			break
		}
	}
	f.spillMu.Unlock()
	over.reset()
}

func (f *wsFrontier) settle(n int) { f.work.Add(int64(-n)) }
func (f *wsFrontier) stop()        { f.stopped.Store(true) }

// fail records a frontier fault and stops the search.
func (f *wsFrontier) fail(err error) {
	f.ctx.fail(err)
	f.stop()
}

// spillResidentBound is the documented cap on frontier records held in
// memory by a search spilling with the given ring and worker count: the
// spill queue's head and tail windows (a ring each), plus, in parallel,
// every deque at its cap with one more published batch.
func spillResidentBound(ring, workers int) int {
	if ring <= 0 {
		ring = defaultSpillRing
	}
	if workers <= 1 {
		return 2 * ring
	}
	return 2*ring + workers*(max(ring/workers, maxBatch)+maxBatch)
}
