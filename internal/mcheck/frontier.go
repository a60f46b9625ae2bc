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

// recSlab is a FIFO of byte records. Pushes only append, so they never
// overwrite a stored byte; chunks are emptied for reuse only by the pop
// operations. A record returned by popFront therefore stays intact
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

// maxBatch caps a refill from the spill queue and the admitted records a
// spilling worker buffers before moving them to the queue.
const maxBatch = 64

// takeSpins is how many empty take sweeps merely yield before backing off
// with a short sleep (idle workers poll: there is no condition variable).
const takeSpins = 8

// byteDeque holds the records one worker published for its idle siblings.
// Takes move the oldest half — the shallowest states, which tend to root
// the largest unexplored subtrees — copying records out under the lock,
// so no worker ever reads bytes another may reuse.
type byteDeque struct {
	mu   sync.Mutex
	recs recSlab
	_    [32]byte // pad deques apart: each mutex stays on its own line
}

// take moves the oldest half of the published records (rounded up) into
// batch and returns how many it moved.
func (d *byteDeque) take(batch *recSlab) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := (d.recs.n + 1) / 2
	d.recs.moveFront(batch, k)
	return k
}

// wsFrontier is the search frontier. In memory, each worker owns one
// record FIFO (local): it pops the state to expand from the front and
// appends the records of admitted successors at the back, so a record is
// written once and read in place, and Workers: 1 is a plain breadth-first
// search. Records move between workers only on demand: while some worker
// is idle, a busy one publishes the older half of its FIFO on its
// byteDeque after each expansion, and an idle worker takes half of a
// deque into its own empty FIFO. With a spill backend, a worker's local
// slab only buffers its admitted records, which move to the shared spill
// queue (recQueue) whenever they fill a batch; every batch is refilled
// from that queue's head, so the frontier stays one breadth-first FIFO
// whose memory is bounded by spillResidentBound.
//
// Termination detection is one atomic counter, work: records published
// (on a deque or in the spill queue) plus busy workers. Publishing raises
// it before the records become visible, a take lowers it only after they
// were removed and the taker counted as busy again, and a worker goes idle
// only once it has nothing left to expand — so work reaches zero exactly
// when no record is queued anywhere and no expansion is in flight. Which
// worker expands which state is schedule-dependent, but the visited set
// admits each state exactly once, so counts, outcomes and verdicts are
// identical at any worker count (the determinism tests pin 1/2/4/8).
type wsFrontier struct {
	ctx     *searchCtx
	deques  []byteDeque
	local   []recSlab // per-worker FIFO, or admitted records awaiting the spill queue
	sq      *recQueue // spill backend; nil keeps the frontier in memory
	spillMu sync.Mutex
	work    atomic.Int64 // published records plus busy workers
	idle    atomic.Int32 // workers looking for work
	stopped atomic.Bool
}

// newWSFrontier seeds worker 0's local slab with the root record. Every
// worker starts out busy with nothing to expand; its first take idles it.
func newWSFrontier(ctx *searchCtx, sq *recQueue, workers int, root []byte) *wsFrontier {
	f := &wsFrontier{ctx: ctx, sq: sq, deques: make([]byteDeque, workers), local: make([]recSlab, workers)}
	f.local[0].push(root)
	f.work.Store(int64(workers))
	ctx.stats.admit(1)
	return f
}

// take returns the slab worker w expands next: in memory its own FIFO,
// refilled from a sibling's deque once it ran dry; with a spill backend
// batch, refilled from the spill queue's head once w's admitted records
// moved to its tail. It backs off while siblings may still produce work
// and returns nil when the search is complete or stopped.
func (f *wsFrontier) take(w int, batch *recSlab) *recSlab {
	dst := &f.local[w]
	if f.sq != nil {
		f.spill(w)
		batch.reset()
		dst = batch
	} else if dst.n > 0 {
		return dst
	}
	f.work.Add(-1)
	f.idle.Add(1)
	defer f.idle.Add(-1)
	for spins := 0; ; spins++ {
		if f.stopped.Load() {
			return nil
		}
		if k := f.steal(w, dst); k > 0 {
			f.work.Add(int64(1 - k))
			return dst
		}
		if f.work.Load() == 0 {
			return nil
		}
		idleWait(spins)
	}
}

// steal moves published records into the empty slab dst — from the spill
// queue's head, or from the first non-empty deque starting at w's own —
// and returns how many.
func (f *wsFrontier) steal(w int, dst *recSlab) int {
	if f.sq != nil {
		f.spillMu.Lock()
		defer f.spillMu.Unlock()
		for dst.n < maxBatch {
			rec, ok, err := f.sq.pop()
			if err != nil {
				f.fail(err)
				return 0
			}
			if !ok {
				break
			}
			dst.push(rec)
		}
		return dst.n
	}
	for i := range f.deques {
		if k := f.deques[(w+i)%len(f.deques)].take(dst); k > 0 {
			return k
		}
	}
	return 0
}

// admit appends the record of one admitted successor to worker w's local
// slab. next is borrowed — valid only for the duration of the call.
func (f *wsFrontier) admit(w int, sc *expandScratch, next *System) {
	sc.rec = appendSpill(next, sc.rec[:0])
	l := &f.local[w]
	l.push(sc.rec)
	if f.sq != nil && l.n >= maxBatch {
		f.spill(w)
	}
}

// share runs after each of worker w's expansions, q being the slab it
// expands: while a sibling is idle, it publishes work — its admitted
// records to the spill queue, or in memory the older half of its FIFO on
// its deque unless the last records it published are still there.
func (f *wsFrontier) share(w int, q *recSlab) {
	if f.idle.Load() == 0 {
		return
	}
	if f.sq != nil {
		f.spill(w)
		return
	}
	k := q.n / 2
	if k == 0 {
		return
	}
	d := &f.deques[w]
	d.mu.Lock()
	if d.recs.n == 0 {
		f.work.Add(int64(k))
		q.moveFront(&d.recs, k)
	}
	d.mu.Unlock()
}

// spill moves worker w's admitted records, in order, to the spill queue.
func (f *wsFrontier) spill(w int) {
	l := &f.local[w]
	if f.sq == nil || l.n == 0 {
		return
	}
	f.work.Add(int64(l.n))
	f.spillMu.Lock()
	for rec, ok := l.popFront(); ok; rec, ok = l.popFront() {
		if err := f.sq.push(rec); err != nil {
			f.fail(err)
			break
		}
	}
	f.spillMu.Unlock()
	l.reset()
}

func (f *wsFrontier) stop() { f.stopped.Store(true) }

// fail records a frontier fault and stops the search.
func (f *wsFrontier) fail(err error) {
	f.ctx.fail(err)
	f.stop()
}

// spillResidentBound is the documented cap on frontier records held in
// memory by a search spilling with the given ring and worker count: the
// spill queue's head and tail windows (a ring each) plus every worker's
// batch and admitted records (a maxBatch each).
func spillResidentBound(ring, workers int) int {
	if ring <= 0 {
		ring = defaultSpillRing
	}
	return 2*ring + 2*maxBatch*workers
}
