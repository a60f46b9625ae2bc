package mcheck

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// recQueue is the spill backend of the search frontier: a FIFO of records
// of which only a bounded window lives in memory — a head slab being
// consumed, a tail slab being filled, and an ordered list of "wave" files
// holding everything in between. When the tail reaches the ring capacity
// it is written to a new wave file; when the head runs dry the oldest wave
// is read back (or, with no waves on disk, head and tail swap). Frontier
// memory is therefore O(ring), however wide the search gets.
//
// The queue is not goroutine-safe; the frontier serializes access through
// its spill mutex. The first I/O error is sticky: every later push and pop
// returns it, since a half-lost frontier cannot produce a trustworthy
// verdict.
type recQueue struct {
	dir     string // per-search temp directory, removed by close
	ring    int    // records per wave
	wrap    func(io.Writer) io.Writer
	stats   *searchStats
	head    recSlab
	tail    recSlab
	files   []string // FIFO wave files, oldest first
	onDisk  int      // records in wave files
	fileSeq int
	err     error

	// Cumulative spill accounting, atomics so the progress ticker can read
	// them while the search runs.
	spilledStates atomic.Int64
	spilledBytes  atomic.Int64
}

// defaultSpillRing bounds the in-memory frontier window when
// Options.SpillRing is zero: 32Ki records per window (head + tail ≈ 64Ki
// records in memory, a few MB at typical record sizes).
const defaultSpillRing = 1 << 15

// newRecQueue creates the spill backend in a private temp directory under
// opts.SpillDir, or returns nil when opts.SpillDir is empty.
func newRecQueue(opts Options, stats *searchStats) (*recQueue, error) {
	if opts.SpillDir == "" {
		return nil, nil
	}
	q := &recQueue{ring: opts.SpillRing, wrap: opts.SpillWriter, stats: stats}
	if q.ring <= 0 {
		q.ring = defaultSpillRing
	}
	d, err := os.MkdirTemp(opts.SpillDir, "hgspill-")
	if err != nil {
		return nil, fmt.Errorf("mcheck: spill dir: %w", err)
	}
	q.dir = d
	return q, nil
}

// close removes every spill file and the temp directory.
func (q *recQueue) close() {
	if q != nil {
		os.RemoveAll(q.dir)
	}
}

// spilled returns the records written to disk so far (0 for a nil queue).
func (q *recQueue) spilled() int64 {
	if q == nil {
		return 0
	}
	return q.spilledStates.Load()
}

// len returns the number of queued records.
func (q *recQueue) len() int { return q.head.n + q.tail.n + q.onDisk }

// push enqueues a copy of rec.
func (q *recQueue) push(rec []byte) error {
	if q.err != nil {
		return q.err
	}
	q.tail.push(rec)
	if q.tail.n >= q.ring {
		q.err = q.writeWave()
	}
	return q.err
}

// pop dequeues the oldest record. The bytes stay valid until the next pop:
// pushes never overwrite them.
func (q *recQueue) pop() ([]byte, bool, error) {
	if q.err != nil {
		return nil, false, q.err
	}
	if rec, ok := q.head.popFront(); ok {
		return rec, ok, nil
	}
	q.head.reset()
	if len(q.files) > 0 {
		if q.err = q.readWave(); q.err != nil {
			return nil, false, q.err
		}
	} else {
		q.head, q.tail = q.tail, q.head
	}
	rec, ok := q.head.popFront()
	return rec, ok, nil
}

// writeWave writes the tail window to a new wave file.
func (q *recQueue) writeWave() error {
	path := filepath.Join(q.dir, fmt.Sprintf("wave-%08d.bin", q.fileSeq))
	q.fileSeq++
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mcheck: spill write %s: %w", path, err)
	}
	var w io.Writer = f
	if q.wrap != nil {
		w = q.wrap(f)
	}
	bytes, err := q.tail.writeTo(w)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mcheck: spill write %s: %w", path, err)
	}
	n := q.tail.n
	q.files = append(q.files, path)
	q.onDisk += n
	q.stats.resident.add(-n)
	q.spilledStates.Add(int64(n))
	q.spilledBytes.Add(bytes)
	q.tail.reset()
	return nil
}

// readWave reads the oldest wave file back into the head window; its
// records alias the file's buffer, with no per-record copy.
func (q *recQueue) readWave() error {
	path := q.files[0]
	q.files = q.files[1:]
	buf, err := os.ReadFile(path)
	os.Remove(path)
	if err == nil {
		var n int
		if n, err = q.head.load(buf); err == nil {
			q.onDisk -= n
			q.stats.resident.add(n)
			return nil
		}
	}
	return fmt.Errorf("mcheck: spill read %s: %w", path, err)
}
