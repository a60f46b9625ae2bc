package mcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// enospcAfter returns a SpillWriter seam whose writers share one byte
// budget: writes land until limit bytes have been written across all of a
// search's waves, then fail with ENOSPC — so the first waves reach disk
// and a later one breaks mid-write, like a filling disk.
func enospcAfter(limit int64) func(io.Writer) io.Writer {
	var written atomic.Int64
	return func(w io.Writer) io.Writer { return &fullDisk{w: w, written: &written, limit: limit} }
}

type fullDisk struct {
	w       io.Writer
	written *atomic.Int64
	limit   int64
}

func (f *fullDisk) Write(p []byte) (int, error) {
	room := f.limit - f.written.Load()
	if room < int64(len(p)) {
		n, _ := f.w.Write(p[:max(room, 0)])
		f.written.Add(int64(n))
		return n, syscall.ENOSPC
	}
	n, err := f.w.Write(p)
	f.written.Add(int64(n))
	return n, err
}

// TestSpillFaultBecomesError fills the spill disk mid-wave at one and four
// workers: the search must stop with Result.Err wrapping ENOSPC — no
// panic, no verdict, no goroutine or spill file left behind — and the
// error must stay out of the result's JSON.
func TestSpillFaultBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			res := exploreWith(t, iriw(), workers, Options{POR: POROff,
				SpillDir: dir, SpillRing: 64, SpillWriter: enospcAfter(20_000)})
			if !errors.Is(res.Err, syscall.ENOSPC) {
				t.Fatalf("want an ENOSPC fault, got err=%v: %s", res.Err, res)
			}
			if res.Ok() || res.Cancelled {
				t.Fatalf("faulted search reported ok=%t cancelled=%t", res.Ok(), res.Cancelled)
			}
			if res.SpilledStates == 0 {
				t.Fatal("no wave reached disk before the fault")
			}
			if !strings.Contains(res.String(), "failed after") {
				t.Fatalf("String() hides the fault: %s", res)
			}
			waitGoroutines(t, base)
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
				t.Fatalf("faulted search left %v", left)
			}
			b, err := json.Marshal(res)
			if err != nil || bytes.Contains(b, []byte(`"Err"`)) {
				t.Fatalf("result JSON carries the error (err=%v): %s", err, b)
			}
		})
	}
}

// TestSpillDirFaultBecomesError: an unusable spill directory fails the
// search up front with Result.Err instead of panicking.
func TestSpillDirFaultBecomesError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res := exploreWith(t, mpPlain(), workers, Options{SpillDir: file})
		if res.Err == nil || res.Ok() || res.States != 0 {
			t.Fatalf("workers=%d: want an up-front spill-dir fault, got err=%v: %s", workers, res.Err, res)
		}
	}
}

// TestCorruptWaveBecomesError: a wave file that no longer parses — or a
// record in it the cursor cannot decode — is an error, not a panic.
func TestCorruptWaveBecomesError(t *testing.T) {
	q, err := newRecQueue(Options{SpillDir: t.TempDir(), SpillRing: 4}, new(searchStats))
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	for i := 0; i < 10; i++ {
		if err := q.push([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.files) != 2 {
		t.Fatalf("%d waves on disk, want 2", len(q.files))
	}
	if err := os.Truncate(q.files[0], 7); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := q.pop(); ok || err == nil {
		t.Fatalf("pop over a truncated wave: ok=%t err=%v", ok, err)
	}
	if err := q.push(nil); err == nil {
		t.Fatal("the queue's fault is not sticky")
	}

	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	ctx := newSearchCtx(sys, Options{}, DefaultMaxStates)
	var sc expandScratch
	rec := appendSpill(sys, nil)
	if err := ctx.decode(sys.Clone(), rec[:len(rec)/2], &sc); err == nil {
		t.Fatal("a truncated record decoded cleanly")
	}
}

// badMSI parses MSI's exported spec with one row rewritten.
func badMSI(t *testing.T, row, rewrite string) *spec.Protocol {
	t.Helper()
	src := spec.ExportPCC(protocols.MustByName(protocols.NameMSI))
	if !strings.Contains(src, row) {
		t.Fatalf("MSI no longer has the row %q", row)
	}
	p, err := spec.ParsePCC(strings.Replace(src, row, rewrite, 1))
	if err != nil {
		t.Fatalf("the rewritten spec no longer parses, so it tests nothing: %v", err)
	}
	return p
}

// TestComponentFaultsBecomeErrors: a protocol whose controller cannot
// address a send ends the search with Result.Err at one and four workers,
// instead of panicking. A directory forwarding to an absent owner passes
// ParsePCC; a destination the controller cannot resolve at all is
// rejected by validation, so those rows are rewritten after parsing.
func TestComponentFaultsBecomeErrors(t *testing.T) {
	getS := "I msg GetS -> S : send Data msgsrc mem, addsharer"
	redirect := func(tr *spec.Transition, dst spec.Dst) {
		if tr == nil || tr.Actions[0].Op != spec.ActSend {
			t.Fatal("MSI's I-state row no longer starts with a send")
		}
		tr.Actions[0].Dst = dst
	}
	cases := []struct {
		name  string
		proto func() *spec.Protocol
		want  string
	}{
		{"dir-absent-owner", func() *spec.Protocol {
			return badMSI(t, getS, "I msg GetS -> S : send Data owner mem, addsharer")
		}, "absent owner"},
		{"dir-bad-dst", func() *spec.Protocol {
			p := badMSI(t, getS, getS)
			redirect(p.Dir.OnMessage(p.Dir.Init, &spec.Msg{Type: "GetS"}, spec.MsgCtx{}), spec.ToDir)
			return p
		}, "cannot send Data to"},
		{"cache-bad-dst", func() *spec.Protocol {
			p := badMSI(t, getS, getS)
			redirect(p.Cache.OnCoreOp(p.Cache.Init, spec.OpLoad), spec.ToOwner)
			return p
		}, "cannot send GetS to"},
	}
	progs, _ := reqsFor(mpPlain())
	for _, tc := range cases {
		p := tc.proto()
		for _, workers := range []int{1, 4} {
			sys := NewHomogeneous(p, 2)
			sys.SetPrograms(progs)
			res := Explore(sys, Options{Workers: workers})
			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) || res.Ok() {
				t.Errorf("%s workers=%d: err = %v, want a fault naming %q", tc.name, workers, res.Err, tc.want)
			}
		}
	}
}

// TestUnroutedMessageFaults: delivering a message addressed to no
// component stalls the move with a fault instead of panicking.
func TestUnroutedMessageFaults(t *testing.T) {
	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	msg := spec.Msg{Type: "GetS", Src: 0, Dst: 99}
	sys.send(msg)
	if sys.Apply(Move{Kind: MoveDeliver, Chan: chanKey{msg.Src, msg.Dst, msg.VNet}}) {
		t.Fatal("a message to an unrouted node was delivered")
	}
	if err := sys.takeFault(); err == nil || !strings.Contains(err.Error(), "unrouted node 99") {
		t.Fatalf("fault = %v, want the unrouted node named", err)
	}
}
