package engine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestCheckMatchesDirect pins the refactor's core promise: a request
// through the engine produces exactly the result the command used to get
// by assembling mcheck options itself.
func TestCheckMatchesDirect(t *testing.T) {
	req := CheckRequest{
		Protocol: "MSI",
		Caches:   2,
		Addrs:    1,
		Search:   SearchOptions{Workers: 1, Hash: true},
	}
	res, err := Check(context.Background(), req, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "MSI" {
		t.Fatalf("result name %q", res.Name)
	}
	if err := res.Verdict(); err != nil {
		t.Fatalf("verdict on a clean check: %v", err)
	}

	// The direct path the old CLI ran.
	sys := mcheck.NewHomogeneous(protocols.MustByName(protocols.NameMSI), 2)
	sys.SetPrograms(CheckDriver(2, 1, false))
	direct := mcheck.Explore(sys, mcheck.Options{
		Evictions: true, HashCompaction: true, Workers: 1,
		MaxStates: DefaultCheckMaxStates, POR: mcheck.PORAuto,
	})
	if res.States != direct.States || res.Transitions != direct.Transitions || res.Deadlocks != direct.Deadlocks {
		t.Fatalf("engine diverged from direct search:\n engine %s\n direct %s", &res.Result, direct)
	}
}

// TestCheckCancelled: a pre-cancelled context yields a partial result
// with a verdict, not a request error.
func TestCheckCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(ctx, CheckRequest{Protocol: "MSI", Caches: 1, Addrs: 1}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("expected a cancelled result, got %s", &res.Result)
	}
	if res.Verdict() == nil {
		t.Fatal("cancelled result must carry a nonzero verdict")
	}
}

// TestSearchOptionsDefaults pins the JSON zero value's meaning: POR on,
// binary encoding — the baseline every command shares.
func TestSearchOptionsDefaults(t *testing.T) {
	var s SearchOptions
	if err := json.Unmarshal([]byte(`{}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.PORMode() != mcheck.PORAuto {
		t.Fatal("zero-value options must keep POR on")
	}
	if enc, err := s.Enc(); err != nil || enc != mcheck.EncodingBinary {
		t.Fatalf("zero-value encoding resolved to %v, %v", enc, err)
	}
	if err := json.Unmarshal([]byte(`{"no_por":true,"encoding":"snapshot"}`), &s); err != nil {
		t.Fatal(err)
	}
	if s.PORMode() != mcheck.POROff {
		t.Fatal("no_por did not disable the reduction")
	}
}

// TestLitmusRequest runs the smallest real suite through the engine.
func TestLitmusRequest(t *testing.T) {
	res, err := Litmus(context.Background(), LitmusRequest{
		Pair:   []string{"MSI", "MSI"},
		Shapes: []string{"MP"},
		Search: SearchOptions{Workers: 1},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 || res.Failed != 0 || res.Cancelled {
		t.Fatalf("suite run: %d results, %d failed, cancelled=%v", len(res.Results), res.Failed, res.Cancelled)
	}
	if err := res.Verdict(); err != nil {
		t.Fatalf("verdict on a passing suite: %v", err)
	}
}

// TestCompileRequest compiles once cold and once through the cache,
// checking the Source provenance both times and the OnCompiled hook.
func TestCompileRequest(t *testing.T) {
	cache := t.TempDir()
	req := CompileRequest{
		Pair:   []string{"MSI", "MSI"},
		Search: SearchOptions{Workers: 1, CompileCache: cache},
	}
	var hooked string
	hooks := Hooks{OnCompiled: func(name string, stats core.CompileStats) { hooked = stats.Source }}

	cold, err := Compile(context.Background(), req, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Source != core.SourceCompiler || hooked != core.SourceCompiler {
		t.Fatalf("cold compile source %q (hook saw %q)", cold.Stats.Source, hooked)
	}
	if cold.Digest == "" || cold.Compiled() == nil || cold.FlatStates == 0 {
		t.Fatalf("compile result incomplete: %+v", cold)
	}

	warm, err := Compile(context.Background(), req, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Source != core.SourceCache || hooked != core.SourceCache {
		t.Fatalf("second compile source %q, want cache hit", warm.Stats.Source)
	}
	if warm.Digest != cold.Digest {
		t.Fatalf("digest changed across the cache: %s vs %s", warm.Digest, cold.Digest)
	}
}

// TestSearchFaultIsError: a search fault is returned as an error, never a
// panic — Check hands it back next to its partial result, and Litmus
// returns the first failing test's. An unusable spill directory is the
// fault here; the server tests fill a spill disk mid-wave.
func TestSearchFaultIsError(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	search := SearchOptions{Workers: 1, SpillDir: notDir}
	res, err := Check(context.Background(), CheckRequest{Protocol: "MSI", Caches: 2, Addrs: 1, Search: search}, Hooks{})
	if err == nil || res == nil || res.Verdict() == nil {
		t.Fatalf("check over an unusable spill dir: err=%v res=%v", err, res)
	}
	lres, err := Litmus(context.Background(), LitmusRequest{Pair: []string{"MSI", "RCC"}, Shapes: []string{"MP"},
		Search: search}, Hooks{})
	if err == nil || lres == nil || lres.Passed != 0 || lres.Failed != 0 {
		t.Fatalf("litmus over an unusable spill dir: err=%v res=%+v", err, lres)
	}
}

// badMSI is MSI with the directory's GetS-in-I row forwarding to the
// owner instead of answering the requester: it parses, but the first
// GetS to an uncached line has no owner to go to.
func badMSI(t *testing.T) string {
	t.Helper()
	src := spec.ExportPCC(protocols.MustByName(protocols.NameMSI))
	good := "I msg GetS -> S : send Data msgsrc mem, addsharer"
	if !strings.Contains(src, good) {
		t.Fatal("MSI no longer has the GetS-in-I row the bad spec rewrites")
	}
	return strings.Replace(src, good, "I msg GetS -> S : send Data owner mem, addsharer", 1)
}

// TestBadProtocolFaults: a user-supplied protocol that forwards to an
// absent owner fails the check with an error naming the fault — on the
// interpreted and the compiled path, at one and four workers — instead of
// panicking.
func TestBadProtocolFaults(t *testing.T) {
	if _, err := spec.ParsePCC(badMSI(t)); err != nil {
		t.Fatalf("the bad spec no longer parses, so it tests nothing: %v", err)
	}
	for _, compiled := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			req := CheckRequest{Pair: []string{"-", "RCC"}, Spec: badMSI(t), Caches: 1, Addrs: 1, Compiled: compiled,
				Search: SearchOptions{Workers: workers}}
			res, err := Check(context.Background(), req, Hooks{})
			if err == nil || !strings.Contains(err.Error(), "absent owner") {
				t.Fatalf("compiled=%t workers=%d: err = %v, want the absent-owner fault", compiled, workers, err)
			}
			if res != nil && res.Verdict() == nil {
				t.Fatalf("compiled=%t workers=%d: a faulted check passed its verdict", compiled, workers)
			}
		}
	}
}
