package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// testServer builds a server with quiet logs and an httptest front end,
// and tears both down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 5 * time.Millisecond
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.HardCancel()
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// postJob submits one request body and returns the accepted job ID.
func postJob(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return j.ID
}

// getJob fetches a job's JSON view.
func getJob(t *testing.T, ts *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls a job until it reaches a terminal state (or the given
// one) and returns its final view.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m := getJob(t, ts, id)
		var state JobState
		json.Unmarshal(m["state"], &state)
		if state == want || (want == "" && state.Terminal()) {
			return m
		}
		if state.Terminal() {
			t.Fatalf("job %s ended %q while waiting for %q: %s", id, state, want, m["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, state, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentChecksMatchDirect submits two check jobs at once and
// verifies both results are byte-identical to the engine run the CLI
// would have done directly — the server adds queueing, not semantics.
func TestConcurrentChecksMatchDirect(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	reqJSON := `{"check":{"protocol":"MSI","caches":2,"addrs":1,"search":{"workers":1,"hash":true}}}`
	id1 := postJob(t, ts, reqJSON)
	id2 := postJob(t, ts, reqJSON)

	direct, err := engine.Check(context.Background(), engine.CheckRequest{
		Protocol: "MSI", Caches: 2, Addrs: 1,
		Search: engine.SearchOptions{Workers: 1, Hash: true},
	}, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)

	for _, id := range []string{id1, id2} {
		m := waitState(t, ts, id, StateDone)
		got := m["result"]
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			t.Fatalf("job %s result differs from the direct engine run:\n got %s\nwant %s", id, got, want)
		}
	}
}

// TestCompileCacheAcrossJobs: the second identical compile job is served
// from the server's shared artifact cache, and its table downloads in
// both binary and textual form.
func TestCompileCacheAcrossJobs(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, CompileCache: t.TempDir()})
	body := `{"compile":{"pair":["MSI","MSI"],"search":{"workers":1}}}`

	var sources []string
	var last string
	for i := 0; i < 2; i++ {
		last = postJob(t, ts, body)
		m := waitState(t, ts, last, StateDone)
		var res struct {
			Stats struct {
				Source string `json:"Source"`
			} `json:"stats"`
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(m["result"], &res); err != nil {
			t.Fatalf("decoding compile result: %v (%s)", err, m["result"])
		}
		sources = append(sources, res.Stats.Source)
	}
	if sources[0] != "compiler" || sources[1] != "cache" {
		t.Fatalf("compile sources %v, want [compiler cache]", sources)
	}

	for _, kind := range []string{"hgcf", "table"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + last + "/artifact?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(data) == 0 {
			t.Fatalf("artifact %s: status %d, %d bytes", kind, resp.StatusCode, len(data))
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"hgserve_compile_cache_hits_total 1",
		"hgserve_compile_cache_misses_total 1",
		`hgserve_jobs{state="done"} 2`,
		"hgserve_mem_pool_bytes",
		"hgserve_states_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCancelRunningJob starts a deliberately large check, watches its SSE
// stream for progress, cancels it over the API and verifies the partial
// result comes back flagged — then reruns a small job to show the worker
// survived.
func TestCancelRunningJob(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1, MemPoolBytes: 256 << 20})
	// MESI×RCC-O at 2 caches/cluster runs for minutes uncancelled; the
	// max_states bound keeps the worst case finite if cancellation broke.
	id := postJob(t, ts, `{"check":{"pair":["MESI","RCC-O"],"caches":2,
		"search":{"workers":1,"hash":true,"max_states":4000000}}}`)
	waitState(t, ts, id, StateRunning)

	// SSE: read events until the first progress report proves the search
	// is actually expanding states.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sc := bufio.NewScanner(sseResp.Body)
	sawEvent := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			sawEvent = true
		}
		if strings.HasPrefix(line, "event: progress") {
			break
		}
		if strings.HasPrefix(line, "event: state") {
			// Keep reading; progress may follow.
			continue
		}
	}
	if !sawEvent {
		t.Fatal("SSE stream delivered no events")
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	m := waitState(t, ts, id, StateCancelled)
	var res struct {
		Cancelled bool `json:"Cancelled"`
		States    int  `json:"States"`
	}
	if err := json.Unmarshal(m["result"], &res); err != nil {
		t.Fatalf("decoding cancelled result: %v (%s)", err, m["result"])
	}
	if !res.Cancelled || res.States == 0 {
		t.Fatalf("cancelled job result: Cancelled=%v States=%d", res.Cancelled, res.States)
	}
	if used := srv.Pool().Used(); used != 0 {
		t.Fatalf("memory pool still holds %d bytes after the cancelled job", used)
	}

	// The worker pool is intact: a follow-up job completes.
	id2 := postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id2, StateDone)
}

// TestSubmitValidationAndHealth covers the request envelope rules, 404s
// and the health endpoint's drain behavior.
func TestSubmitValidationAndHealth(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1})

	for _, body := range []string{`{}`, `{"check":{},"compile":{"pair":["MSI","MSI"]}}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"check":{"protocol":"MSI"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestWorkerBudgetClamp pins the per-job parallelism budget: a request
// asking for the whole machine gets the server's cap instead.
func TestWorkerBudgetClamp(t *testing.T) {
	srv := New(Config{JobWorkers: 1, MaxWorkersPerJob: 2,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Drain()
	for req, want := range map[int]int{0: 2, 8: 2, 1: 1} {
		got := srv.applyPolicy(engine.SearchOptions{Workers: req}).Workers
		if got != want {
			t.Errorf("workers %d clamped to %d, want %d", req, got, want)
		}
	}
	if got := srv.applyPolicy(engine.SearchOptions{SpillDir: "/elsewhere"}).SpillDir; got != "/elsewhere" {
		t.Errorf("spill dir rewritten with no SpillRoot configured: %q", got)
	}
	srv2 := New(Config{SpillRoot: "/pool", Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv2.Drain()
	if got := srv2.applyPolicy(engine.SearchOptions{SpillDir: "/elsewhere"}).SpillDir; got != "/pool" {
		t.Errorf("spill dir not rewritten under SpillRoot: %q", got)
	}
	if got := srv2.applyPolicy(engine.SearchOptions{}).SpillDir; got != "" {
		t.Errorf("spill imposed on a request that declined it: %q", got)
	}
}

// fullDisk fails every write with ENOSPC once limit bytes have landed.
type fullDisk struct {
	w       io.Writer
	written *atomic.Int64
	limit   int64
}

func (f fullDisk) Write(p []byte) (int, error) {
	if f.written.Add(int64(len(p))) > f.limit {
		return 0, syscall.ENOSPC
	}
	return f.w.Write(p)
}

// TestSpillFaultFailsJob: a check job whose spill disk fills mid-wave ends
// "failed" with the fault as its error, at one and four search workers,
// and the daemon survives it: no spill file is left behind, /healthz
// answers, and the next job completes. MESI with three caches and two
// addresses outgrows the default 32Ki-record spill ring within a second.
func TestSpillFaultFailsJob(t *testing.T) {
	var written atomic.Int64
	root := t.TempDir()
	_, ts := testServer(t, Config{JobWorkers: 1, SpillRoot: root,
		spillWriter: func(w io.Writer) io.Writer { return fullDisk{w, &written, 1 << 20} }})
	for _, workers := range []int{1, 4} {
		written.Store(0)
		id := postJob(t, ts, fmt.Sprintf(`{"check":{"protocol":"MESI","caches":3,"addrs":2,
			"search":{"workers":%d,"hash":true,"max_states":2000000,"spill_dir":"spill"}}}`, workers))
		m := waitState(t, ts, id, StateFailed)
		var msg string
		json.Unmarshal(m["error"], &msg)
		if !strings.Contains(msg, syscall.ENOSPC.Error()) {
			t.Fatalf("workers=%d: failed job's error %q does not name the full disk", workers, msg)
		}
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Fatalf("failed jobs left %d entries in the spill root", len(left))
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a failed job: status %d", resp.StatusCode)
	}
	id := postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id, StateDone)
}

// TestTableMissFailsJob: a check job over a compiled table with one entry
// deleted ends "failed" with the table miss as its error, at one and four
// search workers, and the daemon survives it: /healthz answers and the
// next job completes. POR is off so the search delivers every recorded
// (state, message) pair, the deleted one included.
func TestTableMissFailsJob(t *testing.T) {
	msi, rcc := protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC)
	f, err := core.Fuse(core.Options{}, msi, rcc)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := core.Compile(f, core.TableIICompileConfig(true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.DropEntry(0, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dropped"+core.ArtifactExt)
	if err := cf.WriteArtifact(path); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{JobWorkers: 1})
	for _, workers := range []int{1, 4} {
		id := postJob(t, ts, fmt.Sprintf(`{"check":{"table":%q,"search":{"workers":%d,"no_por":true}}}`, path, workers))
		m := waitState(t, ts, id, StateFailed)
		var msg string
		json.Unmarshal(m["error"], &msg)
		if !strings.Contains(msg, "has no entry for state 0") {
			t.Fatalf("workers=%d: failed job's error %q does not name the table miss", workers, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a failed job: status %d", resp.StatusCode)
	}
	id := postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id, StateDone)
}

// TestBadProtocolFailsJob: a check job whose inline protocol forwards to
// an absent owner (MSI's GetS-in-I row rewritten to send to the owner)
// ends "failed" with that fault as its error, at one and four search
// workers, and the daemon survives it: /healthz answers and the next job
// completes.
func TestBadProtocolFailsJob(t *testing.T) {
	src := spec.ExportPCC(protocols.MustByName(protocols.NameMSI))
	good := "I msg GetS -> S : send Data msgsrc mem, addsharer"
	if !strings.Contains(src, good) {
		t.Fatal("MSI no longer has the GetS-in-I row the bad spec rewrites")
	}
	bad := strings.Replace(src, good, "I msg GetS -> S : send Data owner mem, addsharer", 1)
	_, ts := testServer(t, Config{JobWorkers: 1})
	for _, workers := range []int{1, 4} {
		body, err := json.Marshal(map[string]any{"check": engine.CheckRequest{Pair: []string{"-", "RCC"}, Spec: bad,
			Caches: 1, Addrs: 1, Search: engine.SearchOptions{Workers: workers}}})
		if err != nil {
			t.Fatal(err)
		}
		m := waitState(t, ts, postJob(t, ts, string(body)), StateFailed)
		var msg string
		json.Unmarshal(m["error"], &msg)
		if !strings.Contains(msg, "absent owner") {
			t.Fatalf("workers=%d: failed job's error %q does not name the fault", workers, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a failed job: status %d", resp.StatusCode)
	}
	id := postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id, StateDone)
}
