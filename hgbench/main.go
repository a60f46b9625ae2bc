// Command hgbench is the repository's benchmark: one run of one workload
// of the verify → litmus → simulate → serve pipeline, through the same
// public entry points the CLIs and the hgserve daemon use.
//
//	hgbench --workload vii-c|litmus|fig10|serve --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (reporting the median set-up
// time), then repeats untraced passes of the workload's operations until
// S seconds have gone by, checking every output against a stored or
// independently computed reference. With --trace 1 it adds one traced
// pass, which records spans around each call into a layer and derives the
// per-layer metrics from them. The last line of standard output is one
// JSON object: correct, attempted, failed and metrics. The run exits
// non-zero when any reference check fails. README.md defines every
// metric per workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"heterogen/internal/benchmeta"
)

// A run sets its workload up setupBefore times before its passes, keeping
// the last, and setupAfter times after them, so the reps sample more than
// one moment of a shared machine; setup_s is the median of all. A set-up
// builds the workload's inputs and warms its path with one small
// operation through the same entry point.
const (
	setupBefore = 5
	setupAfter  = 10
	setupReps   = setupBefore + setupAfter
)

// passResult is what one pass of a workload's operations produced.
type passResult struct {
	// t holds the workload's three headline times in seconds, reported
	// as t1_s, t2_s and t3_s (workload.slots names them).
	t [3]float64
	// named carries the same and further pass values under the
	// workload-specific names the record uses (verdict_s, suite_s, ...).
	named map[string]float64
	// attempted counts the pass's operations; failed those that failed,
	// were refused, cancelled, unfinished or produced a wrong output.
	attempted, failed int
	// problems describes every failure and reference mismatch.
	problems []string
	// wall is the pass's wall time, the base of the tracing overhead: the
	// whole pass unless the pass sets it to the part it times (serve
	// leaves out checking results; a traced pass leaves out the extra
	// measurements it makes after its pass span).
	wall float64
}

func newPass() *passResult { return &passResult{named: map[string]float64{}} }

// op accounts one attempted operation with its problems (none = ok).
func (p *passResult) op(problems ...string) {
	p.attempted++
	if len(problems) > 0 {
		p.failed++
		p.problems = append(p.problems, problems...)
	}
}

// bench is a set-up workload, ready to run passes.
type bench interface {
	// pass runs the workload's operations once with tracing off.
	pass(ctx context.Context) *passResult
	// tracedPass runs them once with spans around each layer call,
	// returning the pass and the per-layer metrics derived from it.
	tracedPass(ctx context.Context, tr *tracer) (*passResult, map[string]float64)
	close()
}

// env is what a workload's set-up gets: the run's inputs and places.
type env struct {
	seed    int64
	seconds int
	workers int    // search and pool parallelism: runtime.NumCPU
	work    string // scratch directory for this run's files
	refs    *refs
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	// slots names what t1_s, t2_s and t3_s measure on this workload.
	slots [3]string
	setup func(e *env, tr *tracer, parent int) (bench, error)
}

var workloads = []benchWorkload{viicWorkload, litmusWorkload, fig10Workload, serveWorkload}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: vii-c, litmus, fig10 or serve")
	flag.Int64Var(&o.seed, "seed", 0, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measure for this long (at least one pass)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = add a traced pass and report the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for scratch files, spans and records")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloadByName(o.workload); !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: hgbench --workload vii-c|litmus|fig10|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rf, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgbench:", err)
		os.Exit(1)
	}
	os.Exit(run(o, rf, os.Stdout, os.Stderr))
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of a run, written to the out directory and
// to standard error: runner metadata, seed, the workload-specific values
// and every problem found.
type record struct {
	Schema    string             `json:"schema"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Runner    benchmeta.Runner   `json:"runner"`
	Slots     map[string]string  `json:"slots"`
	Passes    int                `json:"passes"`
	SetupS    []float64          `json:"setup_s"`
	Named     map[string]float64 `json:"named"`
	Result    result             `json:"result"`
	Problems  []string           `json:"problems,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// run executes one benchmark run and returns the process exit code. A
// set-up failure prints no result.
func run(o options, rf *refs, stdout, stderr io.Writer) int {
	w, _ := workloadByName(o.workload)
	ctx := context.Background()
	runID := fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano())
	work := filepath.Join(o.out, "work", runID)
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: o.seed, seconds: o.seconds, workers: runtime.NumCPU(), work: work, refs: rf}

	var tr *tracer
	if o.trace {
		tr = newTracer(runID)
	}
	var setups []float64
	setUp := func() (bench, error) {
		start := time.Now()
		id := tr.begin("setup", 0, "")
		b, err := w.setup(e, tr, id)
		tr.end(id)
		setups = append(setups, secs(time.Since(start)))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		return b, nil
	}
	var b bench
	for i := 0; i < setupBefore; i++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = setUp(); err != nil {
			fmt.Fprintln(stderr, "hgbench:", err)
			return 1
		}
	}
	defer b.close()

	// Untraced passes until the measuring time is up (at least one).
	var passes []*passResult
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		passes = append(passes, timedPass(func() *passResult { return b.pass(ctx) }))
	}

	var traced *passResult
	var layers map[string]float64
	if o.trace {
		settle()
		traced, layers = b.tracedPass(ctx, tr)
	}
	for i := 0; i < setupAfter; i++ {
		extra, err := setUp()
		if err != nil {
			fmt.Fprintln(stderr, "hgbench:", err)
			return 1
		}
		extra.close()
	}

	res := result{Metrics: map[string]metricValue{}}
	var problems []string
	named := map[string]float64{}
	account := func(p *passResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		problems = append(problems, p.problems...)
	}
	for _, p := range passes {
		account(p)
	}
	for k := range passes[0].named {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.named[k])
		}
		named[k] = median(xs)
	}

	var traceFile string
	if o.trace {
		account(traced)
		spans := tr.finish()
		layers["core.fuse_s"] = setupFuseSeconds(spans) / setupReps
		layers["trace.overhead_s"] = traced.wall - median(passWalls(passes))
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
		}
		traceFile = filepath.Join(o.out, "traces", runID+".json")
		err := os.MkdirAll(filepath.Dir(traceFile), 0o755)
		if err == nil {
			err = writeTrace(traceFile, map[string]any{"run": runID, "workload": w.name, "seed": o.seed,
				"runner": benchmeta.Collect(runnerNote)}, spans, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hgbench: writing trace:", err)
		}
	} else {
		var ts [3][]float64
		for _, p := range passes {
			for i := range ts {
				ts[i] = append(ts[i], p.t[i])
			}
		}
		vals := map[string]float64{"setup_s": median(setups), "peak_rss_mb": peakRSSMB(),
			"t1_s": median(ts[0]), "t2_s": median(ts[1]), "t3_s": median(ts[2])}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0

	rec := record{Schema: "hgbench/v1", Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Runner: benchmeta.Collect(runnerNote), Passes: len(passes), SetupS: setups, Named: named,
		Result: res, Problems: problems, TraceFile: traceFile,
		Slots: map[string]string{"t1_s": w.slots[0], "t2_s": w.slots[1], "t3_s": w.slots[2]}}
	writeRecord(filepath.Join(o.out, "records", runID+".json"), rec, stderr)

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hgbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "hgbench: %s: %d of %d operations failed their checks\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

const runnerNote = "hgbench: searches and pools use Workers = NumCPU"

// timedPass settles the heap, runs one pass and stamps its wall time
// unless the pass did.
func timedPass(f func() *passResult) *passResult {
	settle()
	start := time.Now()
	p := f()
	if p.wall == 0 {
		p.wall = secs(time.Since(start))
	}
	return p
}

func passWalls(ps []*passResult) []float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.wall)
	}
	return xs
}

// setupFuseSeconds sums the core.Fuse spans made during set-up.
func setupFuseSeconds(spans []span) float64 {
	setup := map[int]bool{}
	total := 0.0
	for _, s := range spans {
		if s.Name == "setup" {
			setup[s.ID] = true
		}
		if s.Name == "core.Fuse" && setup[s.Parent] {
			total += s.dur().Seconds()
		}
	}
	return total
}

// writeRecord writes the record file and echoes the record to w.
func writeRecord(path string, rec record, w io.Writer) {
	data, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(w, "hgbench: record:", err)
		return
	}
	fmt.Fprintf(w, "record: %s\n", data)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(w, "hgbench: record:", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(w, "hgbench: record:", err)
	}
}

// problemf formats one reference-check problem.
func problemf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// errProblem turns an operation error into a problem list.
func errProblem(what string, err error) []string {
	if err == nil {
		return nil
	}
	return []string{what + ": " + strings.TrimSpace(err.Error())}
}
