package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/litmus"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/spec"
)

// The litmus workload is the full §VII-B suite through engine.Litmus: all
// 8 Table II pairs, all 13 shapes up to 3 threads, heterogeneous
// allocations, the interpreted composite — 352 small exact-storage
// searches run in parallel across tests.
var litmusWorkload = benchWorkload{
	name:  "litmus",
	slots: [3]string{"suite_s: the whole suite", "test_tail_s: per-test search time at the tail percentile", "test_p50_s: median per-test search time"},
	setup: setupLitmus,
}

const litmusMaxThreads = 3

type litmusBench struct{ e *env }

type suiteJob struct {
	fusion *core.Fusion
	shape  litmus.Shape
	assign []int
}

// setupLitmus fuses every pair, lists the suite against the stored
// expectations, and warms the suite path with two shapes on MSI&MSI.
func setupLitmus(e *env, tr *tracer, parent int) (bench, error) {
	jobs, err := suiteJobs(tr, parent)
	if err != nil {
		return nil, err
	}
	if len(jobs) != len(e.refs.Litmus) {
		return nil, fmt.Errorf("the suite has %d tests, the stored expectations %d", len(jobs), len(e.refs.Litmus))
	}
	var res *engine.LitmusResult
	tr.do("engine.Litmus warm-up", parent, func(int) {
		res, err = engine.Litmus(context.Background(), engine.LitmusRequest{Pair: []string{"MSI", "MSI"},
			Shapes: []string{"MP", "SB"}, Search: engine.SearchOptions{Workers: e.workers}}, engine.Hooks{})
	})
	if err == nil {
		err = res.Verdict()
	}
	return &litmusBench{e: e}, err
}

// suiteJobs fuses every Table II pair and lists the suite's tests in the
// order litmus.RunSuiteCtx runs and reports them.
func suiteJobs(tr *tracer, parent int) ([]suiteJob, error) {
	var jobs []suiteJob
	for _, pr := range core.TableIIPairs() {
		f, err := fuse(tr, parent, core.Options{}, pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		f.Freeze()
		for _, shape := range litmus.Shapes() {
			threads := len(shape.Prog().Threads)
			if threads > litmusMaxThreads {
				continue
			}
			for _, assign := range litmus.Allocations(threads, 2, false) {
				jobs = append(jobs, suiteJob{fusion: f, shape: shape, assign: assign})
			}
		}
	}
	return jobs, nil
}

func (b *litmusBench) close() {}

func (b *litmusBench) pass(ctx context.Context) *passResult {
	p := newPass()
	res, suite, err := timed2(func() (*engine.LitmusResult, error) {
		return engine.Litmus(ctx, engine.LitmusRequest{MaxThreads: litmusMaxThreads,
			Search: engine.SearchOptions{Workers: b.e.workers}}, engine.Hooks{})
	})
	if err != nil {
		p.op(errProblem("litmus suite", err)...)
		return p
	}
	if res.Cancelled {
		p.problems = append(p.problems, "litmus suite: cancelled")
	}
	checkLitmus(p, res.Results, b.e.refs.Litmus)
	var times []float64
	for _, r := range res.Results {
		times = append(times, secs(r.Elapsed))
	}
	tailT, pct := tail(times)
	p.t = [3]float64{suite, tailT, median(times)}
	p.named["suite_s"], p.named["test_p50_ms"] = suite, 1000*median(times)
	p.named[fmt.Sprintf("test_tail_ms.p%d", pct)] = 1000 * tailT
	p.named["tests"] = float64(len(times))
	return p
}

// checkLitmus accounts every expected test: it must be present, in suite
// order, pass against the memmodel axiomatic model and visit exactly the
// stored number of states.
func checkLitmus(p *passResult, got []*litmus.Result, want []litmusRef) {
	for i, w := range want {
		if i >= len(got) {
			p.op(problemf("litmus %s %s %v: missing", w.Shape, w.Pair, w.Assign))
			continue
		}
		r := got[i]
		var probs []string
		if r.Shape != w.Shape || r.Pair != w.Pair || !reflect.DeepEqual(r.Assign, w.Assign) {
			probs = append(probs, problemf("litmus test %d is %s %s %v, want %s %s %v", i, r.Shape, r.Pair, r.Assign, w.Shape, w.Pair, w.Assign))
		}
		if !r.Pass() {
			probs = append(probs, problemf("litmus %s %s %v: %s", w.Shape, w.Pair, w.Assign, r))
		}
		if r.States != w.States {
			probs = append(probs, problemf("litmus %s %s %v: %d states, want %d", w.Shape, w.Pair, w.Assign, r.States, w.States))
		}
		p.op(probs...)
	}
	for _, r := range got[min(len(got), len(want)):] {
		p.op(problemf("litmus %s %s %v: unexpected test", r.Shape, r.Pair, r.Assign))
	}
}

// tracedPass runs the suite the way litmus.RunSuiteCtx does — a pool of
// NumCPU workers, each test a sequential search — with a span around
// every litmus.RunFusedCtx, then times memmodel's axiomatic allowed-
// outcome sets for every test separately.
func (b *litmusBench) tracedPass(ctx context.Context, tr *tracer) (*passResult, map[string]float64) {
	p := newPass()
	root := tr.begin("litmus pass", 0, "")
	rt0 := sampleRuntime()
	jobs, err := suiteJobs(tr, root)
	if err != nil {
		p.op(errProblem("litmus suite", err)...)
		return p, map[string]float64{}
	}
	opts := litmus.Options{MaxThreads: litmusMaxThreads, Encoding: mcheck.EncodingBinary, POR: mcheck.PORAuto,
		Workers: b.e.workers, ExploreWorkers: 1}
	results := make([]*litmus.Result, len(jobs))
	spans := make([]float64, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	suite := tr.begin("litmus suite", root, "")
	for w := 0; w < b.e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				id := tr.begin("litmus.RunFusedCtx", suite, fmt.Sprintf("%s %s %v", j.shape.Name, j.fusion.Name(), j.assign))
				results[i] = litmus.RunFusedCtx(ctx, j.fusion, j.shape, j.assign, opts)
				spans[i] = secs(tr.end(id))
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := secs(tr.end(suite))
	cpu := cpuSeconds() - cpu0
	checkLitmus(p, results, b.e.refs.Litmus)

	var search, states float64
	for _, r := range results {
		search += secs(r.Elapsed)
		states += float64(r.States)
	}
	workers := float64(b.e.workers)
	m := map[string]float64{
		"litmus.tests":            float64(len(results)),
		"litmus.search_s":         search,
		"litmus.self_s":           sum(spans) - search,
		"litmus.busy_frac":        ratio(sum(spans), wall*workers),
		"litmus.test_max_s":       maxOf(spans),
		"mcheck.states":           states,
		"mcheck.states_per_s":     ratio(states, wall),
		"mcheck.cpu_per_state_us": ratio(cpu*1e6, states),
		"mcheck.cpu_util":         ratio(cpu, wall*workers),
	}
	mergeMetrics(m, runtimeMetrics(rt0, sampleRuntime()))
	p.wall = secs(tr.end(root))

	// memmodel's share: the allowed-outcome sets RunFusedCtx computes for
	// each test's translated program, timed on their own.
	root = tr.begin("litmus memmodel", 0, "")
	defer tr.end(root)
	var allowed float64
	for _, j := range jobs {
		var ap *memmodel.Program
		var addrs map[string]spec.Addr
		tr.do("litmus.Translate", root, func(int) { ap, _, _, addrs = litmus.Translate(j.shape.Prog(), j.fusion.Compound, j.assign) })
		cm, err := j.fusion.CompoundModel(j.assign)
		if err != nil {
			p.problems = append(p.problems, problemf("litmus %s: compound model: %v", j.shape.Name, err))
			continue
		}
		memKeys := map[string]string{}
		for name, a := range addrs {
			memKeys[name] = fmt.Sprintf("%d", a)
		}
		allowed += secs(tr.do("memmodel.AllowedOutcomesMem", root, func(int) { memmodel.AllowedOutcomesMem(ap, cm, memKeys) }))
	}
	m["memmodel.allowed_s"] = allowed
	return p, m
}
