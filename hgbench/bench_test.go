package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/litmus"
	"heterogen/internal/mcheck"
	"heterogen/internal/sim"
)

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json's metric lists
// equal to the ones the program reports.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, the program %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 352)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 341 || pct != 97 {
		t.Errorf("tail of 352 = %v (p%d), want 341 (p97): ten samples beyond it", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 4 || pct != 100 {
		t.Errorf("tail of 5 = %v (p%d), want the largest", v, pct)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer("test")
	tr.spans = []span{
		{ID: 1, Name: "pool", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	self := map[string]int64{}
	for _, s := range tr.finish() {
		self[s.Name] = s.Self
	}
	if self["pool"] != 40 || self["a"] != 30 || self["b"] != 40 || self["c"] != 10 {
		t.Errorf("self times %v, want pool 40, a 30, b 40, c 10", self)
	}
}

// The tests below perturb one stored expectation and show the same
// output then fails its check.

func TestPerturbedVIICExpectationFails(t *testing.T) {
	good := viicRef{States: 839616, Transitions: 2497151, Outcomes: 0, Ample: 202424}
	r := &engine.CheckResult{Result: mcheck.Result{States: 839616, Transitions: 2497151, PORReduced: 202424}}
	b := &viicBench{want: good}
	if probs := b.checkResult("check", r, nil); len(probs) != 0 {
		t.Fatalf("matching result reported %v", probs)
	}
	b.want.Transitions++
	if probs := b.checkResult("check", r, nil); len(probs) != 1 {
		t.Errorf("a perturbed transition count gave %v, want one problem", probs)
	}
}

func TestPerturbedLitmusExpectationFails(t *testing.T) {
	shape, _ := litmus.ShapeByName("MP")
	f, err := fuse(nil, 0, core.Options{}, "MESI", "RCC-O")
	if err != nil {
		t.Fatal(err)
	}
	r := litmus.RunFused(f, shape, []int{0, 1}, litmus.Options{})
	want := []litmusRef{{Shape: "MP", Pair: r.Pair, Assign: []int{0, 1}, States: r.States}}
	p := newPass()
	checkLitmus(p, []*litmus.Result{r}, want)
	if p.failed != 0 {
		t.Fatalf("matching result reported %v", p.problems)
	}
	want[0].States++
	p = newPass()
	checkLitmus(p, []*litmus.Result{r}, want)
	if p.attempted != 1 || p.failed != 1 {
		t.Errorf("a perturbed state count: %d of %d failed (%v), want 1 of 1", p.failed, p.attempted, p.problems)
	}
}

func TestPerturbedServeResultFails(t *testing.T) {
	b := &serveBench{want: map[int]string{}}
	b.templates = []jobTemplate{{name: "litmus MP", run: func(ctx context.Context) (any, error) {
		return &engine.LitmusResult{Results: []*litmus.Result{{Shape: "MP", States: 7, Elapsed: time.Second}}, Passed: 1}, nil
	}}}
	job := func(states int) *jobRec {
		data, _ := json.Marshal(&engine.LitmusResult{Results: []*litmus.Result{{Shape: "MP", States: states, Elapsed: 2 * time.Second}}, Passed: 1})
		return &jobRec{job: jobView{ID: "j1", Result: data}}
	}
	if p := b.checkJobResult(context.Background(), job(7)); p != "" {
		t.Fatalf("a matching job result (different Elapsed) reported %q", p)
	}
	if p := b.checkJobResult(context.Background(), job(8)); !strings.Contains(p, "differs") {
		t.Errorf("a perturbed job result reported %q, want a difference", p)
	}
}

// TestPerturbedFig10ExpectationFailsTheRun runs the whole fig10 workload
// (one pass, about 6 s on 2 cores) twice: as stored it passes; with one
// job's cycle count perturbed the run prints correct=false and exits 1.
func TestPerturbedFig10ExpectationFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig10 workload twice")
	}
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: "fig10", seed: 3, seconds: 1, out: t.TempDir()}
	var out, errs bytes.Buffer
	if code := run(o, rf, &out, &errs); code != 0 {
		t.Fatalf("stored expectation: exit %d\n%s", code, errs.String())
	}
	key := fig10Key("stress", sim.Job{Params: fig10Sweeps(3)[1].jobs[0].Params, Variant: sim.Figure10Variants()[0]})
	w := rf.Fig10.Offsets["3"][key]
	w[0]++
	rf.Fig10.Offsets["3"][key] = w
	out.Reset()
	if code := run(o, rf, &out, &errs); code != 1 {
		t.Fatalf("perturbed expectation: exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 54 {
		t.Errorf("perturbed run: correct=%v failed=%d attempted=%d, want false, 1, 54", res.Correct, res.Failed, res.Attempted)
	}
}

// TestServeTracedRun runs a short traced serve run end to end: set-up,
// one untraced pass, the traced pass with its concurrent submitters and
// span recording, and every per-layer metric in the result. Run it under
// -race to check the shared tracer and job records.
func TestServeTracedRun(t *testing.T) {
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	o := options{workload: "serve", seed: 1, seconds: 2, trace: true, out: t.TempDir()}
	if code := run(o, rf, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("correct=%v attempted=%d, %d metrics; want true, >0, %d", res.Correct, res.Attempted, len(res.Metrics), len(perLayerMetrics))
	}
	if res.Metrics["server.run_ms.p50"].Value <= 0 {
		t.Errorf("server.run_ms.p50 = %v, want the jobs' run time", res.Metrics["server.run_ms.p50"])
	}
}
