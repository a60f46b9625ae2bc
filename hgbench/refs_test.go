package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/sim"
)

// TestWriteRefs regenerates ref/*.json from the current code:
//
//	HGBENCH_WRITE_REFS=1 go test -run TestWriteRefs -timeout 20m
//
// Only do this when a change is meant to move an expectation, and say so:
// the stored files are what every benchmark run is checked against.
func TestWriteRefs(t *testing.T) {
	if os.Getenv("HGBENCH_WRITE_REFS") != "1" {
		t.Skip("set HGBENCH_WRITE_REFS=1 to regenerate the stored expectations")
	}
	ctx := context.Background()
	workers := runtime.NumCPU()
	b := &viicBench{e: &env{workers: workers}}

	res, err := engine.Check(ctx, b.checkRequest(""), engine.Hooks{})
	if err != nil || res.Verdict() != nil {
		t.Fatalf("vii-c check: %v %v", err, res.Verdict())
	}
	dir := t.TempDir()
	f, err := fuse(nil, 0, core.Options{}, viicPair...)
	if err != nil {
		t.Fatal(err)
	}
	cf, _, err := core.CompileOrLoadCtx(ctx, f, b.compileConfig(), dir)
	if err != nil {
		t.Fatal(err)
	}
	art, err := os.ReadFile(filepath.Join(dir, cf.Digest()+core.ArtifactExt))
	if err != nil {
		t.Fatal(err)
	}
	writeRef(t, "viic.json", viicRef{States: res.States, Transitions: res.Transitions, Outcomes: len(res.Outcomes),
		Ample: res.PORReduced, ArtifactSHA: sha256Hex(art)})

	lit, err := engine.Litmus(ctx, engine.LitmusRequest{MaxThreads: litmusMaxThreads,
		Search: engine.SearchOptions{Workers: workers}}, engine.Hooks{})
	if err != nil || lit.Verdict() != nil {
		t.Fatalf("litmus suite: %v %v", err, lit.Verdict())
	}
	var lrefs []litmusRef
	for _, r := range lit.Results {
		lrefs = append(lrefs, litmusRef{Shape: r.Shape, Pair: r.Pair, Assign: r.Assign, States: r.States})
	}
	writeRef(t, "litmus.json", lrefs)

	fr := fig10Refs{Offsets: map[string]map[string][2]uint64{}}
	cfg := sim.TableIIIMesh(8)
	for off := int64(0); off < fig10Offsets; off++ {
		jobs := map[string][2]uint64{}
		for _, s := range fig10Sweeps(off) {
			for _, r := range sim.Sweep(cfg, s.jobs, workers) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				jobs[fig10Key(s.name, r.Job)] = [2]uint64{r.Stats.Cycles, r.Stats.Flits}
			}
		}
		fr.Offsets[strconv.FormatInt(off, 10)] = jobs
	}
	writeRef(t, "fig10.json", fr)
}

func writeRef(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("ref", name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFig10DefaultSeedIsBenchSim pins the default seed's stored figure10
// expectation to BENCH_SIM.json's figure10 section, which that commit's
// hgsim produced.
func TestFig10DefaultSeedIsBenchSim(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCH_SIM.json"))
	if err != nil {
		t.Skip("BENCH_SIM.json not found:", err)
	}
	var rep struct {
		Sections []struct {
			Name string    `json:"name"`
			Rows []sim.Row `json:"rows"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	want := rf.Fig10.Offsets["0"]
	n := 0
	for _, s := range rep.Sections {
		if s.Name != "figure10" {
			continue
		}
		for _, row := range s.Rows {
			for variant, cycles := range row.Cycles {
				key := "figure10/" + row.Benchmark + "/" + variant
				if got := want[key]; got != [2]uint64{cycles, row.Flits[variant]} {
					t.Errorf("%s: stored %v, BENCH_SIM.json %d cycles %d flits", key, got, cycles, row.Flits[variant])
				}
				n++
			}
		}
	}
	if n != 39 {
		t.Errorf("compared %d figure10 jobs, want 39", n)
	}
}
