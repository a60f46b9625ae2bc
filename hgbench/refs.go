package main

import (
	"embed"
	"encoding/json"
	"fmt"
)

// The stored expectations every run checks its outputs against.
// refs_test.go regenerates them (HGBENCH_WRITE_REFS=1 go test -run
// TestWriteRefs) and pins the fig10 default seed to BENCH_SIM.json.
//
//go:embed ref/*.json
var refFiles embed.FS

// refs holds the stored expectations.
type refs struct {
	VIIC   viicRef
	Litmus []litmusRef
	Fig10  fig10Refs
}

// viicRef is the §VII-C search's exact outcome.
type viicRef struct {
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Outcomes    int    `json:"outcomes"`
	Ample       int    `json:"ample"`
	ArtifactSHA string `json:"artifact_sha256"`
}

// litmusRef is one suite test: its identity and exact state count.
type litmusRef struct {
	Shape  string `json:"shape"`
	Pair   string `json:"pair"`
	Assign []int  `json:"assign"`
	States int    `json:"states"`
}

// fig10Refs maps a workload seed offset to the expected [cycles, flits]
// of every sweep job, keyed "sweep/benchmark/variant".
type fig10Refs struct {
	Offsets map[string]map[string][2]uint64 `json:"offsets"`
}

func loadRefs() (*refs, error) {
	r := &refs{}
	for file, into := range map[string]any{"ref/viic.json": &r.VIIC, "ref/litmus.json": &r.Litmus, "ref/fig10.json": &r.Fig10} {
		data, err := refFiles.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
	}
	return r, nil
}
