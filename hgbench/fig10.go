package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"heterogen/internal/core"
	"heterogen/internal/sim"
	"heterogen/internal/workload"
)

// The fig10 workload is `hgsim -family all` on MESI&RCC-O through
// sim.Sweep with hgsim's default configuration: Figure 10's 13 benchmarks,
// then the stress families, each under the 3 handshake variants.
var fig10Workload = benchWorkload{
	name:  "fig10",
	slots: [3]string{"sim_s: both sweeps", "bench_sweep_s: the 13 Figure 10 benchmarks", "stress_sweep_s: the stress families"},
	setup: setupFig10,
}

// fig10Offsets is how many workload seed offsets have stored
// expectations; --seed picks offset seed mod fig10Offsets, and offset k
// adds 9973·k to every point's workload seed (hgsim -seeds' spacing).
// Offset 0 is the default seed, whose figure10 rows are BENCH_SIM.json's.
const fig10Offsets = 8

type fig10Sweep struct {
	name string
	jobs []sim.Job
}

type fig10Bench struct {
	e      *env
	cfg    sim.Config
	sweeps []fig10Sweep
	want   map[string][2]uint64
}

// fig10Offset maps a seed onto its stored-expectation offset.
func fig10Offset(seed int64) int64 {
	return ((seed % fig10Offsets) + fig10Offsets) % fig10Offsets
}

// fig10Sweeps builds hgsim -family all's two sweeps for a seed offset.
func fig10Sweeps(offset int64) []fig10Sweep {
	mk := func(name string, points []workload.Params) fig10Sweep {
		s := fig10Sweep{name: name}
		for _, p := range points {
			p.Seed += 9973 * offset
			for _, v := range sim.Figure10Variants() {
				s.jobs = append(s.jobs, sim.Job{Pair: sim.DefaultPair(), Params: p, Variant: v})
			}
		}
		return s
	}
	return []fig10Sweep{mk("figure10", workload.Benchmarks()), mk("stress", workload.Families())}
}

func fig10Key(sweep string, j sim.Job) string {
	return sweep + "/" + j.Params.Name + "/" + j.Variant.Name
}

func setupFig10(e *env, tr *tracer, parent int) (bench, error) {
	off := fig10Offset(e.seed)
	want, ok := e.refs.Fig10.Offsets[strconv.FormatInt(off, 10)]
	if !ok {
		return nil, fmt.Errorf("no stored fig10 expectation for seed offset %d", off)
	}
	pair := sim.DefaultPair()
	for _, v := range sim.Figure10Variants() {
		if _, err := fuse(tr, parent, core.Options{Handshake: v.Handshake}, pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	b := &fig10Bench{e: e, cfg: sim.TableIIIMesh(8), sweeps: fig10Sweeps(off), want: want}
	for _, s := range b.sweeps {
		for _, j := range s.jobs {
			if _, ok := want[fig10Key(s.name, j)]; !ok {
				return nil, fmt.Errorf("no stored fig10 expectation for %s", fig10Key(s.name, j))
			}
		}
	}
	// Warm the sweep path: the first benchmark's 3 variants at a tenth of
	// the trace length.
	warm := append([]sim.Job(nil), b.sweeps[0].jobs[:3]...)
	for i := range warm {
		warm[i].Scale = 0.1
	}
	var err error
	tr.do("sim.Sweep warm-up", parent, func(int) {
		for _, r := range sim.Sweep(b.cfg, warm, e.workers) {
			if r.Err != nil {
				err = r.Err
			}
		}
	})
	return b, err
}

func (b *fig10Bench) close() {}

func (b *fig10Bench) pass(ctx context.Context) *passResult {
	p := newPass()
	var walls [2]float64
	var memops uint64
	for i, s := range b.sweeps {
		var res []sim.Result
		if i > 0 {
			settle()
		}
		walls[i] = timed(func() { res = sim.Sweep(b.cfg, s.jobs, b.e.workers) })
		for _, r := range res {
			p.op(b.checkJob(s.name, r)...)
			if r.Stats != nil {
				memops += r.Stats.MemOps
			}
		}
	}
	total := walls[0] + walls[1]
	p.t = [3]float64{total, walls[0], walls[1]}
	p.named["sim_s"], p.named["bench_sweep_s"], p.named["stress_sweep_s"] = total, walls[0], walls[1]
	p.named["sim_memops_per_s"] = ratio(float64(memops), total)
	return p
}

// checkJob compares one simulated job's cycles and flits with the stored
// expectation for the seed.
func (b *fig10Bench) checkJob(sweep string, r sim.Result) []string {
	key := fig10Key(sweep, r.Job)
	if r.Err != nil {
		return errProblem(key, r.Err)
	}
	w := b.want[key]
	if r.Stats.Cycles != w[0] || r.Stats.Flits != w[1] {
		return []string{problemf("%s: %d cycles, %d flits; want %d, %d", key, r.Stats.Cycles, r.Stats.Flits, w[0], w[1])}
	}
	return nil
}

// tracedPass runs both sweeps the way sim.Sweep does — a pool of NumCPU
// workers, each job generating its workload and simulating it — with
// spans around workload.Generate and sim.RunBenchmarkPair.
func (b *fig10Bench) tracedPass(ctx context.Context, tr *tracer) (*passResult, map[string]float64) {
	p := newPass()
	root := tr.begin("fig10 pass", 0, "")
	rt0 := sampleRuntime()
	layout := workload.Layout{BigCores: b.cfg.BigCores, TinyCores: b.cfg.TinyCores}
	var gen, run, jobSpans []float64
	var total sim.Stats
	var mu sync.Mutex
	var wall float64
	for _, s := range b.sweeps {
		sweep := tr.begin("sim.Sweep "+s.name, root, "")
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < b.e.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					j := s.jobs[i]
					id := tr.begin("sim job", sweep, fig10Key(s.name, j))
					var wl *workload.Workload
					g := tr.do("workload.Generate", id, func(int) { wl = workload.Generate(j.Params, layout) })
					var st *sim.Stats
					var err error
					r := tr.do("sim.RunBenchmarkPair", id, func(int) { st, err = sim.RunBenchmarkPair(b.cfg, j.Pair, j.Variant, wl) })
					d := tr.end(id)
					mu.Lock()
					p.op(b.checkJob(s.name, sim.Result{Job: j, Stats: st, Err: err})...)
					gen, run, jobSpans = append(gen, secs(g)), append(run, secs(r)), append(jobSpans, secs(d))
					if st != nil {
						total.MemOps += st.MemOps
						total.Messages += st.Messages
						total.Flits += st.Flits
						total.Handshakes += st.Handshakes
						total.Cycles += st.Cycles
					}
					mu.Unlock()
				}
			}()
		}
		for i := range s.jobs {
			next <- i
		}
		close(next)
		wg.Wait()
		wall += secs(tr.end(sweep))
	}
	runS := sum(run)
	m := map[string]float64{
		"workload.generate_s":   sum(gen),
		"sim.run_s":             runS,
		"sim.host_ns_per_memop": ratio(runS*1e9, float64(total.MemOps)),
		"sim.host_ns_per_msg":   ratio(runS*1e9, float64(total.Messages)),
		"sim.memops_per_s":      ratio(float64(total.MemOps), wall),
		"sim.jobs":              float64(len(jobSpans)),
		"sim.memops":            float64(total.MemOps),
		"sim.messages":          float64(total.Messages),
		"sim.flits":             float64(total.Flits),
		"sim.handshakes":        float64(total.Handshakes),
		"sim.cycles":            float64(total.Cycles),
		"sim.busy_frac":         ratio(sum(jobSpans), wall*float64(b.e.workers)),
		"sim.job_max_s":         maxOf(jobSpans),
	}
	mergeMetrics(m, runtimeMetrics(rt0, sampleRuntime()))
	p.wall = secs(tr.end(root))
	return p, m
}
