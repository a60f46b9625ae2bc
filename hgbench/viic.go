package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// The vii-c workload is the §VII-C deadlock-freedom check on fused
// MESI&RCC-O: 1 cache per cluster, 2 addresses, evictions at any time,
// hash compaction and POR on. A pass runs it three ways: an interpreted
// engine.Check, a cold compile of the fused directory into an empty
// artifact cache, and a compiled engine.Check that hits that cache.
var viicWorkload = benchWorkload{
	name:  "vii-c",
	slots: [3]string{"verdict_s: interpreted check", "compile_s: cold compile to a written artifact", "verdict_cached_s: cache hit plus table check"},
	setup: setupVIIC,
}

var viicPair = []string{protocols.NameMESI, protocols.NameRCCO}

const (
	viicCaches = 1
	viicAddrs  = 2
)

type viicBench struct {
	e    *env
	want viicRef
}

// setupVIIC resolves and fuses the pair, then warms the check path with
// the same request at 1 address (about 2,400 states).
func setupVIIC(e *env, tr *tracer, parent int) (bench, error) {
	if _, err := fuse(tr, parent, core.Options{}, viicPair...); err != nil {
		return nil, err
	}
	b := &viicBench{e: e, want: e.refs.VIIC}
	req := b.checkRequest("")
	req.Addrs = 1
	var res *engine.CheckResult
	var err error
	tr.do("engine.Check warm-up", parent, func(int) { res, err = engine.Check(context.Background(), req, engine.Hooks{}) })
	if err == nil {
		err = res.Verdict()
	}
	return b, err
}

func (b *viicBench) close() {}

// checkRequest is the §VII-C request, compiled against cacheDir when it
// is non-empty — what `hgcheck -pair MESI,RCC-O -caches 1 -addrs 2
// [-compiled -compile-cache DIR]` sends.
func (b *viicBench) checkRequest(cacheDir string) engine.CheckRequest {
	return engine.CheckRequest{Pair: viicPair, Caches: viicCaches, Addrs: viicAddrs, Compiled: cacheDir != "",
		Search: engine.SearchOptions{Workers: b.e.workers, Hash: true, CompileCache: cacheDir}}
}

// compileConfig is the extraction configuration engine.Check derives from
// checkRequest, so an artifact compiled with it is the one the compiled
// check finds in its cache.
func (b *viicBench) compileConfig() core.CompileConfig {
	return core.CompileConfig{
		CachesPerCluster: []int{viicCaches, viicCaches},
		Programs:         engine.CheckDriver(2*viicCaches, viicAddrs, false),
		Evictions:        true,
		MaxStates:        engine.DefaultCheckMaxStates,
		Workers:          b.e.workers,
	}
}

// mcheckOptions are the search options engine.Check assembles for
// checkRequest.
func (b *viicBench) mcheckOptions(workers int) mcheck.Options {
	return mcheck.Options{Evictions: true, MaxStates: engine.DefaultCheckMaxStates, HashCompaction: true,
		Workers: workers, Encoding: mcheck.EncodingBinary, POR: mcheck.PORAuto}
}

func (b *viicBench) pass(ctx context.Context) *passResult {
	p := newPass()
	dir, err := os.MkdirTemp(b.e.work, "cache")
	if err != nil {
		p.op(errProblem("vii-c cache dir", err)...)
		return p
	}
	defer os.RemoveAll(dir)

	interp, verdict, err := timed2(func() (*engine.CheckResult, error) {
		return engine.Check(ctx, b.checkRequest(""), engine.Hooks{})
	})
	p.op(append(errProblem("interpreted check", err), b.checkResult("interpreted check", interp, nil)...)...)

	var cf *core.CompiledFusion
	settle()
	compile := timed(func() {
		var f *core.Fusion
		if f, err = fuse(nil, 0, core.Options{}, viicPair...); err == nil {
			cf, _, err = core.CompileOrLoadCtx(ctx, f, b.compileConfig(), dir)
		}
	})
	p.op(append(errProblem("cold compile", err), b.checkArtifact(cf, dir)...)...)

	settle()
	cached, cachedTime, err := timed2(func() (*engine.CheckResult, error) {
		return engine.Check(ctx, b.checkRequest(dir), engine.Hooks{})
	})
	p.op(append(errProblem("cached check", err), b.checkResult("cached check", cached, interp)...)...)

	p.t = [3]float64{verdict, compile, cachedTime}
	p.named["verdict_s"], p.named["compile_s"], p.named["verdict_cached_s"] = verdict, compile, cachedTime
	return p
}

// checkResult compares a check's result with the stored §VII-C outcome
// and, for the cached check, with the interpreted composite's — the
// table's independent reference.
func (b *viicBench) checkResult(what string, r, interp *engine.CheckResult) []string {
	if r == nil {
		return []string{what + ": no result"}
	}
	var out []string
	if err := r.Verdict(); err != nil {
		out = append(out, problemf("%s: %v", what, err))
	}
	w := b.want
	if r.States != w.States || r.Transitions != w.Transitions || len(r.Outcomes) != w.Outcomes || r.PORReduced != w.Ample {
		out = append(out, problemf("%s: %d states, %d transitions, %d outcomes, %d ample; want %d, %d, %d, %d",
			what, r.States, r.Transitions, len(r.Outcomes), r.PORReduced, w.States, w.Transitions, w.Outcomes, w.Ample))
	}
	if interp != nil {
		if r.Compile == nil || r.Compile.Source != core.SourceCache {
			out = append(out, what+": the compiled table did not come from the artifact cache")
		}
		if !reflect.DeepEqual(r.Outcomes, interp.Outcomes) {
			out = append(out, what+": outcome set differs from the interpreted composite's")
		}
	}
	return out
}

// checkArtifact checks a cold compile wrote the expected artifact.
func (b *viicBench) checkArtifact(cf *core.CompiledFusion, dir string) []string {
	if cf == nil {
		return []string{"cold compile: no table"}
	}
	if cf.Stats().Source != core.SourceCompiler {
		return []string{"cold compile: table came from " + cf.Stats().Source + ", not a fresh extraction"}
	}
	data, err := os.ReadFile(filepath.Join(dir, cf.Digest()+core.ArtifactExt))
	if err != nil {
		return errProblem("cold compile artifact", err)
	}
	if got := sha256Hex(data); got != b.want.ArtifactSHA {
		return []string{problemf("cold compile: artifact sha256 %s, want %s", got, b.want.ArtifactSHA)}
	}
	return nil
}

func (b *viicBench) tracedPass(ctx context.Context, tr *tracer) (*passResult, map[string]float64) {
	p := newPass()
	m := map[string]float64{}
	root := tr.begin("vii-c pass", 0, "")
	rt0 := sampleRuntime()
	dir, err := os.MkdirTemp(b.e.work, "cache")
	if err != nil {
		p.op(errProblem("vii-c cache dir", err)...)
		return p, m
	}
	defer os.RemoveAll(dir)

	// The interpreted check, as engine.Check runs it.
	explore := func(name string, sys *mcheck.System, workers int) (*mcheck.Result, float64, float64) {
		var res *mcheck.Result
		cpu0 := cpuSeconds()
		d := tr.do(name, root, func(int) { res = mcheck.ExploreCtx(ctx, sys, b.mcheckOptions(workers)) })
		return res, secs(d), cpuSeconds() - cpu0
	}
	interpSystem := func() (*mcheck.System, error) {
		f, err := fuse(tr, root, core.Options{}, viicPair...)
		if err != nil {
			return nil, err
		}
		var sys *mcheck.System
		tr.do("core.BuildSystem", root, func(int) {
			sys, _ = core.BuildSystem(f, []int{viicCaches, viicCaches})
			sys.SetPrograms(engine.CheckDriver(2*viicCaches, viicAddrs, false))
		})
		return sys, nil
	}
	sys, err := interpSystem()
	if err != nil {
		p.op(errProblem("interpreted check", err)...)
		return p, m
	}
	res, exploreS, cpu := explore("mcheck.ExploreCtx interpreted", sys, b.e.workers)
	interp := &engine.CheckResult{Result: *res}
	p.op(b.checkResult("interpreted check", interp, nil)...)
	states := float64(res.States)
	m["mcheck.explore_s"] = exploreS
	m["mcheck.states"] = states
	m["mcheck.transitions"] = float64(res.Transitions)
	m["mcheck.por_ample_ratio"] = ratio(float64(res.PORReduced), states)
	m["mcheck.states_per_s"] = ratio(states, exploreS)
	m["mcheck.cpu_per_state_us"] = ratio(cpu*1e6, states)
	m["mcheck.cpu_util"] = ratio(cpu, exploreS*float64(b.e.workers))
	m["mcheck.table_bytes"] = float64(res.TableBytes)
	m["mcheck.bytes_per_state"] = res.BytesPerState
	m["mcheck.peak_load"] = res.PeakLoadFactor

	// The cold compile.
	settle()
	var cf *core.CompiledFusion
	f, err := fuse(tr, root, core.Options{}, viicPair...)
	if err == nil {
		tr.do("core.CompileOrLoadCtx cold", root, func(int) { cf, _, err = core.CompileOrLoadCtx(ctx, f, b.compileConfig(), dir) })
	}
	p.op(append(errProblem("cold compile", err), b.checkArtifact(cf, dir)...)...)
	if cf != nil {
		st := cf.Stats()
		m["core.extract_s"] = secs(st.Extract)
		m["core.extract_states"] = float64(st.ExtractStates)
		m["core.finalize_s"] = secs(st.Finalize)
		m["core.memo_hit_ratio"] = ratio(float64(st.MemoHits), float64(st.MemoHits+st.Interpreted))
		if fi, err := os.Stat(filepath.Join(dir, cf.Digest()+core.ArtifactExt)); err == nil {
			m["core.artifact_bytes"] = float64(fi.Size())
		}
	}

	// The cached check: load the artifact back, search the table.
	settle()
	if f, err = fuse(tr, root, core.Options{}, viicPair...); err == nil {
		tr.do("core.CompileOrLoadCtx cached", root, func(int) { cf, _, err = core.CompileOrLoadCtx(ctx, f, b.compileConfig(), dir) })
	}
	if err != nil {
		p.op(errProblem("cached check", err)...)
	} else {
		res, tableS, _ := explore("mcheck.ExploreCtx table", cf.System(), b.e.workers)
		stats := cf.Stats()
		p.op(b.checkResult("cached check", &engine.CheckResult{Result: *res, Compile: &stats}, interp)...)
		m["core.load_s"] = secs(stats.Load)
		m["mcheck.explore_table_s"] = tableS
		m["core.interp_premium"] = ratio(exploreS, tableS)
	}
	m = mergeMetrics(m, runtimeMetrics(rt0, sampleRuntime()))
	p.wall = secs(tr.end(root))

	// One sequential search, outside the pass span: the Workers=1 path's
	// cost per state.
	root = tr.begin("vii-c workers=1", 0, "")
	defer tr.end(root)
	if sys, err = interpSystem(); err == nil {
		res, s, cpu := explore("mcheck.ExploreCtx interpreted w1", sys, 1)
		p.op(b.checkResult("interpreted check, 1 worker", &engine.CheckResult{Result: *res}, nil)...)
		m["mcheck.states_per_s.w1"] = ratio(float64(res.States), s)
		m["mcheck.cpu_per_state_us.w1"] = ratio(cpu*1e6, float64(res.States))
	}
	return p, m
}

// fuse resolves builtin protocols and fuses them, in spans when traced.
func fuse(tr *tracer, parent int, opts core.Options, names ...string) (*core.Fusion, error) {
	var ps []*spec.Protocol
	var err error
	tr.do("protocols.ByName", parent, func(int) {
		for _, n := range names {
			var p *spec.Protocol
			if p, err = protocols.ByName(n); err != nil {
				return
			}
			ps = append(ps, p)
		}
	})
	if err != nil {
		return nil, err
	}
	var f *core.Fusion
	tr.do("core.Fuse", parent, func(int) { f, err = core.Fuse(opts, ps...) })
	return f, err
}

func mergeMetrics(into, from map[string]float64) map[string]float64 {
	for k, v := range from {
		into[k] = v
	}
	return into
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
