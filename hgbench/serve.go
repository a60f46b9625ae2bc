package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/litmus"
	"heterogen/internal/protocols"
	"heterogen/internal/server"
)

// The serve workload drives an in-process hgserve over loopback HTTP
// with a seeded mix of single-shape litmus jobs and small homogeneous
// check jobs, in rounds of four phases: the mix arriving open loop,
// evenly paced, at a low and then a high fixed rate, the rounds' open-loop
// phases sharing the run's --seconds; a batch played closed loop by NumCPU
// clients; and a batch submitted all at once. The batches add about 10 s
// to a pass, so a run makes one pass. A job's latency runs from its due time
// (in the closed loop, its submission) to the server's end stamp. The
// end-to-end times come from the two batches, which keep the job workers
// busy: the open-loop latencies, with the workers idle between jobs,
// were too unsteady on a shared host to gate on (README.md).
var serveWorkload = benchWorkload{
	name: "serve",
	slots: [3]string{"burst_s: time to serve the batches submitted at once",
		"closed_tail_s: tail job latency in the closed loop", "closed_s: time to serve the closed-loop batches"},
	setup: setupServe,
}

// The offered rates, in jobs per second: a third and a half of the rate
// (about 33/s) at which this mix saturated the server (NumCPU job workers,
// one search worker each) on the 2-core machine README.md describes. At
// two thirds (22/s) the high-rate latencies were too unsteady from run to
// run to gate on. Frozen: changing them changes the workload.
const (
	serveLoRate = 11.0
	serveHiRate = 16.0
	// serveCheckEvery makes every n-th job a check job, the rest litmus.
	serveCheckEvery = 5
	// serveRounds alternates the rates this many times per pass (lo, hi,
	// lo, hi, ...), each rate's metrics pooling its phases, so each rate
	// samples more than one stretch of a shared machine's speed.
	serveRounds = 4
	// serveBatchJobs is the size of each round's closed-loop and
	// all-at-once batches.
	serveBatchJobs = 60
	// serveDrainLimit bounds how long a phase waits for its jobs after
	// the last arrival; a job unfinished by then counts as failed.
	serveDrainLimit = 20 * time.Second
)

// serveChecks are the check jobs: homogeneous systems of 3 caches (2 for
// RCC) that take 0.1–0.3 s each, several times a litmus job.
var serveChecks = []engine.CheckRequest{
	{Protocol: protocols.NameTSOCC, Caches: 3, Addrs: 1},
	{Protocol: protocols.NameRCCO, Caches: 3, Addrs: 1},
	{Protocol: protocols.NamePLOCC, Caches: 3, Addrs: 1},
	{Protocol: protocols.NameRCC, Caches: 2, Addrs: 2},
}

// jobTemplate is one distinct request of the mix.
type jobTemplate struct {
	name string
	body []byte // the POST /v1/jobs body
	// run is the same request as a direct engine call, the reference.
	run func(ctx context.Context) (any, error)
}

type arrival struct {
	due  time.Duration // offset from the phase start
	tmpl int
}

// A servePhase is one stretch of a round: "lo" or "hi", open loop at
// rate; "closed", a closed-loop batch; or "burst", a batch with every
// arrival due at the phase start.
type servePhase struct {
	name     string
	rate     float64
	arrivals []arrival
}

type serveBench struct {
	e         *env
	templates []jobTemplate
	phases    []servePhase
	srv       *server.Server
	hs        *http.Server
	served    chan error
	base      string
	client    *http.Client
	// want caches each template's normalized direct-engine result.
	want map[int]string
}

func setupServe(e *env, tr *tracer, parent int) (bench, error) {
	b := &serveBench{e: e, want: map[int]string{}}
	if err := b.buildTemplates(tr, parent); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	phaseLen := time.Duration(e.seconds) * time.Second / (2 * serveRounds)
	for i := 0; i < serveRounds; i++ {
		for _, ph := range []struct {
			name string
			rate float64
		}{{"lo", serveLoRate}, {"hi", serveHiRate}} {
			b.phases = append(b.phases, servePhase{name: ph.name, rate: ph.rate, arrivals: b.schedule(rng, ph.rate, phaseLen)})
		}
		for _, name := range []string{"closed", "burst"} {
			var batch []arrival
			for _, t := range b.mix(rng, serveBatchJobs) {
				batch = append(batch, arrival{tmpl: t})
			}
			b.phases = append(b.phases, servePhase{name: name, arrivals: batch})
		}
	}

	b.srv = server.New(server.Config{JobWorkers: e.workers, MaxWorkersPerJob: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Drain()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}}

	// Warm the server path with one litmus job, submitted and awaited.
	warm := &jobRec{tmpl: 0}
	tr.do("serve warm-up job", parent, func(id int) {
		b.submit(context.Background(), warm, tr, id)
		if warm.problem == "" {
			b.await(context.Background(), warm, time.Now().Add(serveDrainLimit))
		}
	})
	if warm.problem != "" {
		b.close()
		return nil, errors.New(warm.problem)
	}
	return b, nil
}

// buildTemplates lists the mix's distinct requests: every Table II pair
// under every 2-thread shape as a litmus job, plus serveChecks.
func (b *serveBench) buildTemplates(tr *tracer, parent int) error {
	for _, pr := range core.TableIIPairs() {
		if _, err := fuse(tr, parent, core.Options{}, pr[0], pr[1]); err != nil {
			return err
		}
		for _, shape := range litmus.Shapes() {
			if len(shape.Prog().Threads) != 2 {
				continue
			}
			req := engine.LitmusRequest{Pair: []string{pr[0], pr[1]}, Shapes: []string{shape.Name},
				Search: engine.SearchOptions{Workers: 1}}
			if err := b.addTemplate(fmt.Sprintf("litmus %s %s&%s", shape.Name, pr[0], pr[1]), "litmus", req,
				func(ctx context.Context) (any, error) { return engine.Litmus(ctx, req, engine.Hooks{}) }); err != nil {
				return err
			}
		}
	}
	for _, req := range serveChecks {
		req.Search = engine.SearchOptions{Workers: 1}
		if err := b.addTemplate(fmt.Sprintf("check %s caches=%d addrs=%d", req.Protocol, req.Caches, req.Addrs), "check", req,
			func(ctx context.Context) (any, error) { return engine.Check(ctx, req, engine.Hooks{}) }); err != nil {
			return err
		}
	}
	return nil
}

// jobClass names a template's kind of job: "check" or "litmus".
func (b *serveBench) jobClass(tmpl int) string {
	if tmpl >= len(b.templates)-len(serveChecks) {
		return "check"
	}
	return "litmus"
}

func (b *serveBench) addTemplate(name, kind string, req any, run func(context.Context) (any, error)) error {
	body, err := json.Marshal(map[string]any{kind: req})
	if err != nil {
		return err
	}
	b.templates = append(b.templates, jobTemplate{name: name, body: body, run: run})
	return nil
}

// schedule lays one phase's arrivals evenly at the given rate: a paced
// open loop, so queueing comes from the jobs themselves, not from seeded
// bursts. Every serveCheckEvery-th job is a check. A phase's jobs are the
// templates taken round-robin up to its length — the same multiset for
// every seed — and the seed shuffles their order.
func (b *serveBench) schedule(rng *rand.Rand, rate float64, length time.Duration) []arrival {
	n := int(length.Seconds() * rate)
	out := make([]arrival, n)
	for i, t := range b.mix(rng, n) {
		out[i] = arrival{due: time.Duration(float64(i) / rate * float64(time.Second)), tmpl: t}
	}
	return out
}

// mix lists n jobs' templates: every serveCheckEvery-th a check, the
// rest litmus, each kind's templates taken round-robin — the same
// multiset for every seed — in an order the seed shuffles.
func (b *serveBench) mix(rng *rand.Rand, n int) []int {
	nLitmus := len(b.templates) - len(serveChecks)
	var lit, chk []int
	for i := 0; i < n; i++ {
		if (i+1)%serveCheckEvery == 0 {
			chk = append(chk, nLitmus+len(chk)%len(serveChecks))
		} else {
			lit = append(lit, len(lit)%nLitmus)
		}
	}
	rng.Shuffle(len(lit), func(i, j int) { lit[i], lit[j] = lit[j], lit[i] })
	rng.Shuffle(len(chk), func(i, j int) { chk[i], chk[j] = chk[j], chk[i] })
	out := make([]int, n)
	for i := range out {
		if (i+1)%serveCheckEvery == 0 {
			out[i], chk = chk[0], chk[1:]
		} else {
			out[i], lit = lit[0], lit[1:]
		}
	}
	return out
}

func (b *serveBench) close() {
	b.srv.HardCancel()
	b.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	<-b.served
	b.client.CloseIdleConnections()
}

// jobView is the part of a job's JSON the benchmark reads.
type jobView struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Created time.Time       `json:"created"`
	Started time.Time       `json:"started"`
	Ended   time.Time       `json:"ended"`
	Error   string          `json:"error"`
	Result  json.RawMessage `json:"result"`
}

// jobRec follows one scheduled job through the run.
type jobRec struct {
	tmpl      int
	due, sent time.Time
	submit    time.Duration // the POST's round trip
	status    int
	job       jobView
	problem   string
	latency   float64 // s, due to end; for a failed job, due to the drain deadline
}

func (b *serveBench) pass(ctx context.Context) *passResult {
	p, _ := b.runPhases(ctx, nil, 0)
	return p
}

func (b *serveBench) tracedPass(ctx context.Context, tr *tracer) (*passResult, map[string]float64) {
	root := tr.begin("serve pass", 0, "")
	defer tr.end(root)
	rt0 := sampleRuntime()
	p, m := b.runPhases(ctx, tr, root)
	return p, mergeMetrics(m, runtimeMetrics(rt0, sampleRuntime()))
}

// runPhases runs the phases in turn, checks every
// job's result against a direct engine call, and derives the pass's
// times (and, traced, the server's per-layer metrics).
func (b *serveBench) runPhases(ctx context.Context, tr *tracer, parent int) (*passResult, map[string]float64) {
	p := newPass()
	m := map[string]float64{}
	var all []*jobRec
	lat := map[string][]float64{}
	var late, submits []float64
	burst, closed := 0.0, 0.0
	start := time.Now()
	for _, ph := range b.phases {
		id := tr.begin("serve phase "+ph.name, parent, "")
		var recs []*jobRec
		switch ph.name {
		case "closed":
			closed += timed(func() { recs = b.runClosed(ctx, ph, tr, id) })
		case "burst":
			burst += timed(func() { recs = b.runPhase(ctx, ph, tr, id) })
		default:
			recs = b.runPhase(ctx, ph, tr, id)
		}
		tr.end(id)
		for _, r := range recs {
			class := ph.name + "." + b.jobClass(r.tmpl)
			lat[ph.name] = append(lat[ph.name], r.latency)
			lat[class] = append(lat[class], r.latency)
			if ph.rate > 0 { // open loop: how late the generator ran
				late = append(late, 1000*secs(r.sent.Sub(r.due)))
			}
			submits = append(submits, 1000*secs(r.submit))
		}
		all = append(all, recs...)
		if ph.name == "hi" {
			m["server.backlog_growth"] += backlogGrowth(recs) / serveRounds
		}
	}
	p.wall = secs(time.Since(start))
	var queue, runs []float64
	rejected := 0
	for _, r := range all {
		if r.problem == "" {
			r.problem = b.checkJobResult(ctx, r)
		}
		p.op(nonEmpty(r.problem)...)
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if !r.job.Started.IsZero() && !r.job.Ended.IsZero() {
			queue = append(queue, 1000*secs(r.job.Started.Sub(r.job.Created)))
			runs = append(runs, 1000*secs(r.job.Ended.Sub(r.job.Started)))
			tr.add("server queue wait", parent, r.job.ID, r.job.Created, r.job.Started)
			tr.add("server job run", parent, r.job.ID, r.job.Started, r.job.Ended)
		}
	}

	tails := map[string]float64{}
	for _, ph := range []string{"lo", "hi", "closed", "burst"} {
		t, pct := tail(lat[ph])
		tails[ph] = t
		p.named[fmt.Sprintf("job_tail_ms.%s.p%d", ph, pct)] = 1000 * t
		p.named["job_p50_ms."+ph] = 1000 * median(lat[ph])
		p.named["job_p50_ms."+ph+".check"] = 1000 * median(lat[ph+".check"])
		p.named["job_p50_ms."+ph+".litmus"] = 1000 * median(lat[ph+".litmus"])
		p.named["jobs."+ph] = float64(len(lat[ph]))
	}
	lateTail, latePct := tail(late)
	p.t = [3]float64{burst, tails["closed"], closed}
	p.named["burst_s"], p.named["closed_s"] = burst, closed
	p.named[fmt.Sprintf("gen_late_ms.p%d", latePct)] = lateTail

	m["server.submit_ms.p50"] = median(submits)
	m["server.submit_ms.tail"], _ = tail(submits)
	m["server.queue_wait_ms.p50"] = median(queue)
	m["server.queue_wait_ms.tail"], _ = tail(queue)
	m["server.run_ms.p50"] = median(runs)
	m["server.run_ms.tail"], _ = tail(runs)
	m["server.rejected"] = ratio(float64(rejected), float64(len(all)))
	m["serve.job_p50_ms.lo"] = 1000 * median(lat["lo"])
	m["serve.job_p50_ms.hi"] = 1000 * median(lat["hi"])
	m["serve.job_tail_ms.lo"] = 1000 * tails["lo"]
	m["serve.job_tail_ms.hi"] = 1000 * tails["hi"]
	m["gen.late_ms.tail"] = lateTail
	return p, m
}

func nonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return []string{s}
}

// runPhase plays one phase's schedule open loop: the generator hands each
// job, at its due time, to one of NumCPU submitters sharing NumCPU
// connections (a busy pool makes the generator late), then follows every
// accepted job to its end.
func (b *serveBench) runPhase(ctx context.Context, ph servePhase, tr *tracer, parent int) []*jobRec {
	recs := make([]*jobRec, len(ph.arrivals))
	work := make(chan *jobRec)
	var wg sync.WaitGroup
	for w := 0; w < b.e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				b.submit(ctx, r, tr, parent)
			}
		}()
	}
	start := time.Now()
	for i, a := range ph.arrivals {
		r := &jobRec{tmpl: a.tmpl, due: start.Add(a.due)}
		recs[i] = r
		time.Sleep(time.Until(r.due))
		work <- r
	}
	close(work)
	wg.Wait()

	deadline := time.Now().Add(serveDrainLimit)
	for _, r := range recs {
		b.finish(ctx, r, deadline)
	}
	return recs
}

// runClosed plays a closed-loop batch: NumCPU clients, each submitting
// its next job when its last one has ended. A job's latency runs from its
// submission to the server's end stamp.
func (b *serveBench) runClosed(ctx context.Context, ph servePhase, tr *tracer, parent int) []*jobRec {
	recs := make([]*jobRec, len(ph.arrivals))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < b.e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &jobRec{tmpl: ph.arrivals[i].tmpl, due: time.Now()}
				recs[i] = r
				b.submit(ctx, r, tr, parent)
				b.finish(ctx, r, time.Now().Add(serveDrainLimit))
			}
		}()
	}
	for i := range recs {
		next <- i
	}
	close(next)
	wg.Wait()
	return recs
}

// finish follows a submitted job to its end and stamps its latency; a
// job that failed or is unfinished by the deadline ends at the deadline.
func (b *serveBench) finish(ctx context.Context, r *jobRec, deadline time.Time) {
	end := deadline
	if r.problem == "" {
		b.await(ctx, r, deadline)
	}
	if r.problem == "" {
		end = r.job.Ended
	}
	r.latency = secs(end.Sub(r.due))
}

// submit POSTs one job, recording when it went out and how it was taken.
func (b *serveBench) submit(ctx context.Context, r *jobRec, tr *tracer, parent int) {
	r.sent = time.Now()
	id := tr.begin("server POST /v1/jobs", parent, b.templates[r.tmpl].name)
	defer tr.end(id)
	var v jobView
	r.status, r.problem = b.do(ctx, http.MethodPost, "/v1/jobs", b.templates[r.tmpl].body, &v)
	r.submit = time.Since(r.sent)
	if r.problem == "" && r.status != http.StatusAccepted {
		r.problem = fmt.Sprintf("HTTP %d", r.status)
	}
	if r.problem != "" {
		r.problem = fmt.Sprintf("submit %s: %s", b.templates[r.tmpl].name, r.problem)
	}
	r.job.ID = v.ID
}

// await follows an accepted job's event stream until the job ends, then
// fetches it. A job still open at the deadline is cancelled and counted
// as unfinished.
func (b *serveBench) await(ctx context.Context, r *jobRec, deadline time.Time) {
	name := b.templates[r.tmpl].name
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	if status, problem := b.do(dctx, http.MethodGet, "/v1/jobs/"+r.job.ID+"/events", nil, nil); problem != "" || status != http.StatusOK {
		if dctx.Err() != nil {
			b.do(ctx, http.MethodDelete, "/v1/jobs/"+r.job.ID, nil, nil)
			r.problem = fmt.Sprintf("job %s (%s): unfinished at run end", r.job.ID, name)
		} else {
			r.problem = fmt.Sprintf("job %s (%s): events: HTTP %d %s", r.job.ID, name, status, problem)
		}
		return
	}
	var v jobView
	if status, problem := b.do(ctx, http.MethodGet, "/v1/jobs/"+r.job.ID, nil, &v); problem != "" || status != http.StatusOK {
		r.problem = fmt.Sprintf("job %s (%s): HTTP %d %s", r.job.ID, name, status, problem)
		return
	}
	r.job = v
	if v.State != "done" {
		r.problem = fmt.Sprintf("job %s (%s): %s %s", v.ID, name, v.State, v.Error)
	}
}

// do makes one API call, decoding a JSON reply into into when non-nil.
func (b *serveBench) do(ctx context.Context, method, path string, body []byte, into any) (int, string) {
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err.Error()
	}
	if into != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, into); err != nil {
			return resp.StatusCode, err.Error()
		}
	}
	return resp.StatusCode, ""
}

// checkJobResult compares a finished job's result with a direct engine
// call on the same request, ignoring wall-clock fields.
func (b *serveBench) checkJobResult(ctx context.Context, r *jobRec) string {
	want, ok := b.want[r.tmpl]
	if !ok {
		res, err := b.templates[r.tmpl].run(ctx)
		if err != nil {
			return fmt.Sprintf("%s: direct engine call: %v", b.templates[r.tmpl].name, err)
		}
		data, err := json.Marshal(res)
		if err == nil {
			want, err = normalizeResult(data)
		}
		if err != nil {
			return fmt.Sprintf("%s: direct engine result: %v", b.templates[r.tmpl].name, err)
		}
		b.want[r.tmpl] = want
	}
	got, err := normalizeResult(r.job.Result)
	if err != nil {
		return fmt.Sprintf("job %s: result: %v", r.job.ID, err)
	}
	if got != want {
		return fmt.Sprintf("job %s (%s): result differs from the direct engine call", r.job.ID, b.templates[r.tmpl].name)
	}
	return ""
}

// normalizeResult re-encodes a result's JSON canonically without its
// wall-clock fields (a litmus test's Elapsed).
func normalizeResult(data []byte) (string, error) {
	if len(data) == 0 {
		return "", errors.New("empty result")
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return "", err
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "Elapsed")
			for _, e := range x {
				strip(e)
			}
		case []any:
			for _, e := range x {
				strip(e)
			}
		}
	}
	strip(v)
	out, err := json.Marshal(v)
	return string(out), err
}

// backlogGrowth is how fast the queue grew over a phase, in jobs per
// second: the jobs waiting (created, not yet started) at the last arrival
// minus those waiting at the first, over the time between.
func backlogGrowth(recs []*jobRec) float64 {
	var accepted []*jobRec
	for _, r := range recs {
		if !r.job.Created.IsZero() {
			accepted = append(accepted, r)
		}
	}
	if len(accepted) < 2 {
		return 0
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i].job.Created.Before(accepted[j].job.Created) })
	waiting := func(t time.Time) int {
		n := 0
		for _, r := range accepted {
			if !r.job.Created.After(t) && (r.job.Started.IsZero() || r.job.Started.After(t)) {
				n++
			}
		}
		return n
	}
	first, last := accepted[0].job.Created, accepted[len(accepted)-1].job.Created
	return ratio(float64(waiting(last)-waiting(first)), secs(last.Sub(first)))
}
