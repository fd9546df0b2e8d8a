package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"camelot"
	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/hamilton"
	"camelot/internal/triangles"
)

// The serve-mix traffic comes from clients in a generator process
// (runClientProcess) that keep the pool busy: the batch tenant's fresh
// Hamiltonian-cycle counts and the interactive tenant's fresh triangle
// counts run back to back, and the interactive tenant's re-reads of hot
// specs meet that contention and rest on the tenant's priority. A
// service that is always busy gives each request the same conditions;
// with idle gaps, latencies split by whether a request found the pool
// busy, and their percentiles jump between the two.
const (
	serveNodes  = 2
	serveFaults = 1
	hotSpecs    = 8
	// Latency limits of slo_ratio, per tenant: about twice the p90 seen
	// on a 2-CPU host.
	interactiveSLO = 250 * time.Millisecond
	batchSLO       = 2 * time.Second
)

// traceBlock is the length of the alternating untraced and traced
// blocks of a traced serve-mix run.
const traceBlock = time.Second

// tracedAt reports whether a request started at offset start falls in a
// traced block.
func tracedAt(start time.Duration) bool { return start/traceBlock%2 == 1 }

func triangleSpec(seed int64) string { return fmt.Sprintf("triangles n=48 p=0.2 seed=%d", seed) }
func hamiltonSpec(seed int64) string { return fmt.Sprintf("hamilton n=12 p=0.5 seed=%d", seed) }

// serveReq is one request the generator sent and its outcome. Times are
// offsets from the window's start.
type serveReq struct {
	tenant string
	spec   string
	seed   int64 // a fresh spec's instance seed
	hot    int   // index into the hot set; -1 for a fresh spec
	traced bool

	start, done    time.Duration
	submit, result time.Duration
	state          string
	status         int
	body           []byte
	err            error
}

func (r *serveReq) latency() time.Duration { return r.done - r.start }

func (r *serveReq) limit() time.Duration {
	if r.tenant == "batch" {
		return batchSLO
	}
	return interactiveSLO
}

// oracle answers a fresh spec from its instance, sharing no code with
// the proof pipeline.
func (r *serveReq) oracle() *big.Int {
	if r.tenant == "batch" {
		return hamilton.CountDP(graph.Gnp(12, 0.5, r.seed))
	}
	return new(big.Int).SetUint64(triangles.CountEdgeIterator(graph.Gnp(48, 0.2, r.seed)))
}

// serveEnv is one running service: a cluster and the proof server on a
// loopback listener, plus the benchmark's own client for set-up and
// polling.
type serveEnv struct {
	cl     *camelot.Cluster
	srv    *camelot.Server
	hs     *http.Server
	served chan error
	*httpClient
}

func newServeEnv(seed int64, factory *tracedFactory) (*serveEnv, error) {
	opts := []camelot.ClusterOption{camelot.WithNodes(serveNodes)}
	if factory != nil {
		opts = append(opts, camelot.WithTransport(factory.build))
	}
	cl := camelot.NewCluster(opts...)
	srv := camelot.NewServer(cl, camelot.ServerConfig{
		FaultTolerance: serveFaults,
		VerifySeed:     seed,
		// Admission bounds high enough that the clients are never
		// refused: a refusal is a failed operation.
		MaxQueueDepth: 64,
		Tenants: map[string]camelot.TenantConfig{
			"interactive": {MaxInFlight: 32, Priority: 4},
			"batch":       {MaxInFlight: 32, Priority: 1},
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		cl.Close()
		return nil, err
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	env := &serveEnv{
		cl:         cl,
		srv:        srv,
		hs:         &http.Server{Handler: srv.Handler(), Protocols: &protos},
		served:     make(chan error, 1),
		httpClient: newHTTPClient("http://" + ln.Addr().String()),
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	return env, nil
}

func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.httpClient.close()
	e.srv.Close()
	e.cl.Close()
}

// generate runs the generator process (this binary with
// --serve-client) against the service and returns every request it
// sent. onOrigin learns the window's start before the first request;
// onEnd runs when the last request has returned, before the results are
// read, so that reading them is not charged to the service.
func generate(ctx context.Context, job clientJob, onOrigin func(time.Time), onEnd func()) ([]*serveReq, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--serve-client")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the generator: %w", err)
	}
	results, readErr := readGenerator(stdout, onOrigin, onEnd)
	if readErr != nil {
		cmd.Process.Kill()
	}
	if err := cmd.Wait(); err != nil && readErr == nil {
		readErr = fmt.Errorf("generator: %w", err)
	}
	if readErr != nil {
		return nil, readErr
	}
	reqs := make([]*serveReq, len(results))
	for i, res := range results {
		r := &serveReq{
			tenant: res.Tenant, spec: res.Spec, seed: res.Seed, hot: res.Hot,
			start: time.Duration(res.StartNs), done: time.Duration(res.DoneNs),
			submit: time.Duration(res.SubmitNs), result: time.Duration(res.ResultNs),
			state: res.State, status: res.Status, body: res.Body,
		}
		if res.Err != "" {
			r.err = errors.New(res.Err)
		}
		reqs[i] = r
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].start < reqs[j].start })
	return reqs, nil
}

// readGenerator reads the generator's origin line, its end line, then
// its results.
func readGenerator(stdout io.Reader, onOrigin func(time.Time), onEnd func()) ([]clientResult, error) {
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("reading the generator's origin: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("generator origin %q: %w", line, err)
	}
	onOrigin(time.Unix(0, ns))
	if line, err = rd.ReadString('\n'); err != nil || line != endLine {
		return nil, fmt.Errorf("reading the generator's end line: got %q, %v", line, err)
	}
	onEnd()
	var results []clientResult
	if err := json.NewDecoder(rd).Decode(&results); err != nil {
		return nil, fmt.Errorf("reading the generator's results: %w", err)
	}
	return results, nil
}

// runServeMix: the proof service over loopback HTTP, driven by the
// generator process for the window.
func runServeMix(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	// Hot and warm-up seeds lie below freshSeedBase, the generator's
	// fresh ones above it.
	hot := make([]string, hotSpecs)
	for i := range hot {
		hot[i] = triangleSpec(rng.Int63n(freshSeedBase))
	}
	warmBatch := hamiltonSpec(rng.Int63n(freshSeedBase))

	var factory *tracedFactory
	if tr != nil {
		factory = &tracedFactory{tr: tr, inner: func(k int) core.Transport { return core.NewBroadcastBus(k) }}
	}

	// Set-up: the service, the hot set prepared through it, and one
	// untimed proof of the batch geometry. Every repetition must serve
	// bit-identical hot proofs.
	var setups, rawSetups []float64
	var env *serveEnv
	var hotBytes [][]byte
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.close()
		}
		stat, start := readCPUStat(), time.Now()
		var err error
		if env, err = newServeEnv(cfg.seed, factory); err != nil {
			return nil, err
		}
		got, err := prepareHot(ctx, env, hot, warmBatch)
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*(1-stolenShare(stat, readCPUStat())))
		if err != nil {
			env.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for i := range hotBytes {
			if !bytes.Equal(hotBytes[i], got[i]) {
				env.close()
				return nil, fmt.Errorf("set-up: hot proof %d differs between two fresh services", i)
			}
		}
		hotBytes = got
	}
	defer env.close()

	// The window. A traced run decorates the service's transports in
	// alternate blocks of traceBlock, so traced and untraced requests
	// see the same machine state, and polls the queue depth throughout.
	var poll *poller
	toggled := make(chan struct{})
	var origin time.Time
	onOrigin := func(o time.Time) {
		origin = o
		if tr == nil {
			close(toggled)
			return
		}
		poll = startPoller(ctx, env.httpClient)
		go func() {
			defer close(toggled)
			for b := time.Duration(0); b < cfg.window; b += traceBlock {
				select {
				case <-time.After(time.Until(o.Add(b))):
				case <-ctx.Done():
					return
				}
				if tracedAt(b) {
					factory.cur.Store(&runTag{req: -1})
				} else {
					factory.cur.Store(nil)
				}
			}
		}()
	}
	job := clientJob{Base: env.base, WindowNs: int64(cfg.window), Seed: rng.Int63(), Hot: hot}
	var cpu time.Duration
	var alloc uint64
	var keep float64
	cpu0, alloc0, stat := processCPU(), heapAllocated(), readCPUStat()
	sched, err := generate(ctx, job, onOrigin, func() {
		cpu, alloc = processCPU()-cpu0, heapAllocated()-alloc0
		keep = 1 - stolenShare(stat, readCPUStat())
	})
	if err != nil {
		return nil, err
	}
	<-toggled
	var before, after map[string]float64
	if tr != nil {
		before, after = poll.stop()
		for i, r := range sched {
			if r.traced = tracedAt(r.start); r.traced {
				recordClientSpans(tr, origin, int64(i), r)
			}
		}
	}

	// The checks run after the window on an idle machine, one at a time.
	// Their verification samples are not scaled for steal: with one CPU
	// busy, the machine-wide steal column also counts the idle CPU's
	// stolen wake-ups, and it read a 16–28% share where the unscaled
	// samples moved by about 6%.
	runtime.GC()
	out := &outcome{values: map[string]float64{}}
	var proofLat, tracedCold, verify, reread []float64
	delivered, inLimit := 0, 0
	var end time.Duration
	for i, r := range sched {
		out.attempted++
		end = max(end, r.done)
		if !checkServed(&out.tally, i, r, hotBytes, cfg.seed, &verify) {
			continue
		}
		delivered++
		if time.Duration(keep*float64(r.latency())) <= r.limit() {
			inLimit++
		}
		switch {
		case r.tenant != "interactive":
		case r.traced && r.hot < 0:
			tracedCold = append(tracedCold, ms(r.latency()))
		case r.traced:
		case r.hot < 0:
			proofLat = append(proofLat, ms(r.latency()))
		default:
			reread = append(reread, ms(r.latency()))
		}
	}
	fmt.Printf("samples cold=%d hot=%d verify=%d requests=%d window_s=%.3f\n", len(proofLat), len(reread), len(verify), len(sched), end.Seconds())
	fmt.Printf("host unstolen_share=%.4f raw setup_s=%.4f proof_p50_ms=%.3f proof_p90_ms=%.3f\n",
		keep, median(rawSetups), quantile(proofLat, 0.5), quantile(proofLat, 0.9))

	v := out.values
	v["setup_s"] = median(setups)
	v["proof_p50_ms"] = keep * quantile(proofLat, 0.5)
	v["proof_p90_ms"] = keep * quantile(proofLat, 0.9)
	v["proofs_per_s"] = float64(delivered) / (keep * end.Seconds())
	v["cpu_ms_per_proof"] = ms(cpu) / float64(max(delivered, 1))
	v["verify_p50_ms"] = median(verify)
	v["reread_p50_ms"] = keep * quantile(reread, 0.5)
	v["reread_p90_ms"] = keep * quantile(reread, 0.9)
	v["slo_ratio"] = float64(inLimit) / float64(out.attempted)
	v["alloc_mb_per_proof"] = mb(alloc) / float64(max(delivered, 1))
	if tr == nil {
		return out, nil
	}

	v["trace.overhead_pct"] = 100 * (median(tracedCold)/median(proofLat) - 1)
	if err := tracedServeLayers(tr, sched, hotBytes, poll, before, after, v); err != nil {
		out.fail("serve layers: %v", err)
	}
	var geo camelot.Proof
	if err := geo.UnmarshalBinary(hotBytes[0]); err != nil {
		return nil, err
	}
	g := geometry{primes: geo.Primes, d: geo.Degree, e: len(geo.Points), k: serveNodes}
	if err := replayLayers(rng, g, v); err != nil {
		out.fail("layer replay: %v", err)
	}
	w, err := camelot.ParseWorkload(hot[0])
	if err != nil {
		return nil, err
	}
	compiled, ok := w.Problem.(core.CompiledProblem)
	if !ok {
		return nil, fmt.Errorf("%s does not compile to a plan", hot[0])
	}
	if err := replayPlan(compiled, geo.Primes, len(geo.Points), v); err != nil {
		out.fail("plan replay: %v", err)
	}
	hotCheck := func(p *camelot.Proof) error {
		b, err := p.MarshalBinary()
		if err != nil {
			return err
		}
		if !bytes.Equal(b, hotBytes[0]) {
			return fmt.Errorf("proof of %s differs from the served one", hot[0])
		}
		return nil
	}
	if err := modelRows(ctx, w.Problem, hotCheck, serveFaults, v); err != nil {
		out.fail("cost-model rows: %v", err)
	}
	return out, nil
}

// recordClientSpans turns one traced request's client-side timings into
// spans: the request, and its submit and result calls.
func recordClientSpans(tr *tracer, origin time.Time, id int64, r *serveReq) {
	at := func(d time.Duration) time.Time { return origin.Add(d) }
	span := tr.newID()
	tr.recordAt("serve.request", span, 0, id, at(r.start), at(r.done), 0)
	tr.recordAt("serve.submit", 0, span, id, at(r.start), at(r.start+r.submit), 0)
	if r.result > 0 {
		tr.recordAt("serve.result", 0, span, id, at(r.start+r.submit), at(r.start+r.submit+r.result), 0)
	}
}

// prepareHot submits the hot specs and the batch warm-up spec, waits for
// all of them, and returns the hot proofs' bytes.
func prepareHot(ctx context.Context, env *serveEnv, hot []string, warmBatch string) ([][]byte, error) {
	digests := make([]string, len(hot))
	for i, spec := range hot {
		var err error
		if digests[i], _, _, err = env.submit(ctx, "interactive", spec); err != nil {
			return nil, err
		}
	}
	warm, _, _, err := env.submit(ctx, "batch", warmBatch)
	if err != nil {
		return nil, err
	}
	if _, _, err := env.result(ctx, warm); err != nil {
		return nil, err
	}
	out := make([][]byte, len(hot))
	for i, d := range digests {
		body, _, err := env.result(ctx, d)
		if err != nil {
			return nil, err
		}
		out[i] = bytes.Clone(body)
	}
	return out, nil
}

// checkServed checks one request's outcome: a hot answer must be
// bit-identical to the set-up copy; a cold proof must carry the oracle's
// answer and pass an audit-grade VerifyProof, whose cost is recorded for
// untraced interactive proofs. It reports whether the request succeeded.
func checkServed(t *tally, i int, r *serveReq, hotBytes [][]byte, seed int64, verify *[]float64) bool {
	if r.err != nil {
		t.fail("request %d (%s %q): %v", i, r.tenant, r.spec, r.err)
		return false
	}
	if r.hot >= 0 {
		if !bytes.Equal(r.body, hotBytes[r.hot]) {
			t.fail("request %d: hot proof of %q is not the set-up copy", i, r.spec)
			return false
		}
		return true
	}
	var p camelot.Proof
	if err := p.UnmarshalBinary(r.body); err != nil {
		t.fail("request %d: served bytes of %q: %v", i, r.spec, err)
		return false
	}
	w, err := camelot.ParseWorkload(r.spec)
	if err != nil {
		t.fail("request %d: %v", i, err)
		return false
	}
	got, err := w.Problem.Count(&p)
	if want := r.oracle(); err != nil || got.Cmp(want) != 0 {
		t.fail("request %d: %q counted %v (err %v), oracle says %v", i, r.spec, got, err, want)
		return false
	}
	vd, err := timedVerify(w.Problem, &p, seed+int64(i))
	if err != nil {
		t.fail("request %d: proof of %q: %v", i, r.spec, err)
		return false
	}
	if r.tenant == "interactive" && !r.traced {
		*verify = append(*verify, ms(vd))
	}
	return true
}

// poller samples the service's queue depth from GET /metrics while a
// traced window runs, and keeps the first and last full readings.
type poller struct {
	done     chan struct{}
	finished chan struct{}
	depthMax float64
	before   map[string]float64
	after    map[string]float64
	err      error
}

func startPoller(ctx context.Context, c *httpClient) *poller {
	p := &poller{done: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(p.finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			m, err := c.metrics(ctx)
			if err != nil {
				p.err = err
				return
			}
			if p.before == nil {
				p.before = m
			}
			p.after = m
			p.depthMax = max(p.depthMax, m["camelot_queue_depth"])
			select {
			case <-p.done:
				if m, err := c.metrics(ctx); err == nil {
					p.after = m
				}
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends the polling and returns the first and last readings.
func (p *poller) stop() (before, after map[string]float64) {
	close(p.done)
	<-p.finished
	return p.before, p.after
}

// tracedServeLayers computes the service, engine and transport metrics:
// client-side HTTP timings and transport spans of the traced blocks, and
// /metrics deltas over the window for the engine stages.
func tracedServeLayers(tr *tracer, sched []*serveReq, hotBytes [][]byte, poll *poller, before, after map[string]float64, v map[string]float64) error {
	if poll.err != nil {
		return fmt.Errorf("polling /metrics: %w", poll.err)
	}
	var submit, hitResult []float64
	n, cached, coalesced, refused := 0, 0, 0, 0
	for _, r := range sched {
		if !r.traced {
			continue
		}
		n++
		submit = append(submit, us(r.submit))
		switch {
		case r.status == http.StatusTooManyRequests:
			refused++
		case r.state == "cached":
			cached++
		case r.state == "coalesced":
			coalesced++
		}
		if r.hot >= 0 && r.err == nil {
			hitResult = append(hitResult, us(r.result))
		}
	}
	v["serve.submit_us"] = median(submit)
	v["serve.result_hit_us"] = median(hitResult)
	v["serve.cache_hit_share"] = float64(cached) / float64(max(n, 1))
	v["serve.coalesced"] = float64(coalesced)
	v["serve.refused"] = float64(refused)
	v["serve.queue_depth_max"] = poll.depthMax
	v["serve.plan_cache_hits"] = after["camelot_plan_cache_hits"]
	v["serve.plan_cache_misses"] = after["camelot_plan_cache_misses"]

	var checks []float64
	for _, b := range hotBytes {
		var p camelot.Proof
		if err := p.UnmarshalBinary(b); err != nil {
			return err
		}
		seed := int64(0)
		d, err := medianCall(20, 10*time.Millisecond, func() error {
			seed++
			ok, err := camelot.VerifyProofBatch(&p, seed)
			if err == nil && !ok {
				err = fmt.Errorf("VerifyProofBatch rejected a hot proof")
			}
			return err
		})
		if err != nil {
			return err
		}
		checks = append(checks, us(d))
	}
	v["serve.spotcheck_us"] = median(checks)

	// Engine stages: the service's per-stage wall-time counters over the
	// runs that finished during the window.
	finished := func(m map[string]float64) float64 { return m["camelot_runs_total"] - m["camelot_queue_depth"] }
	runs := max(finished(after)-finished(before), 1)
	delta := func(series string) float64 { return after[series] - before[series] }
	v["core.prepare_ms"] = 1e3 * delta(`camelot_stage_seconds{stage="prepare"}`) / runs
	v["core.decode_ms"] = 1e3 * delta(`camelot_stage_seconds{stage="decode"}`) / runs
	v["core.verify_ms"] = 1e3 * delta(`camelot_stage_seconds{stage="verify"}`) / runs
	v["core.repair_rounds"] = delta("camelot_repair_rounds_total") / runs
	// The service hides each run's Report, so the per-node figures and
	// the session overhead are not observable here.
	for _, name := range []string{"core.prepare_self_ms", "core.node_max_ms", "core.node_total_ms", "core.ek_per_point_us",
		"core.prepare_parallel_eff", "core.suspects", "core.missing", "core.repaired", "session.overhead_ms"} {
		v[name] = 0
	}

	sends := tr.byReq("core.transport.send")
	gathers := tr.byReq("core.transport.gather")
	var msgs, wait []float64
	for req, ss := range sends {
		if req < unattributedBase {
			continue
		}
		msgs = append(msgs, float64(len(ss)))
		var g time.Duration
		for _, s := range gathers[req] {
			g += s.dur()
		}
		wait = append(wait, ms(g))
	}
	v["core.transport.messages"] = median(msgs)
	v["core.transport.gather_wait_ms"] = median(wait)
	v["core.transport.send_us"] = median(tr.durations("core.transport.send")) / 1e3
	return nil
}
