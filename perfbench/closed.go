package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"camelot"
	"camelot/internal/chromatic"
	"camelot/internal/cliques"
	"camelot/internal/core"
	"camelot/internal/graph"
	"camelot/internal/tensor"
)

// setupReps is how many times a run sets itself up; setup_s is the
// median, since one set-up is a single sample of a proof's latency.
// Process-wide memos (fields, NTT plans) are warm after the first,
// per-cluster state (primes, Reed–Solomon codes, plan caches) never is.
const setupReps = 9

// A reread sample times rereadBlocks blocks of rereadReps re-reads and
// takes the median block: a single unmarshal and spot-check takes a
// fraction of a millisecond, too little to time alone, and the median
// leaves out a block that a stall of the shared host or a garbage
// collection stretched.
const (
	rereadBlocks = 9
	rereadReps   = 11
)

// A verify sample is the mean of at least verifyReps one-trial
// VerifyProof checks lasting at least verifySpan in all, so that a
// sample neither hangs on one call's luck with the garbage collector nor
// is too short to time.
const (
	verifyReps = 5
	verifySpan = 5 * time.Millisecond
)

// timedVerify runs one-trial VerifyProof checks of proof with distinct
// seeds, as many as a verify sample needs, and returns their mean
// duration. A rejection is an error.
func timedVerify(p camelot.Problem, proof *camelot.Proof, seed int64) (time.Duration, error) {
	start := time.Now()
	k := int64(0)
	for ; k < verifyReps || time.Since(start) < verifySpan; k++ {
		ok, err := camelot.VerifyProof(p, proof, 1, seed<<16+k)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, errors.New("VerifyProof rejected the proof")
		}
	}
	return time.Since(start) / time.Duration(k), nil
}

// instance is one generated input: the problem the cluster proves and a
// check of a decoded proof against the oracle's answer.
type instance struct {
	problem core.CompiledProblem
	check   func(*camelot.Proof) error
}

// closedWorkload is a closed loop with one proof in flight: the next
// proof is submitted when the previous one returns.
type closedWorkload struct {
	nodes, faults int
	// instances is how many generated inputs a run cycles through. A
	// run's proofs each see a different graph wherever the window allows,
	// so the latency distribution is smooth: with a handful of graphs of
	// different cost its median would sit between two of them and jump.
	instances int
	// slo is the latency limit of slo_ratio, about twice the p90 seen on
	// a 2-CPU host.
	slo time.Duration
	// transport builds a run's share transport; nil is the default bus.
	transport core.TransportFactory
	build     func(seed int64) (*instance, error)
	opts      func(i int) []camelot.RunOption
	// checkReport, when set, rejects a proof whose run did not take the
	// path the workload exists to measure.
	checkReport    func(*camelot.Report) error
	liars, dropped []int
}

// runCliquesByzantine: Theorem 1 k-cliques (n=8, k=6, p=0.9) on K=8
// nodes with f=200. Node 2 lies, node 5's broadcast is always lost, one
// erasure is allowed and one repair round: the first decode exceeds the
// budget (2·errors + erasures > e-d-1), the repair round recomputes node
// 5's range, and the second decode succeeds. Seven honest Gao decoders
// run twice, so rs and poly dominate.
func runCliquesByzantine(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	const liar, lost = 2, 5
	lying := camelot.LyingNodes(uint64(cfg.seed), liar)
	w := &closedWorkload{
		nodes: 8, faults: 200, instances: 128, slo: 600 * time.Millisecond,
		transport: core.NewLossyFactory(camelot.LossyConfig{Seed: cfg.seed, DropNodes: []int{lost}}, nil),
		liars:     []int{liar}, dropped: []int{lost},
		build: func(seed int64) (*instance, error) {
			g := graph.Gnp(8, 0.9, seed)
			p, err := cliques.NewProblem(g, 6, tensor.Strassen())
			if err != nil {
				return nil, err
			}
			want, err := cliques.CountNesetrilPoljak(g, 6)
			if err != nil {
				return nil, err
			}
			return &instance{problem: p, check: func(proof *camelot.Proof) error {
				got, err := p.Recover(proof)
				if err != nil {
					return err
				}
				if got.Cmp(want) != 0 {
					return fmt.Errorf("6-clique count %v, oracle says %v", got, want)
				}
				return nil
			}}, nil
		},
		opts: func(i int) []camelot.RunOption {
			return []camelot.RunOption{
				camelot.WithFaultTolerance(200),
				camelot.WithAdversary(lying),
				camelot.WithMaxErasures(1),
				camelot.WithMaxRepairRounds(1),
				camelot.WithVerifyTrials(1),
				camelot.WithSeed(cfg.seed + int64(i)),
			}
		},
		checkReport: func(r *camelot.Report) error {
			if !slices.Contains(r.SuspectNodes, liar) || !slices.Contains(r.RepairedNodes, lost) || r.RepairRounds != 1 {
				return fmt.Errorf("fault path not taken: suspects %v, repaired %v, repair rounds %d (want node %d suspected, node %d repaired in 1 round)",
					r.SuspectNodes, r.RepairedNodes, r.RepairRounds, liar, lost)
			}
			return nil
		},
	}
	return runClosed(ctx, cfg, tr, w)
}

// runChromaticHonest: the Theorem 6 chromatic polynomial of G(11, 0.4)
// on K=2 nodes, no faults, strict gather. Evaluation is exponential in n
// and dominates the proof; decoding a length-81 word is cheap. The
// subset oracle is itself checked against chromatic.DeletionContraction
// on the first instance.
func runChromaticHonest(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	crossChecked := false
	w := &closedWorkload{
		nodes: 2, faults: 0, instances: 128, slo: 800 * time.Millisecond,
		build: func(seed int64) (*instance, error) {
			g := graph.Gnp(11, 0.4, seed)
			p, err := chromatic.NewProblem(g)
			if err != nil {
				return nil, err
			}
			want := chromaticBySubsets(g)
			if !crossChecked {
				if slow := chromatic.DeletionContraction(g); !slices.EqualFunc(want, slow, bigEqual) {
					return nil, fmt.Errorf("oracles disagree on %v: subsets %v, deletion-contraction %v", g, want, slow)
				}
				crossChecked = true
			}
			return &instance{problem: p, check: func(proof *camelot.Proof) error {
				got, err := p.Coefficients(proof)
				if err != nil {
					return err
				}
				if !slices.EqualFunc(got, want, bigEqual) {
					return fmt.Errorf("chromatic coefficients %v, oracle says %v", got, want)
				}
				return nil
			}}, nil
		},
		opts: func(i int) []camelot.RunOption {
			return []camelot.RunOption{camelot.WithVerifyTrials(1), camelot.WithSeed(cfg.seed + int64(i))}
		},
	}
	return runClosed(ctx, cfg, tr, w)
}

func bigEqual(a, b *big.Int) bool { return a.Cmp(b) == 0 }

// closedRun is one proof of the timed window.
type closedRun struct {
	inst   int
	traced bool
	req    int64
	proof  *camelot.Proof
	rep    *camelot.Report
	err    error
	lat    time.Duration
}

func runClosed(ctx context.Context, cfg config, tr *tracer, w *closedWorkload) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	insts := make([]*instance, w.instances)
	for i := range insts {
		var err error
		if insts[i], err = w.build(rng.Int63()); err != nil {
			return nil, fmt.Errorf("building instance %d: %w", i, err)
		}
	}

	clusterOpts := []camelot.ClusterOption{camelot.WithNodes(w.nodes)}
	var factory *tracedFactory
	if tr != nil {
		inner := w.transport
		if inner == nil {
			inner = func(k int) core.Transport { return core.NewBroadcastBus(k) }
		}
		factory = &tracedFactory{tr: tr, inner: inner}
		clusterOpts = append(clusterOpts, camelot.WithTransport(factory.build))
	} else if w.transport != nil {
		clusterOpts = append(clusterOpts, camelot.WithTransport(w.transport))
	}

	// Set-up: a cluster and its first, untimed proof, which chooses the
	// primes and builds the Reed–Solomon codes and NTT plans.
	var setups, rawSetups []float64
	var cl *camelot.Cluster
	var geo *camelot.Report
	for r := 0; r < setupReps; r++ {
		if cl != nil {
			cl.Close()
		}
		stat, start := readCPUStat(), time.Now()
		cl = camelot.NewCluster(clusterOpts...)
		proof, rep, err := cl.Submit(ctx, insts[0].problem, w.opts(-1-r)...).Wait(ctx)
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*(1-stolenShare(stat, readCPUStat())))
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("set-up proof: %w", err)
		}
		if err := insts[0].check(proof); err != nil {
			cl.Close()
			return nil, fmt.Errorf("set-up proof: %w", err)
		}
		geo = rep
	}
	defer cl.Close()

	// The timed window. A traced run alternates untraced and traced
	// proofs, so both see the same machine state. Each proof is checked,
	// verified and re-read as soon as it returns — so those costs are
	// measured across the window too, not in a burst after it — and the
	// time that takes is the client's, kept out of the window. A cycle (a
	// proof and its checks, a quarter second or more) is the interval
	// whose stolen share scales its samples.
	out := &outcome{values: map[string]float64{}}
	var runs []closedRun // traced proofs, for the per-layer figures
	var lat, rawLat, traced, verify, reread, rawVerify, rawReread []float64
	delivered := 0
	minTicks := uint64(math.MaxUint64)
	var clientTime, cpu time.Duration
	var alloc uint64
	stat, start := readCPUStat(), time.Now()
	for i := 0; time.Since(start)-clientTime < cfg.window && ctx.Err() == nil; i++ {
		r := closedRun{inst: i % len(insts), traced: tr != nil && i%2 == 1, req: int64(i)}
		var p camelot.Problem = insts[r.inst].problem
		var jobID int64
		if r.traced {
			jobID = tr.newID()
			p = tracedProblem{CompiledProblem: insts[r.inst].problem, tr: tr, req: r.req, parent: jobID}
			factory.cur.Store(&runTag{req: r.req, parent: jobID})
		} else if factory != nil {
			factory.cur.Store(nil)
		}
		cycle, cpu0, alloc0, t0 := readCPUStat(), processCPU(), heapAllocated(), time.Now()
		r.proof, r.rep, r.err = cl.Submit(ctx, p, w.opts(i)...).Wait(ctx)
		r.lat = time.Since(t0)
		if !r.traced {
			cpu += processCPU() - cpu0
			alloc += heapAllocated() - alloc0
		}
		tr.record("camelot.job", jobID, 0, r.req, t0, 0)

		c0 := time.Now()
		out.attempted++
		var vd, rd time.Duration
		ok := false
		if r.err != nil {
			out.fail("proof %d: %v", i, r.err)
		} else {
			vd, rd, ok = checkClosedProof(&out.tally, tr, w, insts[r.inst], i, r, cfg.seed)
		}
		now := readCPUStat()
		keep := 1 - stolenShare(cycle, now)
		minTicks = min(minTicks, ticks(cycle, now))
		switch {
		case !ok:
		case r.traced:
			traced = append(traced, keep*ms(r.lat))
		default:
			lat = append(lat, keep*ms(r.lat))
			rawLat = append(rawLat, ms(r.lat))
			verify = append(verify, keep*ms(vd))
			reread = append(reread, keep*ms(rd))
			rawVerify = append(rawVerify, ms(vd))
			rawReread = append(rawReread, ms(rd))
			delivered++
		}
		clientTime += time.Since(c0)
		if r.traced {
			r.proof = nil // only the report and latency are needed later
			runs = append(runs, r)
		}
	}
	elapsed := time.Since(start) - clientTime
	keep := 1 - stolenShare(stat, readCPUStat())
	inLimit := 0
	for _, x := range lat {
		if x <= ms(w.slo) {
			inLimit++
		}
	}
	untraced := out.attempted - len(traced)
	fmt.Printf("samples proofs=%d traced=%d verify=%d reread=%d window_s=%.3f\n", len(lat), len(traced), len(verify), len(reread), elapsed.Seconds())
	fmt.Printf("host unstolen_share=%.4f min_cycle_ticks=%d raw setup_s=%.4f proof_p50_ms=%.3f proof_p90_ms=%.3f verify_p50_ms=%.4f reread_p50_ms=%.4f reread_p90_ms=%.4f\n",
		keep, minTicks, median(rawSetups), quantile(rawLat, 0.5), quantile(rawLat, 0.9), median(rawVerify), quantile(rawReread, 0.5), quantile(rawReread, 0.9))

	v := out.values
	v["setup_s"] = median(setups)
	v["proof_p50_ms"] = quantile(lat, 0.5)
	v["proof_p90_ms"] = quantile(lat, 0.9)
	v["proofs_per_s"] = float64(delivered) / (keep * elapsed.Seconds())
	v["cpu_ms_per_proof"] = ms(cpu) / float64(max(delivered, 1))
	v["verify_p50_ms"] = median(verify)
	v["reread_p50_ms"] = quantile(reread, 0.5)
	v["reread_p90_ms"] = quantile(reread, 0.9)
	v["slo_ratio"] = float64(inLimit) / float64(max(untraced, 1))
	v["alloc_mb_per_proof"] = mb(alloc) / float64(max(delivered, 1))
	if tr == nil {
		return out, nil
	}

	tracedClosedLayers(tr, runs, v)
	v["trace.overhead_pct"] = 100 * (median(traced)/median(lat) - 1)
	var rawTraced []float64
	for _, r := range runs {
		rawTraced = append(rawTraced, ms(r.lat))
	}
	fmt.Printf("design prepare_share=%.3f decode_share=%.3f repair_rounds=%g\n",
		v["core.prepare_ms"]/median(rawTraced), v["core.decode_ms"]/median(rawTraced), v["core.repair_rounds"])
	for _, name := range []string{"serve.submit_us", "serve.result_hit_us", "serve.spotcheck_us", "serve.cache_hit_share",
		"serve.coalesced", "serve.refused", "serve.queue_depth_max", "serve.plan_cache_hits", "serve.plan_cache_misses"} {
		v[name] = 0
	}
	g := geometry{primes: geo.Primes, d: geo.Degree, e: geo.CodeLength, k: geo.Nodes, liars: w.liars, dropped: w.dropped}
	if err := replayLayers(rng, g, v); err != nil {
		out.fail("layer replay: %v", err)
	}
	if err := modelRows(ctx, insts[0].problem, insts[0].check, w.faults, v); err != nil {
		out.fail("cost-model rows: %v", err)
	}
	return out, nil
}

// checkClosedProof checks one delivered proof — its answer against the
// oracle, the fault path its report shows, an audit-grade VerifyProof
// and a re-read — and returns the verifier's and one re-read's costs. It
// reports whether the proof passed.
func checkClosedProof(t *tally, tr *tracer, w *closedWorkload, inst *instance, i int, r closedRun, seed int64) (verify, reread time.Duration, ok bool) {
	if err := inst.check(r.proof); err != nil {
		t.fail("proof %d: %v", i, err)
		return 0, 0, false
	}
	if w.checkReport != nil {
		if err := w.checkReport(r.rep); err != nil {
			t.fail("proof %d: %v", i, err)
			return 0, 0, false
		}
	}
	t0 := time.Now()
	vd, err := timedVerify(inst.problem, r.proof, seed+int64(i))
	tr.record("camelot.verify_proof", 0, 0, r.req, t0, verifyReps)
	if err != nil {
		t.fail("proof %d: %v", i, err)
		return 0, 0, false
	}
	data, err := r.proof.MarshalBinary()
	if err != nil {
		t.fail("proof %d: marshal: %v", i, err)
		return 0, 0, false
	}
	t0 = time.Now()
	k := seed
	block, err := medianCall(rereadBlocks, 0, func() error {
		for range rereadReps {
			var q camelot.Proof
			if err := q.UnmarshalBinary(data); err != nil {
				return fmt.Errorf("unmarshal: %w", err)
			}
			k++
			if ok, err := camelot.VerifyProofBatch(&q, k); err != nil || !ok {
				return fmt.Errorf("VerifyProofBatch rejected it (ok=%t, err=%v)", ok, err)
			}
		}
		return nil
	})
	tr.record("camelot.reread", 0, 0, r.req, t0, rereadBlocks*rereadReps)
	if err != nil {
		t.fail("proof %d: %v", i, err)
		return 0, 0, false
	}
	return vd, block / rereadReps, true
}

// tracedClosedLayers turns the traced proofs' spans and reports into
// the engine, plan, transport and session metrics: the median over
// traced proofs of each per-proof figure.
func tracedClosedLayers(tr *tracer, runs []closedRun, v map[string]float64) {
	evals := tr.byReq("plan.evaluate_block")
	sends := tr.byReq("core.transport.send")
	gathers := tr.byReq("core.transport.gather")
	per := map[string][]float64{}
	add := func(name string, x float64) { per[name] = append(per[name], x) }
	width := float64(runtime.GOMAXPROCS(0))
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		rep := r.rep
		var busy time.Duration
		var points int64
		for _, s := range evals[r.req] {
			busy += s.dur()
			points += s.n
		}
		var gather time.Duration
		for _, s := range gathers[r.req] {
			gather += s.dur()
		}
		verify := time.Duration(rep.VerifyTrials) * rep.VerifyPerTrial
		units := float64(rep.CodeLength * len(rep.Primes))
		add("plan.eval_busy_ms", ms(busy))
		add("plan.eval_us_per_point", us(busy)/float64(max(points, 1)))
		add("plan.eval_calls", float64(len(evals[r.req])))
		add("plan.points", float64(points))
		add("core.prepare_ms", ms(rep.ComputeWall))
		add("core.prepare_self_ms", ms(rep.ComputeWall-covered(evals[r.req])))
		add("core.decode_ms", ms(rep.DecodeWall))
		add("core.verify_ms", ms(verify))
		add("core.repair_rounds", float64(rep.RepairRounds))
		add("core.node_max_ms", ms(rep.MaxNodeCompute))
		add("core.node_total_ms", ms(rep.TotalNodeCompute))
		add("core.ek_per_point_us", us(rep.TotalNodeCompute)/units)
		add("core.prepare_parallel_eff", float64(rep.TotalNodeCompute)/(float64(rep.ComputeWall)*width))
		add("core.suspects", float64(len(rep.SuspectNodes)))
		add("core.missing", float64(len(rep.MissingNodes)))
		add("core.repaired", float64(len(rep.RepairedNodes)))
		add("core.transport.gather_wait_ms", ms(gather))
		add("core.transport.messages", float64(len(sends[r.req])))
		add("session.overhead_ms", ms(r.lat-rep.ComputeWall-rep.DecodeWall-verify))
	}
	for name, xs := range per {
		v[name] = median(xs)
	}
	v["plan.compile_us"] = median(tr.durations("plan.compile")) / 1e3
	v["core.transport.send_us"] = median(tr.durations("core.transport.send")) / 1e3
}
