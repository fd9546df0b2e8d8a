package main

// Layer replays: the arithmetic rungs of the ladder (field multiply,
// vector kernel, polynomial mul/divmod/interpolate, Gao decode) timed
// by calling ff, poly and rs directly on inputs of the workload's own
// geometry — its primes, degree bound d and code length e, with the
// liar's point range corrupted and the lost node's range erased — plus
// the paper's cost-model rows, which re-run a workload's instance at
// several node counts.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"camelot"
	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/poly"
	"camelot/internal/rs"
)

// geometry is what a replay needs to know about a workload's runs.
type geometry struct {
	primes         []uint64
	d, e, k        int
	liars, dropped []int // node ids whose ranges are corrupted / erased
}

// sink keeps the compiler from discarding replayed work.
var sink uint64

func randVec(rng *rand.Rand, q uint64, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % q
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// replayLayers times the ff, poly and rs rungs at g and checks each
// replay's output. Figures are averaged over the workload's primes.
func replayLayers(rng *rand.Rand, g geometry, v map[string]float64) error {
	per := map[string][]float64{}
	for _, q := range g.primes {
		f, err := ff.New(q)
		if err != nil {
			return err
		}
		if err := replayPrime(rng, f, g, per); err != nil {
			return fmt.Errorf("prime %d: %w", q, err)
		}
	}
	for name, xs := range per {
		v[name] = mean(xs)
	}
	return nil
}

func replayPrime(rng *rand.Rand, f ff.Field, g geometry, per map[string][]float64) error {
	q := f.Q
	add := func(name string, x float64) { per[name] = append(per[name], x) }

	// Field.Mul: independent products, so this is throughput per call.
	const block = 4096
	const muls = 1 << 16
	xs, ys := randVec(rng, q, block), randVec(rng, q, block)
	d, err := medianCall(9, 20*time.Millisecond, func() error {
		acc := uint64(0)
		for i := 0; i < muls; i++ {
			acc ^= f.Mul(xs[i&(block-1)], ys[i&(block-1)])
		}
		sink ^= acc
		return nil
	})
	if err != nil {
		return err
	}
	add("ff.mul_ns", float64(d)/muls)

	// MulVecK at length e, the decoder's and NTT's vector shape.
	a, b, dst := randVec(rng, q, g.e), randVec(rng, q, g.e), make([]uint64, g.e)
	k := f.Kernel()
	reps := max(1, muls/g.e)
	d, err = medianCall(9, 20*time.Millisecond, func() error {
		for r := 0; r < reps; r++ {
			ff.MulVecK(dst, a, b, k)
		}
		sink ^= dst[0]
		return nil
	})
	if err != nil {
		return err
	}
	add("ff.mulvec_ns_per_elem", float64(d)/float64(reps*g.e))

	ring := poly.NewRing(f)
	pa, pb := randVec(rng, q, g.d+1), randVec(rng, q, g.d+1)
	d, err = medianCall(5, 20*time.Millisecond, func() error {
		sink ^= ring.Mul(pa, pb)[0]
		return nil
	})
	if err != nil {
		return err
	}
	add("poly.mul_us", us(d))

	// DivMod of a length-2e dividend by a length-e divisor: the shape
	// of the remainder steps in Gao decoding.
	num, den := randVec(rng, q, 2*g.e), randVec(rng, q, g.e)
	den[g.e-1] = 1
	d, err = medianCall(5, 20*time.Millisecond, func() error {
		quo, rem := ring.DivMod(num, den)
		if !poly.Equal(ring.Add(ring.Mul(quo, den), rem), num) {
			return errors.New("DivMod: quotient·divisor + remainder differs from the dividend")
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("poly.divmod_us", us(d))

	pts, vals := rs.ConsecutivePoints(g.e), randVec(rng, q, g.e)
	d, err = medianCall(5, 20*time.Millisecond, func() error {
		p := ring.Interpolate(pts, vals)
		if ring.Eval(p, pts[g.e/2]) != vals[g.e/2] {
			return errors.New("Interpolate: polynomial misses an interpolation point")
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("poly.interpolate_us", us(d))

	// Gao decode on a codeword whose liar ranges are corrupted, then the
	// erasure plan for the lost ranges and the decode through it. Where
	// 2·errors + erasures exceeds e-d-1 the decode must fail with
	// rs.ErrDecodeFailure, as the workload's first decode does.
	code, err := rs.New(ring, pts, g.d)
	if err != nil {
		return err
	}
	msg := randVec(rng, q, g.d+1)
	cw, err := code.Encode(msg)
	if err != nil {
		return err
	}
	assign := core.NewPointAssignment(g.e, g.k)
	word := append([]uint64(nil), cw...)
	errs := 0
	for _, id := range g.liars {
		lo, hi := assign.Range(id)
		for x := lo; x < hi; x++ {
			word[x] = f.Add(word[x], 1+rng.Uint64()%(q-1))
			errs++
		}
	}
	var erased []int
	for _, id := range g.dropped {
		lo, hi := assign.Range(id)
		for x := lo; x < hi; x++ {
			erased = append(erased, x)
		}
	}
	budget := g.e - g.d - 1
	expect := func(what string, got []uint64, err error, load int) error {
		if load <= budget {
			if err != nil || !poly.Equal(got, msg) {
				return fmt.Errorf("%s within budget (%d ≤ %d) did not recover the message: %v", what, load, budget, err)
			}
			return nil
		}
		if !errors.Is(err, rs.ErrDecodeFailure) {
			return fmt.Errorf("%s beyond budget (%d > %d) returned %v, want rs.ErrDecodeFailure", what, load, budget, err)
		}
		return nil
	}
	d, err = medianCall(3, 0, func() error {
		got, _, _, err := code.Decode(word)
		return expect("Decode", got, err, 2*errs)
	})
	if err != nil {
		return err
	}
	add("rs.decode_ms", ms(d))

	d, err = medianCall(3, 0, func() error {
		_, err := code.ErasurePlan(erased)
		return err
	})
	if err != nil {
		return err
	}
	add("rs.erasure_plan_ms", ms(d))

	plan, err := code.ErasurePlan(erased)
	if err != nil {
		return err
	}
	d, err = medianCall(3, 0, func() error {
		got, _, _, err := plan.Decode(word)
		return expect("ErasurePlan.Decode", got, err, 2*errs+len(erased))
	})
	if err != nil {
		return err
	}
	add("rs.erasure_decode_ms", ms(d))
	return nil
}

// modelRows re-runs one instance, honestly, on clusters of K ∈
// modelNodes nodes and records the paper's cost model: per-node time E
// (Report.MaxNodeCompute), total work EK (Report.TotalNodeCompute), the
// balance E·K ÷ EK (1 when the work splits evenly) and EK per (point ×
// prime). The first run on each cluster warms it and is not counted.
func modelRows(ctx context.Context, p core.Problem, check func(*camelot.Proof) error, faults int, v map[string]float64) error {
	const reps = 5
	for _, k := range modelNodes {
		cl := camelot.NewCluster(camelot.WithNodes(k))
		var e, ek, balance, unit []float64
		for r := 0; r <= reps; r++ {
			proof, rep, err := cl.Submit(ctx, p, camelot.WithFaultTolerance(faults)).Wait(ctx)
			if err == nil {
				err = check(proof)
			}
			if err != nil {
				cl.Close()
				return fmt.Errorf("K=%d: %w", k, err)
			}
			if r == 0 {
				continue
			}
			e = append(e, ms(rep.MaxNodeCompute))
			ek = append(ek, ms(rep.TotalNodeCompute))
			balance = append(balance, float64(rep.MaxNodeCompute)*float64(rep.Nodes)/float64(rep.TotalNodeCompute))
			unit = append(unit, us(rep.TotalNodeCompute)/float64(rep.CodeLength*len(rep.Primes)))
		}
		cl.Close()
		prefix := fmt.Sprintf("model.k%d.", k)
		v[prefix+"e_ms"] = median(e)
		v[prefix+"ek_ms"] = median(ek)
		v[prefix+"balance"] = median(balance)
		v[prefix+"ek_per_unit_us"] = median(unit)
	}
	return nil
}

// replayPlan compiles p against each prime and evaluates the whole code
// length in one block: the plan layer of a workload whose problems are
// built inside the service, out of the decorators' reach. Each block is
// checked against point-wise Evaluate at one point.
func replayPlan(p core.CompiledProblem, primes []uint64, e int, v map[string]float64) error {
	var compile, busy time.Duration
	xs := make([]uint64, e)
	for i := range xs {
		xs[i] = uint64(i)
	}
	for _, q := range primes {
		f, err := ff.New(q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		pl, err := p.Compile(f)
		compile += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		rows, err := pl.EvaluateBlock(xs)
		busy += time.Since(t0)
		if err != nil {
			return err
		}
		want, err := p.Evaluate(q, xs[e/2])
		if err != nil {
			return err
		}
		for c := range want {
			if rows[e/2][c] != want[c] {
				return fmt.Errorf("prime %d: EvaluateBlock differs from Evaluate at x=%d", q, xs[e/2])
			}
		}
	}
	points := e * len(primes)
	v["plan.compile_us"] = us(compile) / float64(len(primes))
	v["plan.eval_busy_ms"] = ms(busy)
	v["plan.eval_us_per_point"] = us(busy) / float64(points)
	v["plan.eval_calls"] = float64(len(primes))
	v["plan.points"] = float64(points)
	return nil
}
