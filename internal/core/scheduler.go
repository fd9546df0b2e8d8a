package core

// The scheduler layer bounds the protocol's concurrency: instead of one
// goroutine per node (which at K = e meant thousands of goroutines for
// large codewords), node and decoder tasks run on a worker pool of
// Options.MaxParallelism goroutines. It also owns the evaluation
// contract: problems that implement CompiledProblem get their owned
// point range per prime in blocks through a compiled plan (see
// planner.go), amortizing per-prime setup; others fall back to
// point-at-a-time Evaluate.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Block-size autotuning. A block is the cancellation quantum of the
// prepare stage — ctx is only observed between EvaluateBlock calls — so
// the right size depends on how expensive a point is: cheap points want
// huge blocks (amortize per-block setup), expensive points want small
// ones (bounded abort latency). Rather than hardcode one number (the
// retired constant was 256), the first chunk of each range is a small
// probe whose measured duration sets the steady-state size, targeting
// targetBlockNs per block and clamped to [minBatchChunk, maxBatchChunk].
// Options.BlockSize overrides the probe with a fixed size.
const (
	// probeChunk is the first-chunk probe size under autotuning.
	probeChunk = 32
	// minBatchChunk / maxBatchChunk clamp the autotuned size.
	minBatchChunk = 16
	maxBatchChunk = 4096
	// targetBlockNs is the steady-state per-block duration the autotuner
	// aims for: long enough to amortize setup, short enough that
	// cancellation latency stays human-scale.
	targetBlockNs = 25_000_000
)

// tuneBlockSize derives the steady-state block size from the probe
// chunk's measured duration.
func tuneBlockSize(elapsed time.Duration, probePoints int) int {
	perPoint := elapsed.Nanoseconds() / int64(probePoints)
	if perPoint <= 0 {
		return maxBatchChunk
	}
	bs := int(targetBlockNs / perPoint)
	if bs < minBatchChunk {
		return minBatchChunk
	}
	if bs > maxBatchChunk {
		return maxBatchChunk
	}
	return bs
}

// scheduler runs indexed tasks on a bounded worker pool.
type scheduler struct {
	workers int
}

// newScheduler clamps the pool size: 0 (the default) means
// runtime.GOMAXPROCS, matching the machine's true parallelism.
func newScheduler(maxParallelism int) scheduler {
	if maxParallelism <= 0 {
		maxParallelism = runtime.GOMAXPROCS(0)
	}
	return scheduler{workers: maxParallelism}
}

// run executes task(0..n-1) on the pool and returns the first task
// error. A task error or context cancellation stops new tasks from
// starting; tasks already running are expected to observe ctx
// themselves.
func (s scheduler) run(ctx context.Context, n int, task func(id int) error) error {
	workers := s.workers
	if workers > n {
		workers = n
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	ids := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				if poolCtx.Err() != nil {
					return
				}
				if err := task(id); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for id := 0; id < n; id++ {
		select {
		case ids <- id:
		case <-poolCtx.Done():
			break feed
		}
	}
	close(ids)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// evaluateRange computes vals[coord][x-lo] = P_coord(x) mod q for the
// point range [lo, hi), through the planner's compiled plan when the
// problem compiles and point-at-a-time Evaluate otherwise.
func evaluateRange(ctx context.Context, pl *Planner, q uint64, lo, hi, width, blockSize int) ([][]uint64, error) {
	vals := make([][]uint64, width)
	for c := range vals {
		vals[c] = make([]uint64, hi-lo)
	}
	if err := evaluateRangeInto(ctx, pl, q, lo, hi, width, vals, lo, blockSize); err != nil {
		return nil, err
	}
	return vals, nil
}

// evaluateRangeInto evaluates the point range [lo, hi) directly into
// dst[coord][x-base] — the engine's form, where several chunk tasks of
// the same node write disjoint slices of one shared message buffer.
// The planner memoizes the per-prime compile, so every chunk of a run
// shares one plan per prime instead of recompiling per chunk.
// blockSize > 0 fixes the block chunk size; <= 0 autotunes it from a
// first-chunk timing probe (each range task probes for itself: the
// probe is real work, and per-point cost can differ across primes).
func evaluateRangeInto(ctx context.Context, pl *Planner, q uint64, lo, hi, width int, dst [][]uint64, base int, blockSize int) error {
	bp, err := pl.For(q)
	if err != nil {
		return fmt.Errorf("compiling plan mod %d: %w", q, err)
	}
	if bp != nil {
		autotune := blockSize <= 0
		chunk := blockSize
		if autotune {
			chunk = probeChunk
		}
		// One chunk buffer for the whole range; EvaluateBlock must not
		// retain its argument (see the Plan contract).
		var xs []uint64
		for start := lo; start < hi; {
			if err := ctx.Err(); err != nil {
				return err
			}
			end := start + chunk
			if end > hi {
				end = hi
			}
			if cap(xs) < end-start {
				xs = make([]uint64, end-start)
			}
			xs = xs[:end-start]
			for i := range xs {
				xs[i] = uint64(start + i)
			}
			probeStart := time.Now()
			rows, err := bp.EvaluateBlock(xs)
			if err != nil {
				return fmt.Errorf("evaluating block [%d,%d) mod %d: %w", start, end, q, err)
			}
			if autotune {
				chunk = tuneBlockSize(time.Since(probeStart), end-start)
				autotune = false
			}
			if len(rows) != len(xs) {
				return fmt.Errorf("EvaluateBlock returned %d rows, want %d", len(rows), len(xs))
			}
			for i, vec := range rows {
				if len(vec) != width {
					return fmt.Errorf("EvaluateBlock row %d has %d coords, want %d", i, len(vec), width)
				}
				for c, v := range vec {
					dst[c][start-base+i] = v % q
				}
			}
			start = end
		}
		return nil
	}
	p := pl.Problem()
	for x := lo; x < hi; x++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		vec, err := p.Evaluate(q, uint64(x))
		if err != nil {
			return fmt.Errorf("evaluating P(%d) mod %d: %w", x, q, err)
		}
		if len(vec) != width {
			return fmt.Errorf("Evaluate returned %d coords, want %d", len(vec), width)
		}
		for c, v := range vec {
			dst[c][x-base] = v % q
		}
	}
	return nil
}

// EvaluateShares computes one complete NodeShares message for the
// point range [lo, hi): every prime's width×span evaluation block,
// stamped with the logical owner, the physical sender, and the gather
// round. It reuses the engine's evaluateRange so a remotely produced
// frame is bit-identical to what the in-process prepare stage would
// have broadcast — the property the multi-process bit-identity checks
// pin. Block size autotunes exactly as in-process evaluation does.
//
// The method form is the worker daemon's whole compute path
// (internal/ctrl): a worker keeps one Planner per assignment manifest,
// so the per-prime compile persists across assignments and repair
// rounds of the same workload. The free function wraps a throwaway
// Planner for one-shot callers.
func (pl *Planner) EvaluateShares(ctx context.Context, primes []uint64, owner, from, round, lo, hi int) (NodeShares, error) {
	m := NodeShares{
		ID: owner, From: from, Round: round,
		Lo: lo, Hi: hi,
		Vals: make([][][]uint64, len(primes)),
	}
	width := pl.Problem().Width()
	start := time.Now()
	for pi, q := range primes {
		vals, err := evaluateRange(ctx, pl, q, lo, hi, width, 0)
		if err != nil {
			return m, err
		}
		m.Vals[pi] = vals
	}
	m.Elapsed = time.Since(start)
	return m, nil
}

// EvaluateShares is the one-shot form of Planner.EvaluateShares: it
// compiles (and discards) plans for this call only.
func EvaluateShares(ctx context.Context, p Problem, primes []uint64, owner, from, round, lo, hi int) (NodeShares, error) {
	return NewPlanner(p).EvaluateShares(ctx, primes, owner, from, round, lo, hi)
}
