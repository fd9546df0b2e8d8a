package plan

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// nopPlan is a stand-in compiled plan; the cache never evaluates it.
type nopPlan struct{}

func (nopPlan) EvaluateBlock(xs []uint64) ([][]uint64, error) { return nil, nil }

// TestCacheSingleFlight pins the cache's concurrency contract: many
// goroutines racing Get on one (key, prime) compile exactly once and
// all observe the same plan.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var compiles atomic.Int64
	var p Plan = nopPlan{}

	const workers = 16
	plans := make([]Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Get("w", 97, func() (Plan, error) {
				compiles.Add(1)
				return p, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = got
		}()
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiled %d times, want 1", n)
	}
	for i, got := range plans {
		if got == nil {
			t.Fatalf("goroutine %d got nil plan", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != workers-1 {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, workers-1)
	}
}

// TestCacheKeying pins that distinct workload keys and distinct primes
// each compile their own plan.
func TestCacheKeying(t *testing.T) {
	c := NewCache()
	var compiles atomic.Int64
	get := func(key string, q uint64) {
		t.Helper()
		if _, err := c.Get(key, q, func() (Plan, error) {
			compiles.Add(1)
			return nopPlan{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a", 97)
	get("a", 101) // new prime, same workload
	get("b", 97)  // new workload, same prime
	get("a", 97)  // repeat: hit
	if n := compiles.Load(); n != 3 {
		t.Fatalf("compiled %d times, want 3", n)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 3)", hits, misses)
	}
}

// TestCacheMemoizesErrors pins that a failed compile is memoized —
// compile errors are deterministic in the problem geometry, so
// retrying on every lookup would just repay the failure.
func TestCacheMemoizesErrors(t *testing.T) {
	c := NewCache()
	sentinel := errors.New("bad geometry")
	var compiles atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := c.Get("w", 97, func() (Plan, error) {
			compiles.Add(1)
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("Get error = %v, want %v", err, sentinel)
		}
	}
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiled %d times, want 1", n)
	}
}
