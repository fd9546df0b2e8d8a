// Package plan is the shared two-phase evaluation contract of the
// problem zoo: a problem *compiles* against one prime field — hoisting
// every evaluation-point-independent artifact (mask tables, suffix
// plans, Lagrange grids, interpolated columns, zeta/Yates layouts) into
// a Plan — and the framework then *evaluates* the plan at many points.
// The split matters because the Camelot protocol evaluates each proof
// polynomial at e = d+1+2f points per prime: setup paid once per
// (problem, prime) instead of once per point is the difference between
// the per-point fallback and the block fast path.
//
// Plans are shared aggressively — across the chunks of one node's
// range, across nodes, across repair rounds, and (through Cache) across
// runs that name the same workload — so a Plan must be safe for
// concurrent EvaluateBlock calls: all per-call scratch (evaluator
// state, walk vectors, coefficient buffers) lives on the call stack,
// never on the Plan.
package plan

import (
	"sync"
	"sync/atomic"

	"camelot/internal/ff"
)

// Compiler is the compile half of the contract: binding a problem to
// one prime field produces the field's reusable Plan. Compile must be
// deterministic in the field — two compiles against the same prime
// yield plans with identical EvaluateBlock results — and cheap enough
// to pay once per (problem, prime); everything per-point stays in the
// Plan's EvaluateBlock.
type Compiler interface {
	Compile(f ff.Field) (Plan, error)
}

// Plan is a compiled evaluator for one (problem, prime) pair.
type Plan interface {
	// EvaluateBlock computes the proof polynomials at every point of xs,
	// returning one row (P_0(x), ..., P_{Width-1}(x)) per point. Results
	// must be identical to the problem's point-wise Evaluate — the
	// verification stage evaluates through Evaluate, so a divergent plan
	// fails verification rather than silently corrupting the proof. The
	// xs slice is reused between calls and must not be retained.
	// Implementations must be safe for concurrent calls.
	EvaluateBlock(xs []uint64) ([][]uint64, error)
}

// cacheKey identifies one compiled artifact: the workload's plan digest
// and the prime it was compiled against.
type cacheKey struct {
	key string
	q   uint64
}

// entry is one key's single-flight slot: the first Get compiles under
// the once, every later Get reuses the result (compile errors are
// deterministic in the problem geometry, so they memoize too).
type entry struct {
	once sync.Once
	plan Plan
	err  error
}

// Cache memoizes compiled plans by (key, q). It is the sharing seam
// between layers: the core engine keys a run's chunks into it, ctrl
// workers reuse one across assignment manifests and repair rounds, and
// the serve layer hands every tenant's run the same cluster-wide cache
// so a repeated workload digest never recompiles. Safe for concurrent
// use; compilation is single-flight per key.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry

	hits, misses atomic.Int64
}

// NewCache returns an empty plan cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*entry)}
}

// Get returns the plan cached under (key, q), compiling it with compile
// on first use. Concurrent Gets for the same key compile exactly once;
// a Get that finds an existing entry counts as a hit (even while the
// compile is still in flight — it reuses that work), a Get that creates
// the entry as a miss.
func (c *Cache) Get(key string, q uint64, compile func() (Plan, error)) (Plan, error) {
	k := cacheKey{key: key, q: q}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.plan, e.err = compile() })
	return e.plan, e.err
}

// Stats reports the cache's lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports how many (key, q) entries the cache holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
