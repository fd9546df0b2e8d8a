package core

// The planner is the core engine's handle on the plan layer
// (internal/plan): it resolves, per prime, how a problem's point ranges
// are evaluated — a compiled Plan (memoized, shared) or the
// point-at-a-time fallback — and it is the unit of reuse. One engine
// builds one Planner for its whole run, so every chunk task, node, and
// repair round of the run compiles at most once per prime; ctrl
// workers keep a Planner per assignment manifest for the same reason;
// and runs submitted with a shared plan.Cache and a workload key reuse
// compiles across runs and tenants.

import (
	"camelot/internal/ff"
	"camelot/internal/plan"
)

// CompiledProblem is a Problem whose per-prime setup compiles into a
// reusable plan.Plan — the one extension point for block evaluation.
// The framework hands each node its owned point range in blocks of
// consecutive points — sized by Options.BlockSize, or autotuned from a
// first-chunk timing probe (see evaluateRangeInto) — and memoizes the
// compiled plans per prime, sharing them across chunks, repair rounds,
// and runs.
type CompiledProblem interface {
	Problem
	plan.Compiler
}

// Planner resolves a problem's per-prime evaluation strategy and
// memoizes compiled plans. Safe for concurrent use (the engine's chunk
// tasks call For from every pool worker).
type Planner struct {
	p     Problem
	cp    plan.Compiler // non-nil when p compiles
	cache *plan.Cache   // never nil
	key   string
}

// NewPlanner returns a planner with a private plan cache — reuse within
// whatever scope keeps the planner alive (a run, a worker's manifest).
func NewPlanner(p Problem) *Planner {
	return NewSharedPlanner(p, nil, "")
}

// NewSharedPlanner returns a planner that memoizes compiled plans in
// the shared cache under key — the cross-run, cross-tenant sharing
// mode. The key must uniquely identify the problem instance (a
// canonical workload digest, not a display name); when cache is nil or
// key empty the planner falls back to a private cache.
func NewSharedPlanner(p Problem, cache *plan.Cache, key string) *Planner {
	pl := &Planner{p: p, cache: cache, key: key}
	pl.cp, _ = p.(plan.Compiler)
	if pl.cache == nil || pl.key == "" {
		pl.cache = plan.NewCache()
		pl.key = "private"
	}
	return pl
}

// Problem returns the planner's underlying problem.
func (pl *Planner) Problem() Problem { return pl.p }

// For returns the block evaluator for prime q: the memoized compiled
// plan when the problem compiles, and nil (with nil error) when only
// per-point Evaluate exists.
func (pl *Planner) For(q uint64) (plan.Plan, error) {
	if pl.cp == nil {
		return nil, nil
	}
	return pl.cache.Get(pl.key, q, func() (plan.Plan, error) {
		f, err := ff.New(q)
		if err != nil {
			return nil, err
		}
		return pl.cp.Compile(f)
	})
}
