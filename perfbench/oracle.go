package main

import (
	"math/big"

	"camelot/internal/graph"
)

// chromaticBySubsets is the chromatic-polynomial oracle: a_k, the number
// of partitions of the vertices into k nonempty independent sets, by
// dynamic programming over vertex subsets in O(n·3^n), then
// χ(t) = Σ_k a_k·t(t−1)⋯(t−k+1) expanded into coefficients c_0..c_n. It
// shares nothing with the Theorem 6 proof polynomial and takes
// milliseconds at n = 11, where chromatic.DeletionContraction can take
// seconds — fast enough for a fresh instance per proof.
func chromaticBySubsets(g *graph.Graph) []*big.Int {
	n := g.N()
	full := 1 << n
	independent := make([]bool, full)
	for s := range independent {
		independent[s] = g.IsIndependentMask(uint64(s))
	}
	// parts[s] is the number of partitions of s into k independent
	// blocks; the block holding s's lowest vertex is enumerated
	// explicitly, so each partition is counted once.
	parts := make([]int64, full)
	parts[0] = 1
	a := make([]int64, n+1)
	for k := 1; k <= n; k++ {
		next := make([]int64, full)
		for s := 1; s < full; s++ {
			low := s & -s
			rest := s ^ low
			for u := rest; ; u = (u - 1) & rest {
				if block := u | low; independent[block] {
					next[s] += parts[s^block]
				}
				if u == 0 {
					break
				}
			}
		}
		parts = next
		a[k] = parts[full-1]
	}
	coeffs := make([]*big.Int, n+1)
	for i := range coeffs {
		coeffs[i] = new(big.Int)
	}
	// falling holds t(t−1)⋯(t−k+1) as coefficients, grown one factor
	// per k.
	falling := []*big.Int{big.NewInt(1)}
	for k := 1; k <= n; k++ {
		next := make([]*big.Int, len(falling)+1)
		for i := range next {
			next[i] = new(big.Int)
		}
		root := big.NewInt(int64(k - 1))
		for i, c := range falling {
			next[i+1].Add(next[i+1], c)
			next[i].Sub(next[i], new(big.Int).Mul(c, root))
		}
		falling = next
		ak := big.NewInt(a[k])
		for i, c := range falling {
			coeffs[i].Add(coeffs[i], new(big.Int).Mul(c, ak))
		}
	}
	return coeffs
}
