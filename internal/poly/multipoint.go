package poly

// Subproduct-tree multipoint evaluation and interpolation (paper §2.2):
// evaluating or interpolating a degree-d polynomial at d+1 points in
// O(M(d) log d) field operations. These are the workhorses behind
// Reed–Solomon encoding (evaluation) and the Gao decoder's first step
// (interpolation of the received word).

import (
	"camelot/internal/ff"
	"camelot/internal/par"
)

// fastThreshold is the point count below which naive O(d^2) evaluation /
// Lagrange interpolation is used directly (the tree overhead dominates
// below it).
const fastThreshold = 64

// parSpanMin is the subtree span (leaf count) from which the recursive
// tree walks fork their two children onto par workers; below it the
// token bookkeeping costs more than the subtree. The walks degrade to
// plain serial recursion when every worker is busy (par.Do is
// non-blocking), so nesting inside an already-parallel decode is safe.
const parSpanMin = 4 * fastThreshold

// subproductTree holds Π(x - x_i) over binary ranges of the point set.
// Node k covers the points of its leaves; tree[1] is the full product.
type subproductTree struct {
	points []uint64
	node   [][]uint64 // heap layout, 1-based; leaves are (x - x_i)
}

// newSubproductTree builds the tree over the given points.
func (r *Ring) newSubproductTree(points []uint64) *subproductTree {
	n := len(points)
	size := nttSize(n)
	t := &subproductTree{points: points, node: make([][]uint64, 2*size)}
	for i := 0; i < size; i++ {
		if i < n {
			t.node[size+i] = []uint64{r.f.Neg(points[i]), 1}
		} else {
			t.node[size+i] = []uint64{1}
		}
	}
	// Nodes within one level are independent; levels go bottom-up. Each
	// level is split across par workers once it has enough nodes to
	// amortize the fork (near the root the per-node products are large,
	// but Mul itself parallelizes through the NTT).
	for levelLo := size / 2; levelLo >= 1; levelLo /= 2 {
		width := levelLo // nodes levelLo .. 2*levelLo-1
		if width >= 4 && par.Parallelism() > 1 {
			par.ForChunks(width, func(clo, chi int) {
				for k := levelLo + clo; k < levelLo+chi; k++ {
					t.node[k] = r.Mul(t.node[2*k], t.node[2*k+1])
				}
			})
		} else {
			for k := levelLo; k < 2*levelLo; k++ {
				t.node[k] = r.Mul(t.node[2*k], t.node[2*k+1])
			}
		}
	}
	return t
}

// EvalMany evaluates p at every point, in O(M(d) log d) via the subproduct
// tree for large inputs and Horner per point for small ones.
func (r *Ring) EvalMany(p []uint64, points []uint64) []uint64 {
	if len(points) <= fastThreshold || len(p) <= fastThreshold {
		out := make([]uint64, len(points))
		r.f.HornerVec(out, p, points)
		return out
	}
	return r.evalTree(r.newSubproductTree(points), p)
}

// evalTree evaluates p at every leaf point of t by descending the tree.
func (r *Ring) evalTree(t *subproductTree, p []uint64) []uint64 {
	n := len(t.points)
	out := make([]uint64, n)
	r.evalDown(t, 1, p, out, 0, nttSize(n))
	return out
}

// evalDown reduces p modulo the subtree products, descending to leaves.
// span is the leaf count under node k; off the leaf offset.
func (r *Ring) evalDown(t *subproductTree, k int, p []uint64, out []uint64, off, span int) {
	if off >= len(t.points) {
		return
	}
	_, rem := r.DivMod(p, t.node[k])
	if span == 1 {
		if len(rem) == 0 {
			out[off] = 0
		} else {
			out[off] = rem[0]
		}
		return
	}
	// Below a size threshold, finish with Horner: cheaper than recursion.
	if span <= fastThreshold {
		end := min(off+span, len(t.points))
		r.f.HornerVec(out[off:end], rem, t.points[off:end])
		return
	}
	// The children read rem (DivMod copies; nothing is mutated) and write
	// disjoint halves of out, so they can run concurrently.
	if span >= parSpanMin && par.Parallelism() > 1 {
		par.Do(
			func() { r.evalDown(t, 2*k, rem, out, off, span/2) },
			func() { r.evalDown(t, 2*k+1, rem, out, off+span/2, span/2) },
		)
		return
	}
	r.evalDown(t, 2*k, rem, out, off, span/2)
	r.evalDown(t, 2*k+1, rem, out, off+span/2, span/2)
}

// Interpolate returns the unique polynomial of degree < len(points) with
// p(points[i]) = values[i]. Points must be distinct mod q. Callers
// interpolating many value vectors over one point set should build an
// Interpolator once instead.
func (r *Ring) Interpolate(points, values []uint64) []uint64 {
	if len(points) != len(values) {
		panic("poly: interpolation point/value length mismatch")
	}
	if len(points) == 0 {
		return nil
	}
	if len(points) <= fastThreshold {
		return r.interpolateLagrange(points, values)
	}
	return r.NewInterpolator(points).Interpolate(values)
}

// Interpolator is a precomputed interpolation context for one point set:
// the subproduct tree over the points, its root m = Π (x - x_i), and the
// barycentric weights 1/m'(x_i). All of it depends on the points alone,
// so a caller interpolating many value vectors over the same points (the
// Gao decoder, one received word per prime and coordinate) pays for it
// once; each Interpolate is then one weight multiply and one bottom-up
// tree combine. An Interpolator is immutable and safe for concurrent use.
type Interpolator struct {
	r       *Ring
	points  []uint64
	tree    *subproductTree
	weights []uint64 // 1/m'(x_i)
}

// NewInterpolator builds the interpolation context for the given points,
// which must be non-empty and distinct mod q. The caller must not mutate
// points afterwards.
func (r *Ring) NewInterpolator(points []uint64) *Interpolator {
	if len(points) == 0 {
		panic("poly: interpolator over no points")
	}
	t := r.newSubproductTree(points)
	weights := r.evalTree(t, r.Derivative(t.node[1]))
	r.f.BatchInv(weights) // panics on a repeated point, where m' vanishes
	return &Interpolator{r: r, points: points, tree: t, weights: weights}
}

// Without returns the interpolation context over the points not marked
// in drop (len(drop) == len(Points())), which must leave at least one.
// Only the subproduct tree is rebuilt: with m the receiver's root and m_S
// the kept points', m'(x_i) = m_S'(x_i) · Π_{j dropped} (x_i - x_j) at
// every kept x_i, so each weight costs one product over the s dropped
// points — O(n·s) in all instead of a multipoint evaluation of m_S'.
func (ip *Interpolator) Without(drop []bool) *Interpolator {
	if len(drop) != len(ip.points) {
		panic("poly: interpolator drop mask length mismatch")
	}
	f := ip.r.f
	var kept, dropped []uint64
	for i, x := range ip.points {
		if drop[i] {
			dropped = append(dropped, x)
		} else {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		panic("poly: interpolator over no points")
	}
	k := f.Kernel()
	weights := make([]uint64, 0, len(kept))
	for i, x := range ip.points {
		if drop[i] {
			continue
		}
		w := ip.weights[i]
		for _, y := range dropped {
			w = ff.MulK(w, f.Sub(x, y), k)
		}
		weights = append(weights, w)
	}
	return &Interpolator{r: ip.r, points: kept, tree: ip.r.newSubproductTree(kept), weights: weights}
}

// Points returns the interpolation points (not a copy; callers must not
// mutate).
func (ip *Interpolator) Points() []uint64 { return ip.points }

// Root returns m = Π (x - x_i) over the points (not a copy; callers must
// not mutate).
func (ip *Interpolator) Root() []uint64 { return ip.tree.node[1] }

// Interpolate returns the unique polynomial of degree < len(Points())
// taking values[i] at Points()[i].
func (ip *Interpolator) Interpolate(values []uint64) []uint64 {
	if len(values) != len(ip.points) {
		panic("poly: interpolation point/value length mismatch")
	}
	r := ip.r
	coeffs := make([]uint64, len(values))
	ff.MulVecK(coeffs, values, ip.weights, r.f.Kernel())
	return Trim(r.combineUp(ip.tree, 1, coeffs, 0, nttSize(len(values))))
}

// combineUp computes Σ_i c_i Π_{j≠i} (x - x_j) over the subtree.
func (r *Ring) combineUp(t *subproductTree, k int, c []uint64, off, span int) []uint64 {
	if off >= len(t.points) {
		return nil
	}
	if span == 1 {
		return []uint64{c[off]}
	}
	var left, right []uint64
	if span >= parSpanMin && par.Parallelism() > 1 {
		// The children only read t and c; their results are combined here.
		par.Do(
			func() { left = r.combineUp(t, 2*k, c, off, span/2) },
			func() { right = r.combineUp(t, 2*k+1, c, off+span/2, span/2) },
		)
	} else {
		left = r.combineUp(t, 2*k, c, off, span/2)
		right = r.combineUp(t, 2*k+1, c, off+span/2, span/2)
	}
	// left * rightProduct + right * leftProduct
	lp := r.Mul(left, t.node[2*k+1])
	rp := r.Mul(right, t.node[2*k])
	return r.Add(lp, rp)
}

// interpolateLagrange is the quadratic fallback for small point sets.
func (r *Ring) interpolateLagrange(points, values []uint64) []uint64 {
	n := len(points)
	// master = Π (x - x_i)
	master := []uint64{1}
	for _, x := range points {
		master = r.Mul(master, []uint64{r.f.Neg(x), 1})
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		// numer_i = master / (x - x_i), denom_i = numer_i(x_i)
		numer, rem := r.DivMod(master, []uint64{r.f.Neg(points[i]), 1})
		if len(rem) != 0 {
			panic("poly: interpolation points not distinct")
		}
		d := r.Eval(numer, points[i])
		if d == 0 {
			panic("poly: interpolation points not distinct mod q")
		}
		c := r.f.Mul(values[i], r.f.Inv(d))
		for j, v := range numer {
			out[j] = r.f.Add(out[j], r.f.Mul(c, v))
		}
	}
	return Trim(out)
}
