package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"camelot/internal/ff"
)

// testRing returns a ring over an NTT-friendly prime (large two-adicity).
func testRing(t testing.TB) *Ring {
	t.Helper()
	q, _, err := ff.NTTPrime(1<<20, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return NewRing(ff.Must(q))
}

// plainRing returns a ring over a prime with tiny two-adicity, forcing the
// Karatsuba path even for large products.
func plainRing(t testing.TB) *Ring {
	t.Helper()
	// 1000003 - 1 = 2 * 3 * 166667: two-adicity 1, no NTT.
	return NewRing(ff.Must(1000003))
}

func randPoly(rng *rand.Rand, f ff.Field, deg int) []uint64 {
	p := make([]uint64, deg+1)
	for i := range p {
		p[i] = rng.Uint64() % f.Q
	}
	p[deg] = 1 + rng.Uint64()%(f.Q-1) // ensure exact degree
	return p
}

func TestDegreeAndTrim(t *testing.T) {
	tests := []struct {
		name string
		in   []uint64
		deg  int
	}{
		{"nil", nil, -1},
		{"zeros", []uint64{0, 0, 0}, -1},
		{"constant", []uint64{5}, 0},
		{"padded", []uint64{1, 2, 0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Degree(tt.in); got != tt.deg {
				t.Errorf("Degree = %d, want %d", got, tt.deg)
			}
			if got := Trim(tt.in); Degree(got) != tt.deg || (len(got) > 0 && got[len(got)-1] == 0) {
				t.Errorf("Trim not canonical: %v", got)
			}
		})
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rings := map[string]*Ring{"ntt": testRing(t), "plain": plainRing(t)}
	sizes := [][2]int{{1, 1}, {3, 7}, {31, 33}, {100, 90}, {300, 5}, {512, 512}, {1000, 777}}
	for name, r := range rings {
		rng := rand.New(rand.NewSource(42))
		for _, sz := range sizes {
			a := randPoly(rng, r.f, sz[0])
			b := randPoly(rng, r.f, sz[1])
			got := r.Mul(a, b)
			want := Trim(r.mulNaive(a, b))
			if !Equal(got, want) {
				t.Fatalf("%s: Mul mismatch at sizes %v", name, sz)
			}
		}
	}
}

func TestMulZero(t *testing.T) {
	r := testRing(t)
	if got := r.Mul(nil, []uint64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("0 * p = %v, want zero", got)
	}
}

func TestMulPropertyCommutative(t *testing.T) {
	r := plainRing(t)
	rng := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	prop := func(da, db uint8) bool {
		a := randPoly(rng, r.f, int(da%60)+1)
		b := randPoly(rng, r.f, int(db%60)+1)
		return Equal(r.Mul(a, b), r.Mul(b, a))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDivMod(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := randPoly(rng, r.f, 5+rng.Intn(200))
		b := randPoly(rng, r.f, 1+rng.Intn(50))
		q, rem := r.DivMod(a, b)
		if Degree(rem) >= Degree(b) {
			t.Fatalf("remainder degree %d >= divisor degree %d", Degree(rem), Degree(b))
		}
		back := r.Add(r.Mul(q, b), rem)
		if !Equal(back, a) {
			t.Fatalf("q*b + r != a (trial %d)", trial)
		}
	}
}

func TestDivModSmallerDividend(t *testing.T) {
	r := testRing(t)
	q, rem := r.DivMod([]uint64{1, 2}, []uint64{0, 0, 1})
	if len(q) != 0 || !Equal(rem, []uint64{1, 2}) {
		t.Fatalf("got q=%v rem=%v", q, rem)
	}
}

func TestGCD(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(11))
	g := randPoly(rng, r.f, 7)
	a := r.Mul(g, randPoly(rng, r.f, 13))
	b := r.Mul(g, randPoly(rng, r.f, 9))
	got := r.GCD(a, b)
	// gcd must divide both and be divisible by g (up to possibly larger
	// common factors; check divisibility both ways where it must hold).
	if _, rem := r.DivMod(a, got); len(rem) != 0 {
		t.Fatal("gcd does not divide a")
	}
	if _, rem := r.DivMod(b, got); len(rem) != 0 {
		t.Fatal("gcd does not divide b")
	}
	if _, rem := r.DivMod(got, r.Monic(g)); len(rem) != 0 {
		t.Fatal("g does not divide gcd")
	}
}

func TestPartialXGCDInvariant(t *testing.T) {
	r := testRing(t)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		a := randPoly(rng, r.f, 40)
		b := randPoly(rng, r.f, 35)
		stop := rng.Intn(30)
		g, v := r.PartialXGCD(a, b, stop)
		if Degree(g) >= stop && Degree(r.GCD(a, b)) < stop {
			t.Fatalf("stopped with degree %d >= stop %d", Degree(g), stop)
		}
		_, lhs := r.DivMod(r.Mul(v, b), a)
		_, rhs := r.DivMod(g, a)
		if !Equal(lhs, rhs) {
			t.Fatalf("v*b != g (mod a) (trial %d)", trial)
		}
	}
}

func TestEvalManyMatchesHorner(t *testing.T) {
	for name, r := range map[string]*Ring{"ntt": testRing(t), "plain": plainRing(t)} {
		rng := rand.New(rand.NewSource(5))
		p := randPoly(rng, r.f, 300)
		points := make([]uint64, 400)
		for i := range points {
			points[i] = uint64(i) * 7919 % r.f.Q
		}
		got := r.EvalMany(p, points)
		for i, x := range points {
			if want := r.Eval(p, x); got[i] != want {
				t.Fatalf("%s: EvalMany[%d] = %d, want %d", name, i, got[i], want)
			}
		}
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	for name, r := range map[string]*Ring{"ntt": testRing(t), "plain": plainRing(t)} {
		rng := rand.New(rand.NewSource(9))
		for _, n := range []int{1, 2, 17, 64, 65, 200, 513} {
			p := randPoly(rng, r.f, n-1)
			points := make([]uint64, n)
			for i := range points {
				points[i] = uint64(i)
			}
			values := r.EvalMany(p, points)
			got := r.Interpolate(points, values)
			if !Equal(got, p) {
				t.Fatalf("%s: interpolate(n=%d) did not round-trip", name, n)
			}
		}
	}
}

func TestInterpolateConstantAndLinear(t *testing.T) {
	r := testRing(t)
	got := r.Interpolate([]uint64{5}, []uint64{42})
	if !Equal(got, []uint64{42}) {
		t.Fatalf("constant interpolation = %v", got)
	}
	// Through (0, 1) and (1, 3): p(x) = 1 + 2x.
	got = r.Interpolate([]uint64{0, 1}, []uint64{1, 3})
	if !Equal(got, []uint64{1, 2}) {
		t.Fatalf("linear interpolation = %v", got)
	}
}

func TestInterpolatorRoot(t *testing.T) {
	r := testRing(t)
	roots := []uint64{1, 2, 3}
	// (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
	got := r.NewInterpolator(roots).Root()
	want := []uint64{r.f.Reduce(-6), 11, r.f.Reduce(-6), 1}
	if !Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, x := range roots {
		if r.Eval(got, x) != 0 {
			t.Fatalf("root %d not a root", x)
		}
	}
	// Past the tree's padding: the root is the plain product.
	rng := rand.New(rand.NewSource(5))
	pts := distinctPoints(rng, r.f, 300)
	naive := []uint64{1}
	for _, x := range pts {
		naive = r.Mul(naive, []uint64{r.f.Neg(x), 1})
	}
	if !Equal(r.NewInterpolator(pts).Root(), naive) {
		t.Fatal("root of 300 points differs from the product of their linear factors")
	}
}

// distinctPoints draws n distinct field elements.
func distinctPoints(rng *rand.Rand, f ff.Field, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	pts := make([]uint64, 0, n)
	for len(pts) < n {
		x := rng.Uint64() % f.Q
		if !seen[x] {
			seen[x] = true
			pts = append(pts, x)
		}
	}
	return pts
}

// interpolateTreePerCall is the tree interpolation Ring.Interpolate ran
// before the Interpolator existed: a subproduct tree per call, the
// weights from a second tree inside EvalMany of m', then the combine.
func (r *Ring) interpolateTreePerCall(points, values []uint64) []uint64 {
	t := r.newSubproductTree(points)
	dm := r.Derivative(t.node[1])
	denom := r.EvalMany(dm, points)
	r.f.BatchInv(denom)
	coeffs := make([]uint64, len(points))
	ff.MulVecK(coeffs, values, denom, r.f.Kernel())
	return Trim(r.combineUp(t, 1, coeffs, 0, nttSize(len(points))))
}

func TestInterpolatorMatchesLagrangeAndPerCallTree(t *testing.T) {
	for name, r := range map[string]*Ring{"ntt": testRing(t), "plain": plainRing(t)} {
		rng := rand.New(rand.NewSource(13))
		for _, n := range []int{1, 2, 3, 17, 64, 65, 130, 257} {
			for _, consecutive := range []bool{true, false} {
				pts := distinctPoints(rng, r.f, n)
				if consecutive {
					for i := range pts {
						pts[i] = uint64(i)
					}
				}
				ip := r.NewInterpolator(pts)
				for trial := 0; trial < 3; trial++ {
					vals := make([]uint64, n)
					for i := range vals {
						vals[i] = rng.Uint64() % r.f.Q
					}
					if trial == 2 {
						vals = make([]uint64, n) // the zero polynomial
					}
					got := ip.Interpolate(vals)
					if want := r.interpolateLagrange(pts, vals); !Equal(got, want) {
						t.Fatalf("%s n=%d consecutive=%v trial %d: Interpolator differs from Lagrange", name, n, consecutive, trial)
					}
					if want := r.interpolateTreePerCall(pts, vals); !Equal(got, want) {
						t.Fatalf("%s n=%d consecutive=%v trial %d: Interpolator differs from the per-call tree", name, n, consecutive, trial)
					}
					if want := r.Interpolate(pts, vals); !Equal(got, want) {
						t.Fatalf("%s n=%d consecutive=%v trial %d: Interpolator differs from Ring.Interpolate", name, n, consecutive, trial)
					}
				}
			}
		}
	}
}

func TestInterpolatorWithoutMatchesFreshContext(t *testing.T) {
	for name, r := range map[string]*Ring{"ntt": testRing(t), "plain": plainRing(t)} {
		rng := rand.New(rand.NewSource(17))
		for _, n := range []int{2, 40, 65, 300} {
			full := r.NewInterpolator(distinctPoints(rng, r.f, n))
			for _, s := range []int{0, 1, n / 3, n - 1} {
				drop := make([]bool, n)
				var kept []uint64
				for _, i := range rng.Perm(n)[:s] {
					drop[i] = true
				}
				for i, x := range full.Points() {
					if !drop[i] {
						kept = append(kept, x)
					}
				}
				got, want := full.Without(drop), r.NewInterpolator(kept)
				if !Equal(got.Points(), want.Points()) || !Equal(got.Root(), want.Root()) ||
					!Equal(got.weights, want.weights) {
					t.Fatalf("%s n=%d s=%d: Without differs from a fresh context", name, n, s)
				}
				vals := make([]uint64, len(kept))
				for i := range vals {
					vals[i] = rng.Uint64() % r.f.Q
				}
				if !Equal(got.Interpolate(vals), r.interpolateLagrange(kept, vals)) {
					t.Fatalf("%s n=%d s=%d: Without's interpolant differs from Lagrange", name, n, s)
				}
			}
		}
	}
}

func TestInterpolatorRejectsDuplicatePoints(t *testing.T) {
	r := testRing(t)
	defer func() {
		if recover() == nil {
			t.Fatal("NewInterpolator accepted a repeated point")
		}
	}()
	r.NewInterpolator([]uint64{4, 9, 4})
}

func TestDerivative(t *testing.T) {
	r := testRing(t)
	// d/dx (1 + 2x + 3x^2) = 2 + 6x
	got := r.Derivative([]uint64{1, 2, 3})
	if !Equal(got, []uint64{2, 6}) {
		t.Fatalf("got %v", got)
	}
	if got := r.Derivative([]uint64{7}); len(got) != 0 {
		t.Fatalf("derivative of constant = %v", got)
	}
}

func TestNTTRoundTripProperty(t *testing.T) {
	r := testRing(t)
	if r.root == 0 {
		t.Skip("ring lacks NTT support")
	}
	rng := rand.New(rand.NewSource(13))
	a := randPoly(rng, r.f, 700)
	b := randPoly(rng, r.f, 900)
	got := r.mulNTT(a, b, nttSize(len(a)+len(b)-1))
	want := r.mulNaive(a, b)
	if !Equal(got, want) {
		t.Fatal("NTT product differs from naive")
	}
}

func BenchmarkMulNTT4096(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	q := randPoly(rng, r.f, 2047)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Mul(p, q)
	}
}

func BenchmarkEvalMany2048(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	points := make([]uint64, 2048)
	for i := range points {
		points[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EvalMany(p, points)
	}
}

func BenchmarkInterpolate2048(b *testing.B) {
	r := testRing(b)
	rng := rand.New(rand.NewSource(1))
	p := randPoly(rng, r.f, 2047)
	points := make([]uint64, 2048)
	for i := range points {
		points[i] = uint64(i)
	}
	values := r.EvalMany(p, points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Interpolate(points, values)
	}
}
