package rs

// Differential coverage for the Gao decoder: the production path (a
// precomputed interpolation context, corrections read off the error
// locator) must reproduce the per-word decoder it replaced bit for bit —
// message, corrected word, error locations and error alike.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"camelot/internal/ff"
	"camelot/internal/poly"
)

// decodeReference is the oracle: the decoder as it ran before the
// interpolation context existed. Per word it interpolates G1 with
// Ring.Interpolate, takes G0 as the product of the surviving points'
// linear factors, runs the partial Euclid, and evaluates the corrected
// word at every code point with Ring.EvalMany.
func (c *Code) decodeReference(received []uint64, erased []int) (message, corrected []uint64, errorLocs []int, err error) {
	plan, err := c.ErasurePlan(erased)
	if err != nil {
		return nil, nil, nil, err
	}
	e := len(c.points)
	if len(received) != e {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), e)
	}
	mask := plan.mask
	var pts, vals []uint64
	for i, x := range c.points {
		if mask == nil || !mask[i] {
			pts = append(pts, x)
			vals = append(vals, received[i])
		}
	}
	f := c.ring.Field()
	g0 := []uint64{1}
	for _, x := range pts {
		// g0 ← g0 · (x - root), one coefficient pass per root.
		next := make([]uint64, len(g0)+1)
		for j, a := range g0 {
			next[j+1] = f.Add(next[j+1], a)
			next[j] = f.Sub(next[j], f.Mul(a, x%f.Q))
		}
		g0 = next
	}

	n := len(pts)
	g1 := c.ring.Interpolate(pts, vals)
	if poly.Degree(g1) < 0 {
		return make([]uint64, c.d+1), make([]uint64, e), nil, nil
	}
	stop := (n + c.d + 1) / 2
	g, v := c.ring.PartialXGCD(g0, g1, stop)
	if poly.Degree(v) < 0 {
		return nil, nil, nil, fmt.Errorf("%w: degenerate error locator", ErrDecodeFailure)
	}
	p, r := c.ring.DivMod(g, v)
	if len(r) != 0 || poly.Degree(p) > c.d {
		return nil, nil, nil, ErrDecodeFailure
	}
	corrected = c.ring.EvalMany(p, c.points)
	di := 0
	for i := range corrected {
		if mask != nil && mask[i] {
			continue
		}
		if corrected[i] != vals[di]%f.Q {
			errorLocs = append(errorLocs, i)
		}
		di++
	}
	if radius := c.CorrectionRadiusWithErasures(e - n); len(errorLocs) > radius {
		return nil, nil, nil, fmt.Errorf("%w: %d errors exceed radius %d (%d erasures)",
			ErrDecodeFailure, len(errorLocs), radius, e-n)
	}
	message = make([]uint64, c.d+1)
	copy(message, p)
	return message, corrected, errorLocs, nil
}

// decodeOutcome is one decoder's full result, comparable with
// reflect.DeepEqual (the error by its text).
type decodeOutcome struct {
	Message, Corrected []uint64
	ErrorLocs          []int
	Err                string
}

func outcome(msg, corr []uint64, locs []int, err error) decodeOutcome {
	o := decodeOutcome{Message: msg, Corrected: corr, ErrorLocs: locs}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// checkAgainstReference decodes rx with erasures erased through
// DecodeErasures and, with no erasures, Code.Decode, and fails on any
// difference from the oracle. It reports whether decoding succeeded.
func checkAgainstReference(t testing.TB, c *Code, rx []uint64, erased []int, what string) bool {
	t.Helper()
	want := outcome(c.decodeReference(rx, erased))
	if got := outcome(c.DecodeErasures(rx, erased)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DecodeErasures = %+v\nreference decoder = %+v", what, got, want)
	}
	if len(erased) == 0 {
		if got := outcome(c.Decode(rx)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Decode = %+v\nreference decoder = %+v", what, got, want)
		}
	}
	return want.Err == ""
}

// diffGeometry is one code the differential tests decode over.
type diffGeometry struct {
	name string
	ntt  bool
	e, d int
}

// nonNTTPrime returns a prime q ≡ 3 (mod 4): q-1 has two-adicity one, so
// its ring multiplies without the number-theoretic transform.
func nonNTTPrime(min uint64) uint64 {
	q := ff.NextPrime(min)
	for q%4 != 3 {
		q = ff.NextPrime(q + 1)
	}
	return q
}

func (g diffGeometry) code(t testing.TB) *Code {
	t.Helper()
	var q uint64
	if g.ntt {
		var err error
		if q, _, err = ff.NTTPrime(1<<20, 1<<12); err != nil {
			t.Fatal(err)
		}
	} else {
		q = nonNTTPrime(1 << 30)
	}
	c, err := New(poly.NewRing(ff.Must(q)), ConsecutivePoints(g.e), g.d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// diffWord builds a received word: a random codeword (the zero codeword
// when zero is set) with nerr symbol errors at distinct delivered
// positions and s erased positions holding garbage, the erasure list
// repeating its first dup entries.
func diffWord(rng *rand.Rand, c *Code, zero bool, nerr, s, dup int) (rx []uint64, erased []int) {
	e := len(c.points)
	q := c.Field().Q
	msg := make([]uint64, c.d+1)
	if !zero {
		msg = randMessage(rng, c.Field(), c.d)
	}
	rx, err := c.Encode(msg)
	if err != nil {
		panic(err)
	}
	s = min(s, e)
	nerr = min(nerr, e-s)
	perm := rng.Perm(e)
	erased = append(erased, perm[:s]...)
	for _, i := range erased {
		rx[i] = rng.Uint64() % q
	}
	for _, i := range perm[s : s+nerr] {
		rx[i] = c.Field().Add(rx[i], 1+rng.Uint64()%(q-1))
	}
	erased = append(erased, erased[:min(dup, s)]...)
	return rx, erased
}

func TestDecodeDifferential(t *testing.T) {
	geos := []diffGeometry{
		{"ntt-48", true, 48, 15},
		{"plain-48", false, 48, 15},
		{"ntt-64", true, 64, 20},
		{"plain-65", false, 65, 20},
		{"ntt-200", true, 200, 90},
		{"plain-300", false, 300, 150},
		{"ntt-1024", true, 1024, 700},
	}
	for _, g := range geos {
		c := g.code(t)
		rng := rand.New(rand.NewSource(int64(g.e)*7 + int64(g.d)))
		budget := g.e - g.d - 1
		radius := budget / 2
		type wordCase struct {
			name          string
			zero          bool
			nerr, s, dup  int
			wantSucceeded bool
		}
		cases := []wordCase{
			{"clean", false, 0, 0, 0, true},
			{"all-zero", true, 0, 0, 0, true},
			{"zero-with-errors", true, radius / 2, 0, 0, true},
			{"errors-at-radius", false, radius, 0, 0, true},
			{"errors-and-erasures", false, radius / 2, budget - 2*(radius/2), 0, true},
			{"duplicate-erasures", false, radius / 3, budget / 3, budget / 6, true},
			{"erasures-only", false, 0, budget, 0, true},
			{"one-past-radius", false, radius + 1, 0, 0, false},
			{"far-beyond", false, g.e / 2, 0, 0, false},
			{"past-budget-with-erasures", false, radius/2 + 1, budget - 2*(radius/2), 3, false},
			{"random-word", false, g.e, 0, 0, false},
		}
		for _, wc := range cases {
			for trial := 0; trial < 3; trial++ {
				rx, erased := diffWord(rng, c, wc.zero, wc.nerr, wc.s, wc.dup)
				what := fmt.Sprintf("%s/%s/%d", g.name, wc.name, trial)
				ok := checkAgainstReference(t, c, rx, erased, what)
				if wc.wantSucceeded && !ok {
					t.Fatalf("%s: decoding within budget failed", what)
				}
			}
		}
	}
}

// FuzzDecodeDifferential drives the production decoder and the reference
// oracle with the same words over small codes on both sides of the
// Horner/tree threshold and both multiplication paths; any difference in
// message, corrected word, error locations or error fails.
func FuzzDecodeDifferential(f *testing.F) {
	geos := []diffGeometry{
		{"ntt-48", true, 48, 15},
		{"plain-48", false, 48, 15},
		{"ntt-65", true, 65, 20},
		{"plain-130", false, 130, 50},
		{"ntt-200", true, 200, 90},
	}
	codes := make([]*Code, len(geos))
	for i, g := range geos {
		codes[i] = g.code(f)
	}
	// Seed corpus: (seed, geometry, zero word, errors, erasures, duplicates).
	f.Add(int64(1), uint8(0), false, uint8(0), uint8(0), uint8(0))    // clean
	f.Add(int64(2), uint8(1), true, uint8(0), uint8(0), uint8(0))     // all-zero word
	f.Add(int64(3), uint8(2), false, uint8(22), uint8(0), uint8(0))   // errors at radius
	f.Add(int64(4), uint8(3), false, uint8(20), uint8(39), uint8(0))  // errors and erasures
	f.Add(int64(5), uint8(4), false, uint8(20), uint8(40), uint8(10)) // duplicate erasures
	f.Add(int64(6), uint8(0), false, uint8(17), uint8(0), uint8(0))   // one past radius
	f.Add(int64(7), uint8(4), false, uint8(100), uint8(0), uint8(0))  // far beyond
	f.Add(int64(8), uint8(1), false, uint8(0), uint8(48), uint8(48))  // everything erased
	f.Add(int64(9), uint8(2), true, uint8(10), uint8(5), uint8(2))    // zero word, both faults
	f.Fuzz(func(t *testing.T, seed int64, geo uint8, zero bool, nerr, s, dup uint8) {
		c := codes[int(geo)%len(codes)]
		rng := rand.New(rand.NewSource(seed))
		rx, erased := diffWord(rng, c, zero, int(nerr), int(s), int(dup))
		checkAgainstReference(t, c, rx, erased, fmt.Sprintf("seed=%d geo=%d", seed, geo))
	})
}
