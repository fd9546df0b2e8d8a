// Package rs implements the nonsystematic Reed–Solomon code of paper §2.3:
// a message (p_0,...,p_d) is encoded as the evaluations of its polynomial
// at e distinct field points, and decoded — in the presence of up to
// ⌊(e-d-1)/2⌋ corrupted symbols — with Gao's extended-Euclidean decoder.
//
// The decoder additionally reports *which* positions were corrupted, which
// is how a Camelot node identifies the Knights that Morgana enchanted
// (paper §1.3, step 2).
package rs

import (
	"errors"
	"fmt"

	"camelot/internal/ff"
	"camelot/internal/poly"
)

// ErrDecodeFailure is returned when the received word is farther from the
// code than the unique-decoding radius, so no codeword can be recovered.
var ErrDecodeFailure = errors.New("rs: received word beyond unique-decoding radius")

// Code is a Reed–Solomon code of length e = len(Points) for messages of
// degree at most d (that is, d+1 symbols). Points must be distinct mod q.
type Code struct {
	ring   *poly.Ring
	points []uint64
	d      int
	interp *poly.Interpolator // over all points, precomputed for decoding
}

// New constructs a code over the given ring with the given evaluation
// points and message degree bound d (message length d+1).
func New(ring *poly.Ring, points []uint64, d int) (*Code, error) {
	e := len(points)
	if d < 0 || d+1 > e {
		return nil, fmt.Errorf("rs: need d+1 <= e, got d=%d e=%d", d, e)
	}
	if uint64(e) > ring.Field().Q {
		return nil, fmt.Errorf("rs: length %d exceeds field size %d", e, ring.Field().Q)
	}
	seen := make(map[uint64]struct{}, e)
	for _, x := range points {
		xr := x % ring.Field().Q
		if _, dup := seen[xr]; dup {
			return nil, fmt.Errorf("rs: duplicate evaluation point %d", x)
		}
		seen[xr] = struct{}{}
	}
	return &Code{ring: ring, points: points, d: d, interp: ring.NewInterpolator(points)}, nil
}

// ConsecutivePoints returns the canonical Camelot point set 0..e-1.
func ConsecutivePoints(e int) []uint64 {
	pts := make([]uint64, e)
	for i := range pts {
		pts[i] = uint64(i)
	}
	return pts
}

// Length returns the codeword length e.
func (c *Code) Length() int { return len(c.points) }

// DegreeBound returns the message degree bound d.
func (c *Code) DegreeBound() int { return c.d }

// Points returns the evaluation points (not a copy; callers must not
// mutate).
func (c *Code) Points() []uint64 { return c.points }

// CorrectionRadius returns the number of symbol errors the decoder is
// guaranteed to correct: ⌊(e-d-1)/2⌋.
func (c *Code) CorrectionRadius() int { return (len(c.points) - c.d - 1) / 2 }

// CorrectionRadiusWithErasures returns the number of symbol *errors* the
// decoder is guaranteed to correct when s symbols are additionally known
// to be erased: ⌊(e-s-d-1)/2⌋. Equivalently, a received word decodes
// whenever 2·errors + erasures ≤ e-d-1. Negative means even the erasures
// alone exceed what the code can absorb.
func (c *Code) CorrectionRadiusWithErasures(s int) int {
	n := len(c.points) - s - c.d - 1
	if n < 0 {
		return -((-n + 1) / 2) // floor division: Go's / truncates toward zero
	}
	return n / 2
}

// Encode evaluates the message polynomial at every code point.
// The message may have fewer than d+1 symbols (high coefficients zero).
func (c *Code) Encode(message []uint64) ([]uint64, error) {
	if len(message) > c.d+1 {
		return nil, fmt.Errorf("rs: message length %d exceeds d+1 = %d", len(message), c.d+1)
	}
	return c.ring.EvalMany(message, c.points), nil
}

// Decode recovers the message polynomial from a received word, correcting
// up to CorrectionRadius() corrupted symbols. It returns the message
// coefficients (length d+1, trailing zeros included), the corrected
// codeword, and the indices at which the received word disagreed with it.
//
// Gao's algorithm (paper §2.3): interpolate G1 through the received word;
// run the extended Euclidean algorithm on (G0, G1) stopping at degree
// < (e+d+1)/2; the quotient G/V is the message iff the division is exact.
func (c *Code) Decode(received []uint64) (message, corrected []uint64, errorLocs []int, err error) {
	if len(received) != len(c.points) {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), len(c.points))
	}
	return c.decodeOver(c.interp, received, received, nil)
}

// DecodeErasures decodes a received word in which the symbols at the
// listed positions are known to be missing (erasures): their values in
// received are ignored rather than treated as possible errors. The
// decoder restricts Gao's algorithm to the surviving positions, which
// doubles the budget an erased symbol gets relative to an error:
// decoding succeeds whenever 2·errors + erasures ≤ e-d-1.
//
// errorLocs reports only *content* errors among the delivered symbols;
// erased positions never appear in it (they are faults of delivery, not
// of the sender's word). The corrected codeword is full length — erased
// positions are filled in from the recovered polynomial. Duplicate
// erasure indices are tolerated; out-of-range indices are rejected.
//
// DecodeErasures is the one-shot form; callers decoding many words
// against the same erasure set (one per prime and coordinate, say)
// should build an ErasurePlan once and reuse it.
func (c *Code) DecodeErasures(received []uint64, erased []int) (message, corrected []uint64, errorLocs []int, err error) {
	plan, err := c.ErasurePlan(erased)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan.Decode(received)
}

// ErasurePlan is a precomputed decoding context for one erasure set:
// the erasure mask and the interpolation context over the surviving
// evaluation points (their subproduct tree, root product Π (x - x_i)
// and barycentric weights) — everything about the erasures that does
// not depend on the received word. Plans are immutable and safe for
// concurrent Decode calls, so one plan can serve every (decoder,
// prime, coordinate) of a run that lost the same senders.
type ErasurePlan struct {
	c      *Code
	mask   []bool // nil when nothing is erased
	interp *poly.Interpolator
}

// ErasurePlan validates the erasure set and precomputes the shortened
// decoding context. An erasure set leaving fewer than d+1 symbols is
// undecodable and fails here, with ErrDecodeFailure, before any word
// is seen.
func (c *Code) ErasurePlan(erased []int) (*ErasurePlan, error) {
	e := len(c.points)
	if len(erased) == 0 {
		return &ErasurePlan{c: c, interp: c.interp}, nil
	}
	mask := make([]bool, e)
	s := 0
	for _, i := range erased {
		if i < 0 || i >= e {
			return nil, fmt.Errorf("rs: erasure index %d out of range [0,%d)", i, e)
		}
		if !mask[i] {
			mask[i] = true
			s++
		}
	}
	if e-s < c.d+1 {
		return nil, fmt.Errorf("%w: %d erasures leave %d symbols, need %d for degree bound %d",
			ErrDecodeFailure, s, e-s, c.d+1, c.d)
	}
	return &ErasurePlan{c: c, mask: mask, interp: c.interp.Without(mask)}, nil
}

// Decode runs the erasure-aware Gao decoder against one received word;
// see DecodeErasures for the contract.
func (p *ErasurePlan) Decode(received []uint64) (message, corrected []uint64, errorLocs []int, err error) {
	c := p.c
	e := len(c.points)
	if len(received) != e {
		return nil, nil, nil, fmt.Errorf("rs: received word length %d, want %d", len(received), e)
	}
	vals := received
	if p.mask != nil {
		vals = make([]uint64, 0, len(p.interp.Points()))
		for i, v := range received {
			if !p.mask[i] {
				vals = append(vals, v)
			}
		}
	}
	return c.decodeOver(p.interp, received, vals, p.mask)
}

// decodeOver runs Gao's decoder on the (possibly erasure-shortened) code
// over the interpolation context's points: received is the full-length
// word, vals its symbols at those points (received itself when nothing is
// erased), and mask (nil when nothing is erased) marks the erased
// positions of the full-length code.
//
// The corrected word is read off the error locator rather than evaluated:
// the Euclidean stop gives g = u·G0 + v·G1, so at every delivered point
// g(x_i) = v(x_i)·r_i, and once g = p·v exactly, p(x_i) = r_i wherever
// v(x_i) ≠ 0. Only v's roots among the delivered points (at most deg v)
// and the erased positions need p evaluated.
func (c *Code) decodeOver(ip *poly.Interpolator, received, vals []uint64, mask []bool) (message, corrected []uint64, errorLocs []int, err error) {
	e := len(c.points)
	n := len(vals)
	g1 := ip.Interpolate(vals)
	if poly.Degree(g1) < 0 {
		// Every delivered symbol is zero: the zero codeword (the Euclidean
		// recursion below would degenerate on G1 = 0).
		return make([]uint64, c.d+1), make([]uint64, e), nil, nil
	}
	stop := (n + c.d + 1) / 2
	g, v := c.ring.PartialXGCD(ip.Root(), g1, stop)
	if poly.Degree(v) < 0 {
		return nil, nil, nil, fmt.Errorf("%w: degenerate error locator", ErrDecodeFailure)
	}
	p, r := c.ring.DivMod(g, v)
	if len(r) != 0 || poly.Degree(p) > c.d {
		return nil, nil, nil, ErrDecodeFailure
	}
	// Read the corrected word off the locator where it is nonzero, and
	// collect the rest — erased positions and v's roots — for one batched
	// evaluation of p.
	f := c.ring.Field()
	vAt := make([]uint64, n)
	f.HornerVec(vAt, v, ip.Points())
	corrected = make([]uint64, e)
	var rest []int // full-length positions p fills in
	di := 0        // index into the delivered symbols
	for i := range c.points {
		if mask == nil || !mask[i] {
			di++
			if vAt[di-1] != 0 {
				corrected[i] = received[i] % f.Q
				continue
			}
		}
		rest = append(rest, i)
	}
	pAt := make([]uint64, len(rest)) // the rest's points, then p there
	for j, i := range rest {
		pAt[j] = c.points[i]
	}
	f.HornerVec(pAt, p, pAt)
	for j, i := range rest {
		corrected[i] = pAt[j]
		if (mask == nil || !mask[i]) && corrected[i] != received[i]%f.Q {
			errorLocs = append(errorLocs, i)
		}
	}
	if radius := c.CorrectionRadiusWithErasures(e - n); len(errorLocs) > radius {
		// The Euclidean stop produced a "codeword" farther away than the
		// radius — with that many errors uniqueness is void; refuse.
		return nil, nil, nil, fmt.Errorf("%w: %d errors exceed radius %d (%d erasures)",
			ErrDecodeFailure, len(errorLocs), radius, e-n)
	}
	message = make([]uint64, c.d+1)
	copy(message, p)
	return message, corrected, errorLocs, nil
}

// Verify spot-checks a putative message against an oracle for codeword
// symbols: it draws one Camelot verification equation (paper eq. (2)) at
// the given point x0, comparing oracle(x0) with Horner evaluation of the
// message. A mismatch proves the message is not the oracle's polynomial;
// agreement is correct with probability >= 1 - d/q for uniform x0.
func (c *Code) Verify(message []uint64, x0 uint64, oracle func(uint64) (uint64, error)) (bool, error) {
	want, err := oracle(x0)
	if err != nil {
		return false, fmt.Errorf("rs: verification oracle: %w", err)
	}
	f := c.ring.Field()
	return f.Horner(message, x0) == want%f.Q, nil
}

// Field returns the underlying coefficient field.
func (c *Code) Field() ff.Field { return c.ring.Field() }
