// Package latency implements the latency-function substrate of congestion
// games: a small library of non-decreasing, differentiable functions
// ℓ: R≥0 → R≥0 together with the two quantities the IMITATION PROTOCOL of
// Ackermann et al. (PODC 2009) is parameterized by:
//
//   - the elasticity d ≥ sup_{x∈(0,n]} ℓ'(x)·x / ℓ(x), which damps the
//     migration probability to prevent overshooting, and
//   - the slope bound ν_e = max_{x∈{1..d}} ℓ(x) − ℓ(x−1), which guards the
//     protocol on almost-empty resources.
//
// Loads are passed as float64 so the same implementations serve both the
// atomic regime (integer congestion) and the 1/n-scaled regime ℓⁿ(x)=ℓ(x/n)
// used in Theorem 9.
package latency

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Function is a non-decreasing differentiable latency function with
// ℓ(x) > 0 for all x > 0, per Section 2.1 of the paper.
type Function interface {
	// Value returns ℓ(x). Callers only pass x ≥ 0.
	Value(x float64) float64
	// Derivative returns ℓ'(x) for x ≥ 0 (one-sided at 0).
	Derivative(x float64) float64
	// String renders the function for logs and tables, e.g. "4x^2+1".
	String() string
}

// Elastic is implemented by functions that know a closed-form bound on their
// own elasticity over (0, n]. Elasticity consults it before falling back to
// numeric search.
type Elastic interface {
	// ElasticityBound returns an upper bound on sup_{x∈(0,n]} ℓ'(x)x/ℓ(x).
	ElasticityBound(n float64) float64
}

// ErrInvalid reports an invalid latency-function construction.
var ErrInvalid = errors.New("latency: invalid function")

// Constant is the function ℓ(x) = c with c > 0.
type Constant struct {
	C float64
}

var (
	_ Function = Constant{}
	_ Elastic  = Constant{}
)

// NewConstant returns ℓ(x) = c. The constant must be positive so that the
// paper's ℓ(x) > 0 requirement holds.
func NewConstant(c float64) (Constant, error) {
	if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
		return Constant{}, fmt.Errorf("%w: constant %v must be positive and finite", ErrInvalid, c)
	}
	return Constant{C: c}, nil
}

// Value implements Function.
func (f Constant) Value(float64) float64 { return f.C }

// Derivative implements Function.
func (f Constant) Derivative(float64) float64 { return 0 }

// ElasticityBound implements Elastic: constants have elasticity 0.
func (f Constant) ElasticityBound(float64) float64 { return 0 }

// String implements Function.
func (f Constant) String() string { return formatCoeff(f.C) }

// Affine is the function ℓ(x) = a·x + b with a ≥ 0, b ≥ 0, a+b > 0.
type Affine struct {
	A float64 // slope
	B float64 // offset
}

var (
	_ Function = Affine{}
	_ Elastic  = Affine{}
)

// NewAffine returns ℓ(x) = a·x + b.
func NewAffine(a, b float64) (Affine, error) {
	switch {
	case a < 0 || b < 0:
		return Affine{}, fmt.Errorf("%w: affine coefficients a=%v b=%v must be non-negative", ErrInvalid, a, b)
	case a == 0 && b == 0:
		return Affine{}, fmt.Errorf("%w: affine function must not be identically zero", ErrInvalid)
	case math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0):
		return Affine{}, fmt.Errorf("%w: affine coefficients a=%v b=%v must be finite", ErrInvalid, a, b)
	}
	return Affine{A: a, B: b}, nil
}

// NewLinear returns the pure linear function ℓ(x) = a·x used throughout
// Section 5 of the paper.
func NewLinear(a float64) (Affine, error) {
	if !(a > 0) {
		return Affine{}, fmt.Errorf("%w: linear coefficient %v must be positive", ErrInvalid, a)
	}
	return NewAffine(a, 0)
}

// Value implements Function.
func (f Affine) Value(x float64) float64 { return f.A*x + f.B }

// Derivative implements Function.
func (f Affine) Derivative(float64) float64 { return f.A }

// ElasticityBound implements Elastic. For a·x+b the elasticity a·x/(a·x+b)
// is increasing in x, so the sup over (0,n] is attained at n; it is at most 1.
func (f Affine) ElasticityBound(n float64) float64 {
	if f.A == 0 {
		return 0
	}
	if f.B == 0 {
		return 1
	}
	return f.A * n / (f.A*n + f.B)
}

// String implements Function.
func (f Affine) String() string {
	switch {
	case f.A == 0:
		return formatCoeff(f.B)
	case f.B == 0:
		return formatCoeff(f.A) + "x"
	default:
		return formatCoeff(f.A) + "x+" + formatCoeff(f.B)
	}
}

// Monomial is the function ℓ(x) = a·x^d with a > 0 and d ≥ 1. Its elasticity
// is exactly d, making it the canonical worst case for overshooting.
type Monomial struct {
	A float64 // coefficient
	D float64 // degree
}

var (
	_ Function = Monomial{}
	_ Elastic  = Monomial{}
)

// NewMonomial returns ℓ(x) = a·x^d.
func NewMonomial(a, d float64) (Monomial, error) {
	switch {
	case !(a > 0):
		return Monomial{}, fmt.Errorf("%w: monomial coefficient %v must be positive", ErrInvalid, a)
	case !(d >= 1):
		return Monomial{}, fmt.Errorf("%w: monomial degree %v must be at least 1", ErrInvalid, d)
	}
	return Monomial{A: a, D: d}, nil
}

// Value implements Function.
func (f Monomial) Value(x float64) float64 { return f.A * math.Pow(x, f.D) }

// Derivative implements Function.
func (f Monomial) Derivative(x float64) float64 {
	return f.A * f.D * math.Pow(x, f.D-1)
}

// ElasticityBound implements Elastic: the elasticity of a·x^d is exactly d
// everywhere.
func (f Monomial) ElasticityBound(float64) float64 { return f.D }

// String implements Function.
func (f Monomial) String() string {
	return formatCoeff(f.A) + "x^" + strconv.FormatFloat(f.D, 'g', -1, 64)
}

// Polynomial is the function ℓ(x) = Σ_i c_i·x^i with non-negative
// coefficients (coefficient representation, ascending powers). This is the
// class Corollaries 5 and 8 of the paper are stated for.
type Polynomial struct {
	coeffs []float64
}

var (
	_ Function = Polynomial{}
	_ Elastic  = Polynomial{}
)

// NewPolynomial returns Σ_i coeffs[i]·x^i. Coefficients must be
// non-negative, not all zero, and the constant or some higher coefficient
// must make ℓ positive on x > 0.
func NewPolynomial(coeffs ...float64) (Polynomial, error) {
	if len(coeffs) == 0 {
		return Polynomial{}, fmt.Errorf("%w: polynomial needs at least one coefficient", ErrInvalid)
	}
	allZero := true
	for i, c := range coeffs {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return Polynomial{}, fmt.Errorf("%w: polynomial coefficient c%d=%v must be non-negative and finite", ErrInvalid, i, c)
		}
		if c > 0 {
			allZero = false
		}
	}
	if allZero {
		return Polynomial{}, fmt.Errorf("%w: polynomial must not be identically zero", ErrInvalid)
	}
	// Trim trailing zeros so Degree is tight.
	end := len(coeffs)
	for end > 1 && coeffs[end-1] == 0 {
		end--
	}
	cp := make([]float64, end)
	copy(cp, coeffs[:end])
	return Polynomial{coeffs: cp}, nil
}

// Degree returns the largest power with a non-zero coefficient.
func (f Polynomial) Degree() int { return len(f.coeffs) - 1 }

// Coeffs returns a copy of the coefficient vector (ascending powers).
func (f Polynomial) Coeffs() []float64 {
	cp := make([]float64, len(f.coeffs))
	copy(cp, f.coeffs)
	return cp
}

// Value implements Function via Horner's rule.
func (f Polynomial) Value(x float64) float64 {
	v := 0.0
	for i := len(f.coeffs) - 1; i >= 0; i-- {
		v = v*x + f.coeffs[i]
	}
	return v
}

// Derivative implements Function.
func (f Polynomial) Derivative(x float64) float64 {
	v := 0.0
	for i := len(f.coeffs) - 1; i >= 1; i-- {
		v = v*x + float64(i)*f.coeffs[i]
	}
	return v
}

// ElasticityBound implements Elastic. For polynomials with non-negative
// coefficients the elasticity Σ i·c_i·x^i / Σ c_i·x^i is bounded by the
// maximum degree with a non-zero coefficient.
func (f Polynomial) ElasticityBound(float64) float64 {
	for i := len(f.coeffs) - 1; i >= 0; i-- {
		if f.coeffs[i] > 0 {
			return float64(i)
		}
	}
	return 0
}

// String implements Function.
func (f Polynomial) String() string {
	var b strings.Builder
	first := true
	for i := len(f.coeffs) - 1; i >= 0; i-- {
		c := f.coeffs[i]
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte('+')
		}
		first = false
		switch i {
		case 0:
			b.WriteString(formatCoeff(c))
		case 1:
			b.WriteString(formatCoeff(c))
			b.WriteByte('x')
		default:
			b.WriteString(formatCoeff(c))
			b.WriteString("x^")
			b.WriteString(strconv.Itoa(i))
		}
	}
	return b.String()
}

// Exponential is the function ℓ(x) = a·e^{b·x}. Its elasticity b·x is
// unbounded globally but finite on any (0, n]; it exercises the protocol in
// the regime where the elasticity bound is large.
type Exponential struct {
	A float64 // scale, > 0
	B float64 // rate, ≥ 0
}

var (
	_ Function = Exponential{}
	_ Elastic  = Exponential{}
)

// NewExponential returns ℓ(x) = a·e^{b·x}.
func NewExponential(a, b float64) (Exponential, error) {
	switch {
	case !(a > 0):
		return Exponential{}, fmt.Errorf("%w: exponential scale %v must be positive", ErrInvalid, a)
	case b < 0 || math.IsNaN(b) || math.IsInf(b, 0):
		return Exponential{}, fmt.Errorf("%w: exponential rate %v must be non-negative and finite", ErrInvalid, b)
	}
	return Exponential{A: a, B: b}, nil
}

// Value implements Function.
func (f Exponential) Value(x float64) float64 { return f.A * math.Exp(f.B*x) }

// Derivative implements Function.
func (f Exponential) Derivative(x float64) float64 { return f.A * f.B * math.Exp(f.B*x) }

// ElasticityBound implements Elastic: the elasticity of a·e^{bx} is b·x,
// maximized at the right end of (0, n].
func (f Exponential) ElasticityBound(n float64) float64 { return f.B * n }

// String implements Function.
func (f Exponential) String() string {
	return formatCoeff(f.A) + "e^(" + strconv.FormatFloat(f.B, 'g', -1, 64) + "x)"
}

// Scaled wraps a function as ℓⁿ(x) = ℓ(x/n): the normalization used in
// Theorem 9, equivalent to giving each of n players weight 1/n. Scaling
// leaves the elasticity unchanged while the step size ν shrinks with n.
type Scaled struct {
	F Function
	N float64 // number of players the base function is normalized by
}

var (
	_ Function = Scaled{}
	_ Elastic  = Scaled{}
)

// NewScaled returns ℓ(x/n) for the given base function.
func NewScaled(f Function, n float64) (Scaled, error) {
	if f == nil {
		return Scaled{}, fmt.Errorf("%w: scaled base function must not be nil", ErrInvalid)
	}
	if !(n > 0) {
		return Scaled{}, fmt.Errorf("%w: scale %v must be positive", ErrInvalid, n)
	}
	return Scaled{F: f, N: n}, nil
}

// Value implements Function.
func (f Scaled) Value(x float64) float64 { return f.F.Value(x / f.N) }

// Derivative implements Function.
func (f Scaled) Derivative(x float64) float64 { return f.F.Derivative(x/f.N) / f.N }

// ElasticityBound implements Elastic. ℓ(x/n) has the same elasticity profile
// as ℓ, evaluated on (0, n·scale⁻¹·n] — i.e. the bound over (0,n] of the
// scaled function equals the bound over (0, n/N] of the base function.
func (f Scaled) ElasticityBound(n float64) float64 {
	return Elasticity(f.F, n/f.N)
}

// String implements Function.
func (f Scaled) String() string {
	return "(" + f.F.String() + ")(x/" + strconv.FormatFloat(f.N, 'g', -1, 64) + ")"
}

// Amplified wraps a function as c·ℓ(x): pure output scaling, the "rush
// hour" model where a link's latency curve is uniformly amplified (or, for
// c < 1, relieved) without changing its shape. Output scaling leaves the
// elasticity ℓ'(x)·x/ℓ(x) untouched while ν_e scales by c. Latency-scale
// events never nest one Amplified inside another: game and fluid keep one
// layer per link whose C is the product of every factor fired on it, so
// there is no chain to unwrap. The fields are exported so population
// rescaling (internal/fluid) can lift that one layer off the link's
// function, retarget what is under it and put the layer back.
type Amplified struct {
	F Function
	C float64 // amplification factor, > 0
}

var (
	_ Function = Amplified{}
	_ Elastic  = Amplified{}
)

// NewAmplified returns c·ℓ(x) for the given base function.
func NewAmplified(f Function, c float64) (Amplified, error) {
	if f == nil {
		return Amplified{}, fmt.Errorf("%w: amplified base function must not be nil", ErrInvalid)
	}
	if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
		return Amplified{}, fmt.Errorf("%w: amplification factor %v must be positive and finite", ErrInvalid, c)
	}
	return Amplified{F: f, C: c}, nil
}

// Value implements Function.
func (f Amplified) Value(x float64) float64 { return f.C * f.F.Value(x) }

// Derivative implements Function.
func (f Amplified) Derivative(x float64) float64 { return f.C * f.F.Derivative(x) }

// ElasticityBound implements Elastic: (c·ℓ)'·x/(c·ℓ) = ℓ'·x/ℓ, so output
// scaling preserves the elasticity of the base function exactly.
func (f Amplified) ElasticityBound(n float64) float64 {
	return Elasticity(f.F, n)
}

// String implements Function.
func (f Amplified) String() string {
	return formatCoeff(f.C) + "·(" + f.F.String() + ")"
}

// MM1 is the M/M/1 queueing delay ℓ(x) = 1/(c − x) for x < c, the standard
// latency model for routers and servers. It is only defined below the
// capacity c; Value clamps at fill·c (default 99% of capacity) to stay
// finite, which caps the elasticity near x·c/(c−x)|_{x=fill·c}. Games using
// MM1 should keep n below the total capacity.
type MM1 struct {
	C    float64 // capacity, > 0
	fill float64 // clamp fraction, in (0,1)
}

var (
	_ Function = MM1{}
	_ Elastic  = MM1{}
)

// NewMM1 returns ℓ(x) = 1/(c−x), clamped at 99% of the capacity c.
func NewMM1(c float64) (MM1, error) {
	if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
		return MM1{}, fmt.Errorf("%w: capacity %v must be positive and finite", ErrInvalid, c)
	}
	return MM1{C: c, fill: 0.99}, nil
}

func (f MM1) clamp(x float64) float64 {
	if limit := f.fill * f.C; x > limit {
		return limit
	}
	return x
}

// Value implements Function.
func (f MM1) Value(x float64) float64 { return 1 / (f.C - f.clamp(x)) }

// Derivative implements Function (zero beyond the clamp, matching the
// flat-clamped Value).
func (f MM1) Derivative(x float64) float64 {
	if x > f.fill*f.C {
		return 0
	}
	d := f.C - x
	return 1 / (d * d)
}

// ElasticityBound implements Elastic: the elasticity x/(c−x) increases up
// to the clamp point min(n, fill·c).
func (f MM1) ElasticityBound(n float64) float64 {
	x := f.clamp(n)
	return x / (f.C - x)
}

// String implements Function.
func (f MM1) String() string {
	return "1/(" + strconv.FormatFloat(f.C, 'g', -1, 64) + "-x)"
}

// Piecewise is a non-decreasing piecewise-linear function given by values at
// integer loads 0..len(vals)-1 and extended linearly beyond with the last
// segment's slope. It models empirically-measured latency tables.
type Piecewise struct {
	vals []float64
}

var _ Function = Piecewise{}

// NewPiecewise returns the piecewise-linear interpolation of the given
// values at loads 0, 1, 2, .... Values must be non-decreasing, non-negative,
// positive from index 1 on, and there must be at least two of them.
func NewPiecewise(vals ...float64) (Piecewise, error) {
	if len(vals) < 2 {
		return Piecewise{}, fmt.Errorf("%w: piecewise needs at least two values", ErrInvalid)
	}
	for i, v := range vals {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Piecewise{}, fmt.Errorf("%w: piecewise value v%d=%v must be non-negative and finite", ErrInvalid, i, v)
		}
		if i > 0 {
			if v < vals[i-1] {
				return Piecewise{}, fmt.Errorf("%w: piecewise values must be non-decreasing (v%d=%v < v%d=%v)", ErrInvalid, i, v, i-1, vals[i-1])
			}
			if v <= 0 {
				return Piecewise{}, fmt.Errorf("%w: piecewise value v%d must be positive", ErrInvalid, i)
			}
		}
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	return Piecewise{vals: cp}, nil
}

// Value implements Function.
func (f Piecewise) Value(x float64) float64 {
	last := len(f.vals) - 1
	if x >= float64(last) {
		slope := f.vals[last] - f.vals[last-1]
		return f.vals[last] + slope*(x-float64(last))
	}
	if x <= 0 {
		return f.vals[0]
	}
	i := int(x)
	frac := x - float64(i)
	return f.vals[i] + frac*(f.vals[i+1]-f.vals[i])
}

// Derivative implements Function (right derivative at breakpoints).
func (f Piecewise) Derivative(x float64) float64 {
	last := len(f.vals) - 1
	if x >= float64(last) {
		return f.vals[last] - f.vals[last-1]
	}
	if x < 0 {
		return 0
	}
	i := int(x)
	return f.vals[i+1] - f.vals[i]
}

// String implements Function.
func (f Piecewise) String() string {
	parts := make([]string, len(f.vals))
	for i, v := range f.vals {
		parts[i] = formatCoeff(v)
	}
	return "pw[" + strings.Join(parts, ",") + "]"
}

func formatCoeff(c float64) string {
	return strconv.FormatFloat(c, 'g', -1, 64)
}
