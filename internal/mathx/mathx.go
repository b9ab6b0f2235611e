// Package mathx provides the small number-theoretic helpers the paper's
// analysis uses: iterated logarithms (log*), power towers, binomial
// coefficients, and the superweak-coloring growth sequence from Section 5.2
// of Brandt (PODC 2019).
package mathx

import (
	"math"
	"math/big"
)

// LogStar returns log*₂(x): the number of times log₂ must be iterated,
// starting from x, before the result is at most 1. LogStar(x) = 0 for x ≤ 1.
func LogStar(x float64) int {
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
	}
	return n
}

// LogStarBig is LogStar for arbitrarily large integers. Values that exceed
// float64 range are first reduced by exact bit-length steps (log₂ of an
// integer is within 1 of its bit length), which only affects the count by
// the usual ±O(1) slack inherent in log*.
func LogStarBig(x *big.Int) int {
	n := 0
	v := new(big.Int).Set(x)
	one := big.NewInt(1)
	for v.Cmp(one) > 0 {
		if v.IsInt64() {
			return n + LogStar(float64(v.Int64()))
		}
		// log₂(v) ∈ [bitlen-1, bitlen); use bitlen-1 as the exact floor.
		v = big.NewInt(int64(v.BitLen() - 1))
		n++
	}
	return n
}

// Tower returns the power tower 2↑↑h as a big integer: Tower(0)=1,
// Tower(h)=2^Tower(h-1). It panics for h large enough that the result would
// not fit in memory (h ≥ 6 yields a number with more than 2^64 bits).
func Tower(h int) *big.Int {
	if h < 0 {
		panic("mathx: negative tower height")
	}
	if h >= 6 {
		panic("mathx: tower too large to materialize")
	}
	v := big.NewInt(1)
	for i := 0; i < h; i++ {
		e := int(v.Int64())
		v = new(big.Int).Lsh(big.NewInt(1), uint(e))
	}
	return v
}

// Binomial returns C(n, k) as an int64, or (0, false) on overflow.
func Binomial(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	r := big.NewInt(1)
	r.Binomial(int64(n), int64(k))
	if !r.IsInt64() {
		return 0, false
	}
	return r.Int64(), true
}

// BinomialBig returns C(n, k) as a big integer.
func BinomialBig(n, k int) *big.Int {
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Pow2 returns 2^e as a big integer.
func Pow2(e int) *big.Int {
	if e < 0 {
		panic("mathx: negative exponent")
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(e))
}

// SuperweakSteps returns the number of speedup steps of the Section 5.2
// sequence k₀ = 2, k_{i+1} = F⁵(k_i) with F(x) = 2^x, that the Theorem 4
// argument supports on graphs with Δ = Tower(towerHeight) (i.e. the
// largest i with k_i ≤ log₂ Δ, the threshold at which the final 0-round
// impossibility argument stops applying).
//
// The parameter sequence lives in power-tower territory (k₁ = F⁵(2) is a
// tower of height 5), so Δ is given by its tower height rather than its
// value: k_i = Tower(5i + 1), hence k_i ≤ log₂ Δ = Tower(towerHeight − 1)
// iff 5i + 1 ≤ towerHeight − 1. Because log*(Tower(h)) = h, the result is
// Θ(log* Δ) with ratio converging to 1/5 — the quantitative content of
// Theorem 4's lower bound.
func SuperweakSteps(towerHeight int) int {
	if towerHeight < 2 {
		return 0
	}
	steps := (towerHeight - 2) / 5
	if steps < 0 {
		return 0
	}
	return steps
}

// TowerHeight returns log*₂-style tower height: the largest h with
// Tower(h) ≤ x, i.e. the number of times log₂ can be applied before
// dropping to ≤ 1 — identical to LogStarBig.
func TowerHeight(x *big.Int) int {
	return LogStarBig(x)
}
