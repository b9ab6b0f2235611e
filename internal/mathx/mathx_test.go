package mathx

import (
	"math/big"
	"testing"
)

func TestLogStar(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {65537, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.x); got != c.want {
			t.Errorf("LogStar(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLogStarBigMatchesFloat(t *testing.T) {
	for _, x := range []int64{1, 2, 3, 16, 17, 65536, 1 << 40} {
		want := LogStar(float64(x))
		if got := LogStarBig(big.NewInt(x)); got != want {
			t.Errorf("LogStarBig(%d) = %d, want %d", x, got, want)
		}
	}
	// 2^(2^20) has log* = log*(2^20) + 1 = (log*(20)+1) + 1.
	huge := new(big.Int).Lsh(big.NewInt(1), 1<<20)
	want := LogStar(float64(uint(1)<<20)) + 1
	if got := LogStarBig(huge); got != want {
		t.Errorf("LogStarBig(2^2^20) = %d, want %d", got, want)
	}
}

func TestTower(t *testing.T) {
	wants := []int64{1, 2, 4, 16, 65536}
	for h, w := range wants {
		if got := Tower(h); got.Int64() != w {
			t.Errorf("Tower(%d) = %v, want %d", h, got, w)
		}
	}
	if Tower(5).BitLen() != 65537 {
		t.Errorf("Tower(5) bit length = %d, want 65537", Tower(5).BitLen())
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{4, 2, 6}, {6, 3, 20}, {10, 0, 1}, {10, 10, 1}, {5, 7, 0}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got, ok := Binomial(c.n, c.k)
		if !ok || got != c.want {
			t.Errorf("Binomial(%d,%d) = %d,%v want %d", c.n, c.k, got, ok, c.want)
		}
	}
	if _, ok := Binomial(100, 50); ok {
		t.Error("Binomial(100,50) should overflow int64")
	}
}

func TestSuperweakSteps(t *testing.T) {
	prev := -1
	for h := 0; h <= 60; h++ {
		s := SuperweakSteps(h)
		if s < prev {
			t.Errorf("SuperweakSteps not monotone at height %d: %d < %d", h, s, prev)
		}
		prev = s
	}
	// k_1 = Tower(6) requires log Δ ≥ Tower(6), i.e. tower height ≥ 7.
	if s := SuperweakSteps(6); s != 0 {
		t.Errorf("SuperweakSteps(6) = %d, want 0", s)
	}
	if s := SuperweakSteps(7); s != 1 {
		t.Errorf("SuperweakSteps(7) = %d, want 1", s)
	}
	// Asymptotic ratio 1/5 against log* = height.
	if s := SuperweakSteps(52); s != 10 {
		t.Errorf("SuperweakSteps(52) = %d, want 10", s)
	}
}

func TestTowerHeight(t *testing.T) {
	if h := TowerHeight(big.NewInt(65536)); h != 4 {
		t.Errorf("TowerHeight(65536) = %d, want 4", h)
	}
}
