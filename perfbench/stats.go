package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is a tail percentile with the evidence behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile string  `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf picks the highest of p99, p95 and p90 that has at least ten
// samples beyond it; with fewer than 100 samples it falls back to p90.
func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		beyond := n - int(math.Ceil(p.q*float64(n)))
		if beyond >= 10 || p.name == "p90" {
			return tail{Value: quantile(xs, p.q), Percentile: p.name, Samples: n, Beyond: beyond}
		}
	}
	return tail{}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
