package repro_test

import (
	"fmt"
	"math"
	"testing"

	"repro"
)

// §4.1's pathological input at the public API: a crowd of coordinates
// at 50 and two astronomically large ones. l2sr's β̂ must stay at the
// crowd's value and every probed crowd key must recover, whichever
// order the outliers arrive in, and after a restore or a merge of two
// halves as well.
func TestL2SRHugeOutliersKeepBias(t *testing.T) {
	const n, crowd = 10_000, 50.0
	opts := []repro.Option{repro.WithDim(n), repro.WithWords(64), repro.WithDepth(9), repro.WithSeed(5)}
	for _, big := range []float64{1e17, 1e20, 1e300} {
		for _, reverse := range []bool{false, true} {
			whole, even, odd := mustNew(t, "l2sr", opts...), mustNew(t, "l2sr", opts...), mustNew(t, "l2sr", opts...)
			for j := 0; j < n; j++ {
				i := j
				if reverse {
					i = n - 1 - j
				}
				v := crowd
				if i < 2 {
					v = big
				}
				whole.Update(i, v)
				if i%2 == 0 {
					even.Update(i, v)
				} else {
					odd.Update(i, v)
				}
			}
			data, err := repro.Marshal(whole)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := repro.Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := repro.Merge(even, odd); err != nil {
				t.Fatal(err)
			}
			for name, sk := range map[string]repro.Sketch{"whole": whole, "restored": restored, "merged": even} {
				where := fmt.Sprintf("outliers %g, reversed %v, %s", big, reverse, name)
				beta, err := repro.Bias(sk)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(beta-crowd) > 1e-9 {
					t.Errorf("%s: β̂ = %v, want %v", where, beta, crowd)
				}
				bad := 0
				for i := 2; i < n; i += 13 {
					if math.Abs(sk.Query(i)-crowd) > 1 {
						bad++
					}
				}
				if bad > 0 {
					t.Errorf("%s: %d probed crowd keys off by more than 1", where, bad)
				}
			}
		}
	}
}
