package heavyhitter_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/heavyhitter"
)

// Deviation heavy hitters on biased data: every key carries ~1000
// units (which classical φ·‖x‖₁ queries cannot see past), and the two
// planted anomalies — one hot, one dead — are exactly what TopK
// surfaces.
func Example() {
	const n = 100_000
	l2 := core.NewL2SR(core.Config{N: n, K: 2048},
		rand.New(rand.NewSource(1)))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		switch i {
		case 777:
			l2.Update(i, 250_000) // hot key
		case 4242:
			// dead key: never updated
		default:
			l2.Update(i, 1000+float64(r.Intn(41)-20))
		}
	}

	for _, d := range heavyhitter.TopK(l2, 2) {
		fmt.Printf("key %d deviates by ≈%.0f\n", d.Index, d.Deviation)
	}
	// Output:
	// key 777 deviates by ≈249014
	// key 4242 deviates by ≈984
}
