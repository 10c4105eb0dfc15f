package window

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

const dim = 512

func mkExact() *stream.Exact { return stream.NewExact(dim) }

func mergeExact(dst, src *stream.Exact) error {
	for i, v := range src.Vector() {
		if v != 0 {
			dst.Update(i, v)
		}
	}
	return nil
}

func mustWindow(t *testing.T, cfg Config) *Window[*stream.Exact] {
	t.Helper()
	w, err := New(cfg, mkExact, mergeExact)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidatesConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Panes: 0, Shards: 1},
		{Panes: -3, Shards: 1},
		{Panes: 4, Shards: 0},
		{Panes: 4, Shards: -1},
		{Panes: 4, Shards: 1, Width: -time.Second},
	} {
		if _, err := New(cfg, mkExact, mergeExact); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestAdvanceRejectsNonPositive(t *testing.T) {
	w := mustWindow(t, Config{Panes: 3, Shards: 1})
	for _, k := range []int{0, -1} {
		if err := w.Advance(k); err == nil {
			t.Errorf("Advance(%d) should fail", k)
		}
	}
}

func TestBatchLengthMismatch(t *testing.T) {
	w := mustWindow(t, Config{Panes: 3, Shards: 1})
	if err := w.UpdateBatch(0, []int{1, 2}, []float64{1}); err == nil {
		t.Error("UpdateBatch length mismatch should fail")
	}
	if err := w.QueryBatch([]int{1, 2}, make([]float64, 1)); err == nil {
		t.Error("QueryBatch length mismatch should fail")
	}
}

// Property: Window.Query ≡ brute-force recount over only the live
// panes, across random pane counts, shard counts, and advance
// schedules. The exact pane sketch makes the comparison bit-for-bit.
func TestQueryMatchesLivePaneRecountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		panes := 1 + r.Intn(5)
		w, err := New(Config{Panes: panes, Shards: 1 + r.Intn(4)}, mkExact, mergeExact)
		if err != nil {
			t.Log(err)
			return false
		}
		// byPane[seq] accumulates the updates that landed in pane seq.
		byPane := map[int][]float64{}
		cur := 0
		rounds := 2 + r.Intn(12)
		for round := 0; round < rounds; round++ {
			m := r.Intn(60)
			idx := make([]int, m)
			deltas := make([]float64, m)
			for j := range idx {
				idx[j] = r.Intn(dim)
				deltas[j] = float64(r.Intn(9) - 2)
			}
			if p := byPane[cur]; p == nil {
				byPane[cur] = make([]float64, dim)
			}
			for j, i := range idx {
				byPane[cur][i] += deltas[j]
			}
			if r.Intn(2) == 0 {
				if err := w.UpdateBatch(r.Int(), idx, deltas); err != nil {
					t.Log(err)
					return false
				}
			} else {
				for j, i := range idx {
					if err := w.Update(r.Int(), i, deltas[j]); err != nil {
						t.Log(err)
						return false
					}
				}
			}
			if r.Intn(3) == 0 {
				k := 1 + r.Intn(panes+1) // sometimes beyond the window
				if err := w.Advance(k); err != nil {
					t.Log(err)
					return false
				}
				cur += k
			}
			// Brute force: sum exactly the live panes.
			want := make([]float64, dim)
			for seq, x := range byPane {
				if seq >= cur-(panes-1) {
					for i, v := range x {
						want[i] += v
					}
				}
			}
			idxAll := make([]int, dim)
			for i := range idxAll {
				idxAll[i] = i
			}
			out := make([]float64, dim)
			if err := w.QueryBatch(idxAll, out); err != nil {
				t.Log(err)
				return false
			}
			for i := range out {
				if out[i] != want[i] {
					t.Logf("seed %d round %d: x[%d] = %v, live-pane recount %v",
						seed, round, i, out[i], want[i])
					return false
				}
				if q, err := w.Query(i); err != nil || q != out[i] {
					t.Logf("Query(%d) = %v, %v; QueryBatch gave %v", i, q, err, out[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdvanceFullWindowEmpties(t *testing.T) {
	w := mustWindow(t, Config{Panes: 4, Shards: 2})
	for i := 0; i < dim; i++ {
		if err := w.Update(i, i, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(4); err != nil {
		t.Fatal(err)
	}
	if got, err := w.Query(7); err != nil || got != 0 {
		t.Fatalf("after full-window advance Query = %v, %v; want 0", got, err)
	}
	if w.Live() != 1 {
		t.Fatalf("Live = %d after full-window advance, want 1", w.Live())
	}
}

// A never-written open pane must not materialize a frozen copy: only
// written panes occupy ring slots.
func TestEmptyPanesNeverStored(t *testing.T) {
	w := mustWindow(t, Config{Panes: 5, Shards: 1})
	for k := 0; k < 3; k++ {
		if err := w.Advance(1); err != nil {
			t.Fatal(err)
		}
	}
	if w.Live() != 1 {
		t.Fatalf("Live = %d after advancing an idle window, want 1", w.Live())
	}
	if err := w.Update(0, 9, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	if w.Live() != 2 {
		t.Fatalf("Live = %d with one written closed pane, want 2", w.Live())
	}
}

// An idle rotation — nothing to freeze, nothing expiring — must not
// invalidate the published view: the window contents are unchanged,
// so a clock-driven window polled while write-idle keeps serving the
// same replica instead of rebuilding it every tick.
func TestIdleRotationKeepsViewFresh(t *testing.T) {
	w := mustWindow(t, Config{Panes: 4, Shards: 1})
	if err := w.Update(0, 3, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	v1, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(1); err != nil { // idle: open pane unwritten, nothing expires
		t.Fatal(err)
	}
	v2, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("idle rotation rebuilt the view")
	}
	if err := w.Advance(2); err != nil { // now the written pane expires
		t.Fatal(err)
	}
	if !v2.Stale() {
		t.Fatal("expiring rotation left the view fresh")
	}
	if got, err := w.Query(3); err != nil || got != 0 {
		t.Fatalf("after expiry Query = %v, %v; want 0", got, err)
	}
}

// The published view must be reused while fresh (pointer identity) and
// rebuilt after a write or a rotation.
func TestViewCaching(t *testing.T) {
	w := mustWindow(t, Config{Panes: 3, Shards: 1})
	if err := w.Update(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	v1, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("fresh view was rebuilt instead of reused")
	}
	if v1.Stale() {
		t.Fatal("freshly built view reports stale")
	}
	if err := w.Update(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !v1.Stale() {
		t.Fatal("view not stale after a write")
	}
	v3, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("stale view was reused")
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	if !v3.Stale() {
		t.Fatal("view not stale after a rotation")
	}
}

// A stale view costs one construction: the closed-pane sum and every
// open-pane shard merge straight into the view's replica.
func TestStaleViewBuildsOneReplica(t *testing.T) {
	built := 0
	mk := func() *stream.Exact { built++; return mkExact() }
	w, err := New(Config{Panes: 4, Shards: 2}, mk, mergeExact)
	if err != nil {
		t.Fatal(err)
	}
	for pane := 0; pane < 3; pane++ {
		if pane > 0 {
			if err := w.Advance(1); err != nil {
				t.Fatal(err)
			}
		}
		for slot := 0; slot < 2; slot++ {
			if err := w.Update(slot, 10*pane+slot, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 1; round <= 3; round++ {
		if err := w.Update(round%2, 7, 1); err != nil {
			t.Fatal(err)
		}
		before := built
		v, err := w.View()
		if err != nil {
			t.Fatal(err)
		}
		if got := built - before; got != 1 {
			t.Errorf("round %d: a stale View built %d replicas, want 1", round, got)
		}
		if got := v.Query(7); got != float64(round) {
			t.Errorf("round %d: x[7] = %v, want %d", round, got, round)
		}
		if got := v.Query(20) + v.Query(0); got != 2 {
			t.Errorf("round %d: x[20]+x[0] = %v, want 2", round, got)
		}
	}
}

// Clock-driven rotation: a fake clock crossing pane boundaries must
// expire old traffic on the next touch — including multi-pane jumps
// and query-only touches on a write-idle window.
func TestClockDrivenRotation(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advanceClock := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}
	w, err := New(Config{Panes: 3, Shards: 2, Width: time.Second, Now: clock}, mkExact, mergeExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Update(0, 5, 10); err != nil {
		t.Fatal(err)
	}
	advanceClock(1100 * time.Millisecond) // into pane 1
	if err := w.Update(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Query(5); got != 11 {
		t.Fatalf("both panes live: Query = %v, want 11", got)
	}
	advanceClock(2 * time.Second) // into pane 3: pane 0 expired
	if got, _ := w.Query(5); got != 1 {
		t.Fatalf("pane 0 expired: Query = %v, want 1", got)
	}
	advanceClock(10 * time.Second) // far future: everything expired, query-only touch
	if got, _ := w.Query(5); got != 0 {
		t.Fatalf("all panes expired: Query = %v, want 0", got)
	}
}

// Rotation race: concurrent writers, readers, and an advancer. Every
// batch moves two marker coordinates in lockstep and both always land
// in the same pane, so any live-pane sum must keep x[0] == x[1]; a
// mismatch means a torn rotation or a torn merge. Run with -race.
func TestRotationRace(t *testing.T) {
	const writers, batches, batchLen, panes = 4, 50, 64, 3
	w := mustWindow(t, Config{Panes: panes, Shards: writers})

	var writerWG, helperWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			r := rand.New(rand.NewSource(int64(7 + g)))
			idx := make([]int, batchLen)
			deltas := make([]float64, batchLen)
			for u := 0; u < batches; u++ {
				idx[0], deltas[0] = 0, 1
				idx[1], deltas[1] = 1, 1
				for j := 2; j < batchLen; j++ {
					idx[j] = 2 + r.Intn(dim-2)
					deltas[j] = 1
				}
				if err := w.UpdateBatch(g, idx, deltas); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	helperWG.Add(1)
	go func() { // rotator: yields between rotations so writers progress
		defer helperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Advance(1); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	for g := 0; g < 3; g++ {
		helperWG.Add(1)
		go func() {
			defer helperWG.Done()
			out := make([]float64, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.QueryBatch([]int{0, 1}, out); err != nil {
					t.Error(err)
					return
				}
				if out[0] != out[1] {
					t.Errorf("torn window: x[0]=%v x[1]=%v", out[0], out[1])
					return
				}
				runtime.Gosched()
			}
		}()
	}

	writerWG.Wait() // writers done; stop rotator and readers
	close(stop)
	helperWG.Wait()

	// Expire everything: the window must drain to zero.
	if err := w.Advance(panes); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, dim - 1} {
		if got, err := w.Query(i); err != nil || got != 0 {
			t.Fatalf("after draining, Query(%d) = %v, %v; want 0", i, got, err)
		}
	}
}

// Bias-aware panes: the window must serve the full read surface of a
// merged ℓ2-S/R sketch (queries and bias) and agree with a single
// sketch fed only the live panes' updates.
func TestL2SRWindowMatchesLiveRecount(t *testing.T) {
	const n = 2000
	mk := func() *core.SR {
		return core.NewL2SR(core.Config{N: n, K: 64},
			rand.New(rand.NewSource(5)))
	}
	merge := func(dst, src *core.SR) error { return dst.MergeFrom(src) }
	w, err := New(Config{Panes: 2, Shards: 2}, mk, merge)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	// Pane 0: about-to-expire traffic. Panes 1-2: the live window.
	for u := 0; u < 4000; u++ {
		if err := w.Update(u, r.Intn(n), float64(100+r.Intn(10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	ref := mk()
	r2 := rand.New(rand.NewSource(12))
	for u := 0; u < 4000; u++ {
		i, d := r2.Intn(n), float64(100+r2.Intn(10))
		if err := w.Update(u, i, d); err != nil {
			t.Fatal(err)
		}
		ref.Update(i, d)
	}
	if err := w.Advance(1); err != nil { // pane 0 expires; live = ref's updates
		t.Fatal(err)
	}
	v, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 37 {
		if a, b := v.Query(i), ref.Query(i); math.Abs(a-b) > 1e-9 {
			t.Fatalf("query %d: window %v, live recount %v", i, a, b)
		}
	}
	if a, b := v.Sketch().Bias(), ref.Bias(); math.Abs(a-b) > 1e-9 {
		t.Fatalf("bias: window %v, live recount %v", a, b)
	}
}

func TestWordsAccumulates(t *testing.T) {
	w := mustWindow(t, Config{Panes: 4, Shards: 3})
	base := w.Words()
	if base != 3*dim {
		t.Fatalf("fresh window Words = %d, want %d (3 shards)", base, 3*dim)
	}
	if err := w.Update(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(1); err != nil {
		t.Fatal(err)
	}
	// Open pane shards + 1 closed pane + the cached closed sum.
	if got := w.Words(); got != 3*dim+2*dim {
		t.Fatalf("Words after one rotation = %d, want %d", got, 5*dim)
	}
}

func TestAccessors(t *testing.T) {
	w := mustWindow(t, Config{Panes: 4, Shards: 2, Width: 0})
	if w.Panes() != 4 || w.Width() != 0 || w.Live() != 1 {
		t.Fatalf("accessors: Panes=%d Width=%v Live=%d", w.Panes(), w.Width(), w.Live())
	}
}

// Live and Words must fold clock-driven rotations in before reporting,
// exactly as Update and Query do: a write-idle window whose panes have
// all expired reports one live pane (the open one) and open-pane-only
// memory, without waiting for some Update or Query to land first.
func TestLiveWordsFoldClockRotations(t *testing.T) {
	now := time.Unix(2000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advanceClock := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}
	cfg := Config{Panes: 3, Shards: 1, Width: time.Second, Now: clock}
	w, err := New(cfg, mkExact, mergeExact)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := New(cfg, mkExact, mergeExact)
	if err != nil {
		t.Fatal(err)
	}
	freshWords := pristine.Words()

	if err := w.Update(0, 5, 10); err != nil {
		t.Fatal(err)
	}
	advanceClock(1100 * time.Millisecond)
	if got := w.Live(); got != 2 { // rotation folded in by Live itself
		t.Fatalf("Live = %d after one pane closed, want 2", got)
	}
	if got := w.Words(); got <= freshWords {
		t.Fatalf("Words = %d with a closed pane live, want > pristine %d", got, freshWords)
	}

	advanceClock(10 * time.Second) // far future: every pane expired, no Update/Query lands
	if got := w.Live(); got != 1 {
		t.Fatalf("Live = %d after full expiry on a write-idle window, want 1", got)
	}
	if got := w.Words(); got != freshWords {
		t.Fatalf("Words = %d after full expiry, want pristine %d", got, freshWords)
	}
	if got, err := w.Query(5); err != nil || got != 0 {
		t.Fatalf("Query(5) = %v, %v after full expiry, want 0", got, err)
	}
}
