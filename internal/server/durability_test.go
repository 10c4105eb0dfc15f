package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// errInjectedSync is the fault these tests inject into the fsync
// indirection points.
var errInjectedSync = errors.New("injected sync failure")

// mkEntry builds a registered plain sketch with some state to
// checkpoint, bypassing HTTP: these tests exercise the durability
// layer directly.
func mkEntry(t *testing.T) *entry {
	t.Helper()
	h, err := buildHandle(Spec{Kind: "plain", Algo: "l2sr", Dim: 500, Words: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := &entry{tenant: "acme", name: "s",
		spec: Spec{Kind: "plain", Algo: "l2sr", Dim: 500, Words: 64, Seed: 7}, h: h}
	if err := e.h.updateBatch(0, []int{3, 4, 3}, []float64{5, 7, 5}); err != nil {
		t.Fatal(err)
	}
	return e
}

func query(t *testing.T, h handle, i int) float64 {
	t.Helper()
	out := make([]float64, 1)
	if err := h.queryBatch([]int{i}, out); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// A failing fsync must fail the write, leave no temp litter, and leave
// the previously published file untouched — the checkpoint pair on
// disk stays the last durable one.
func TestWriteAtomicSyncErrorPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bin")
	if err := writeAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}

	oldSync := syncFile
	syncFile = func(*os.File) error { return errInjectedSync }
	t.Cleanup(func() { syncFile = oldSync })

	if err := writeAtomic(path, []byte("new")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("writeAtomic err = %v, want the injected fsync failure", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("published file = %q, %v; a failed sync must not replace it", got, err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("temp litter left behind: %v", files)
	}

	// Directory-sync failure surfaces too (the rename has happened, but
	// the caller must learn the checkpoint is not yet durable).
	syncFile = oldSync
	oldDir := syncDir
	syncDir = func(string) error { return errInjectedSync }
	t.Cleanup(func() { syncDir = oldDir })
	if err := writeAtomic(path, []byte("new")); !errors.Is(err, errInjectedSync) {
		t.Fatalf("writeAtomic dir-sync err = %v, want the injected failure", err)
	}
}

// writeEntry through a failing fsync leaves the previous generation
// bootable: the sidecar still names it, so a restart serves the last
// durable checkpoint.
func TestWriteEntrySyncFailureKeepsPriorGeneration(t *testing.T) {
	dir := t.TempDir()
	e := mkEntry(t)
	if err := writeEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	wantAt3 := query(t, e.h, 3)

	if err := e.h.updateBatch(0, []int{3}, []float64{100}); err != nil {
		t.Fatal(err)
	}
	oldSync := syncFile
	syncFile = func(*os.File) error { return errInjectedSync }
	t.Cleanup(func() { syncFile = oldSync })
	if err := writeEntry(dir, e); !errors.Is(err, errInjectedSync) {
		t.Fatalf("writeEntry err = %v", err)
	}
	syncFile = oldSync

	got, err := loadEntry(dir, "acme", "s")
	if err != nil {
		t.Fatal(err)
	}
	if v := query(t, got.h, 3); v != wantAt3 {
		t.Fatalf("restored Query(3) = %v, want the pre-failure %v", v, wantAt3)
	}
}

// The crash window this change closes: the new generation's container
// is on disk but the sidecar rename never happened. Boot must ignore
// the orphan and serve the pair the sidecar names.
func TestBootIgnoresOrphanContainer(t *testing.T) {
	dir := t.TempDir()
	e := mkEntry(t)
	if err := writeEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	wantAt3 := query(t, e.h, 3)

	// Simulate the torn pair: a fully written gen-2 container with
	// newer state, sidecar still pointing at gen 1.
	if err := e.h.updateBatch(0, []int{3}, []float64{100}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.h.checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	orphan := containerPath(filepath.Join(dir, "acme", "s"), 2)
	if err := os.WriteFile(orphan, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := loadEntry(dir, "acme", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != 1 {
		t.Fatalf("boot picked generation %d, want the sidecar's 1", got.gen)
	}
	if v := query(t, got.h, 3); v != wantAt3 {
		t.Fatalf("restored Query(3) = %v, want %v — orphan container must not be served", v, wantAt3)
	}
}

// A current-generation container that is torn (truncated, corrupted)
// fails its recorded checksum, and boot falls back to the previous
// consistent pair instead of serving garbage or refusing to start.
func TestBootFallsBackOnTornContainer(t *testing.T) {
	dir := t.TempDir()
	e := mkEntry(t)
	if err := writeEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	wantAt3 := query(t, e.h, 3)
	if err := e.h.updateBatch(0, []int{4}, []float64{50}); err != nil {
		t.Fatal(err)
	}
	if err := writeEntry(dir, e); err != nil {
		t.Fatal(err)
	}

	// Tear generation 2: chop the tail off the container.
	cur := containerPath(filepath.Join(dir, "acme", "s"), 2)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := loadEntry(dir, "acme", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != 1 {
		t.Fatalf("boot picked generation %d, want the fallback 1", got.gen)
	}
	if v := query(t, got.h, 3); v != wantAt3 {
		t.Fatalf("fallback Query(3) = %v, want the generation-1 %v", v, wantAt3)
	}

	// Both generations gone bad: boot refuses with both causes named.
	prev := containerPath(filepath.Join(dir, "acme", "s"), 1)
	if err := os.WriteFile(prev, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEntry(dir, "acme", "s"); err == nil {
		t.Fatal("boot served a sketch with no consistent checkpoint pair")
	}
}

// Pre-generation checkpoints — bare <name>.ckpt and a plain-Spec
// sidecar — still boot, and the next checkpoint pass upgrades them to
// the generational layout.
func TestLegacyLayoutBootsAndUpgrades(t *testing.T) {
	dir := t.TempDir()
	e := mkEntry(t)
	tdir := filepath.Join(dir, "acme")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.h.checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, "s.ckpt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(e.spec) // legacy sidecar: Spec only, no envelope
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, "s.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := loadEntry(dir, "acme", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != 0 || got.sum != "" {
		t.Fatalf("legacy boot should report generation 0, got %d/%q", got.gen, got.sum)
	}
	if v := query(t, got.h, 3); v != query(t, e.h, 3) {
		t.Fatal("legacy restore diverged")
	}

	// Two passes later the legacy container is pruned: the sidecar
	// names generations 2 and 1 only.
	if err := writeEntry(dir, got); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(tdir, "s.ckpt")); err != nil {
		t.Fatal("first upgrade pass must keep the legacy container as fallback")
	}
	if err := writeEntry(dir, got); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(tdir, "s.ckpt")); !os.IsNotExist(err) {
		t.Errorf("legacy container not pruned after two generational passes: %v", err)
	}
}

// Repeated passes keep exactly the two generations the sidecar names.
func TestPruneKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	e := mkEntry(t)
	for i := 0; i < 5; i++ {
		if err := writeEntry(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	m, err := filepath.Glob(filepath.Join(dir, "acme", "s.g*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("containers on disk after 5 passes: %v, want generations 4 and 5 only", m)
	}
	for _, gen := range []uint64{4, 5} {
		if _, err := os.Stat(containerPath(filepath.Join(dir, "acme", "s"), gen)); err != nil {
			t.Errorf("generation %d missing: %v", gen, err)
		}
	}
}

// A scheduled checkpoint pass that fails must show on /healthz: 503
// "degraded" with the error text while the failure stands, and 200
// again once a later pass succeeds.
func TestHealthzReportsFailedCheckpoint(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	oldSync := syncFile
	syncFile = func(f *os.File) error {
		if failing.Load() {
			return errInjectedSync
		}
		return oldSync(f)
	}
	t.Cleanup(func() { syncFile = oldSync })

	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 5 * time.Millisecond})
	t.Cleanup(func() { s.Drain() }) // stop the scheduler before syncFile is restored
	mustCreate(t, ts.URL, "acme", `{"name":"s","kind":"plain","algo":"countmin","dim":10,"words":32,"depth":2}`)

	waitHealth := func(status int, want ...string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, body := do(t, "GET", ts.URL+"/healthz", "")
			ok := resp.StatusCode == status
			for _, w := range want {
				ok = ok && strings.Contains(body, w)
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz = %s %s; want %d with %q", resp.Status, body, status, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealth(http.StatusServiceUnavailable, `"status":"degraded"`, errInjectedSync.Error())
	failing.Store(false)
	waitHealth(http.StatusOK, `"status":"ok"`)
}

// A data directory written by an older build for a tabulation-hashed
// sketch must fail the boot with ErrHashUnsupported: every sketch here
// hashes with the pairwise family, and restoring those counters under
// it would serve answers from the wrong buckets.
func TestBootRejectsTabulationCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wire", "v2", "countmin-tabulation.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tdir := filepath.Join(dir, "acme")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(containerPath(filepath.Join(tdir, "tab"), 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	doc := `{"kind":"plain","algo":"countmin","dim":512,"words":32,"depth":4,"seed":7,"hashing":"tabulation",` +
		`"gen":1,"sum":"` + hex.EncodeToString(sum[:]) + `"}`
	if err := os.WriteFile(filepath.Join(tdir, "tab.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Config{DataDir: dir}); !errors.Is(err, repro.ErrHashUnsupported) {
		t.Fatalf("boot over a tabulation checkpoint: server %v, err %v; want ErrHashUnsupported", s, err)
	}
}

// Older builds recorded a plain sketch's counter layout in its sidecar.
// A "compressed" sketch must fail the boot with ErrBadSpec, naming the
// sketch, rather than restore as dense and silently stop being
// insert-only; a "dense" one boots and answers as before.
func TestBootChecksLegacyBackend(t *testing.T) {
	sk := repro.MustNew("countmin", repro.WithDim(512), repro.WithWords(32), repro.WithDepth(4), repro.WithSeed(7))
	sk.Update(5, 3)
	data, err := repro.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	seed := func(t *testing.T, name, backend string) string {
		t.Helper()
		dir := t.TempDir()
		tdir := filepath.Join(dir, "acme")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(containerPath(filepath.Join(tdir, name), 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		doc := `{"kind":"plain","algo":"countmin","dim":512,"words":32,"depth":4,"seed":7,"backend":"` + backend + `",` +
			`"gen":1,"sum":"` + hex.EncodeToString(sum[:]) + `"}`
		if err := os.WriteFile(filepath.Join(tdir, name+".json"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	s, err := New(Config{DataDir: seed(t, "braid", "compressed")})
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), "acme/braid") {
		t.Fatalf("boot over a compressed sidecar: server %v, err %v; want ErrBadSpec naming acme/braid", s, err)
	}

	_, ts := newTestServer(t, Config{DataDir: seed(t, "flat", "dense")})
	resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/flat/query?i=5", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"estimates":[3]`) {
		t.Errorf("restored dense sketch: %s %s, want estimate 3", resp.Status, body)
	}
}
