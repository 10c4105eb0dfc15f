package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func mustCreate(t *testing.T, base, tenant, body string) {
	t.Helper()
	resp, msg := do(t, "POST", base+"/v1/"+tenant+"/sketches", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s: %s", resp.Status, msg)
	}
}

func frame(t *testing.T, idx []int, deltas []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.EncodeBatch(&buf, idx, deltas); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ingest(t *testing.T, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func TestCreateIngestQueryLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustCreate(t, ts.URL, "acme",
		`{"name":"clicks","kind":"sharded","algo":"l2sr","dim":100000,"words":2048,"shards":2,"seed":3}`)

	if resp, _ := ingest(t, ts.URL+"/v1/acme/sketches/clicks/ingest?slot=1",
		frame(t, []int{5, 5, 9}, []float64{10, 10, 4})); resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/clicks/query?i=5&i=9&i=0", "")
	if resp.StatusCode != 200 {
		t.Fatalf("query: %s: %s", resp.Status, body)
	}
	var q struct{ Estimates []float64 }
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Estimates) != 3 {
		t.Fatalf("got %d estimates", len(q.Estimates))
	}
	// l2sr on a near-empty vector recovers the two heavy coordinates
	// closely; generous tolerance, this is a plumbing test.
	if e := q.Estimates[0]; e < 15 || e > 25 {
		t.Errorf("estimate for x[5]=20: %v", e)
	}

	resp, body = do(t, "GET", ts.URL+"/v1/acme/sketches/clicks/range?lo=0&hi=100", "")
	if resp.StatusCode != 200 {
		t.Fatalf("range: %s: %s", resp.Status, body)
	}
	var rr struct{ Sum float64 }
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Sum < 15 || rr.Sum > 35 {
		t.Errorf("range sum over all mass (24): %v", rr.Sum)
	}

	resp, body = do(t, "GET", ts.URL+"/v1/acme/sketches/clicks/topk?k=2", "")
	if resp.StatusCode != 200 {
		t.Fatalf("topk: %s: %s", resp.Status, body)
	}
	var tk struct {
		TopK []struct {
			Index     int
			Estimate  float64
			Deviation float64
		}
	}
	if err := json.Unmarshal([]byte(body), &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.TopK) != 2 || tk.TopK[0].Index != 5 {
		t.Errorf("topk = %+v, want x[5] first", tk.TopK)
	}

	resp, body = do(t, "GET", ts.URL+"/v1/acme/sketches", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"clicks"`) {
		t.Errorf("list: %s: %s", resp.Status, body)
	}
	if resp, _ := do(t, "DELETE", ts.URL+"/v1/acme/sketches/clicks", ""); resp.StatusCode != 204 {
		t.Errorf("delete status %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/acme/sketches/clicks", ""); resp.StatusCode != 404 {
		t.Errorf("get after delete status %d", resp.StatusCode)
	}
}

// TestHandlerRejects table-drives the 4xx surface: bad names, bad
// specs, missing sketches, and hostile wire-v2 ingest payloads must
// all be client errors — never 500s, never partial writes.
func TestHandlerRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mustCreate(t, ts.URL, "acme",
		`{"name":"s","kind":"sharded","algo":"countmin","dim":50,"words":64,"depth":2}`)

	valid := frame(t, []int{1}, []float64{1})
	wrongKind := func() []byte { // a sketch container, not a batch
		b, err := repro.Marshal(repro.MustNew("countmin", repro.WithDim(10), repro.WithWords(32), repro.WithDepth(2)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad tenant name", "POST", "/v1/bad!tenant/sketches", `{"name":"x","kind":"plain","algo":"countmin","dim":10}`, 400},
		{"bad sketch name", "POST", "/v1/acme/sketches", `{"name":"no spaces","kind":"plain","algo":"countmin","dim":10}`, 400},
		{"unknown algo", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"hyperloglog","dim":10}`, 400},
		{"unknown kind", "POST", "/v1/acme/sketches", `{"name":"x","kind":"fancy","algo":"countmin","dim":10}`, 400},
		{"zero dim", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"countmin"}`, 400},
		// Every sketch keeps dense counters; "backend" is not a spec
		// field, so naming it is an unknown-field 400.
		{"unknown backend", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"countmin","dim":10,"backend":"mmap"}`, 400},
		{"backend on sharded", "POST", "/v1/acme/sketches", `{"name":"x","kind":"sharded","algo":"countmin","dim":10,"backend":"compressed"}`, 400},
		{"compressed l2sr", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"l2sr","dim":10,"backend":"compressed"}`, 400},
		// Every sketch hashes with the pairwise family; "hashing" is
		// not a spec field, so naming it is an unknown-field 400.
		{"unknown hashing", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"countmin","dim":10,"hashing":"xorshift"}`, 400},
		{"tabulation l1sr", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"l1sr","dim":10,"hashing":"tabulation"}`, 400},
		{"non-linear sharded", "POST", "/v1/acme/sketches", `{"name":"x","kind":"sharded","algo":"cmcu","dim":10}`, 400},
		{"malformed json", "POST", "/v1/acme/sketches", `{"name":`, 400},
		{"unknown field", "POST", "/v1/acme/sketches", `{"name":"x","kind":"plain","algo":"countmin","dim":10,"zim":1}`, 400},
		{"duplicate", "POST", "/v1/acme/sketches", `{"name":"s","kind":"plain","algo":"countmin","dim":10}`, 409},
		{"missing sketch info", "GET", "/v1/acme/sketches/ghost", "", 404},
		{"missing sketch delete", "DELETE", "/v1/acme/sketches/ghost", "", 404},
		{"missing sketch query", "GET", "/v1/acme/sketches/ghost/query?i=1", "", 404},
		{"query no params", "GET", "/v1/acme/sketches/s/query", "", 400},
		{"query index over dim", "GET", "/v1/acme/sketches/s/query?i=50", "", 400},
		{"query index junk", "GET", "/v1/acme/sketches/s/query?i=abc", "", 400},
		{"range inverted", "GET", "/v1/acme/sketches/s/range?lo=9&hi=3", "", 400},
		{"range over dim", "GET", "/v1/acme/sketches/s/range?lo=0&hi=50", "", 400},
		{"topk zero", "GET", "/v1/acme/sketches/s/topk?k=0", "", 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: got %d (%s), want %d", tc.method, tc.path, resp.StatusCode, body, tc.want)
			}
			if !strings.Contains(body, "error") && tc.want != 204 {
				t.Errorf("error body %q has no error field", body)
			}
		})
	}

	hostile := []struct {
		name string
		body []byte
	}{
		{"garbage", []byte("BAS2 but not really, just garbage bytes")},
		{"empty", nil},
		{"wrong container kind", wrongKind},
		{"truncated frame", valid[:len(valid)-4]},
		{"index beyond dim", frame(t, []int{50}, []float64{1})},
	}
	for _, tc := range hostile {
		t.Run("ingest "+tc.name, func(t *testing.T) {
			resp, body := ingest(t, ts.URL+"/v1/acme/sketches/s/ingest", tc.body)
			if resp.StatusCode != 400 {
				t.Fatalf("hostile ingest: got %d (%s), want 400", resp.StatusCode, body)
			}
		})
	}
	if resp, body := ingest(t, ts.URL+"/v1/acme/sketches/s/ingest?slot=-1", valid); resp.StatusCode != 400 {
		t.Errorf("negative slot: got %d (%s)", resp.StatusCode, body)
	}

	// The hostile sweep must leave the sketch untouched.
	resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/s/query?i=1", "")
	if resp.StatusCode != 200 || !strings.Contains(body, "[0]") {
		t.Errorf("sketch dirty after hostile sweep: %s %s", resp.Status, body)
	}
}

// A counterbraids sketch is insert-only: negative, fractional and
// unrepresentably large deltas are client errors, rejected whole with
// 400 before any counter moves, and valid inserts keep serving — on
// the plain kind and on the linear kinds that wrap it.
func TestCompressedPlainInsertOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, kind := range []string{"plain", "sharded", "windowed"} {
		mustCreate(t, ts.URL, "acme", `{"name":"`+kind+`","kind":"`+kind+`","algo":"counterbraids","dim":1000}`)
		url := ts.URL + "/v1/acme/sketches/" + kind + "/ingest"
		for _, bad := range []struct {
			name   string
			deltas []float64
		}{
			{"negative", []float64{3, -3}},
			{"fractional", []float64{0.5, 1}},
			{"infinite", []float64{1, math.Inf(1)}},
			{"beyond 2^64", []float64{1, 1 << 64}},
		} {
			if resp, body := ingest(t, url, frame(t, []int{1, 2}, bad.deltas)); resp.StatusCode != 400 || !strings.Contains(body, "insert-only") {
				t.Fatalf("%s: %s delta: got %d (%s), want 400 naming the insert-only constraint", kind, bad.name, resp.StatusCode, body)
			}
		}
		if resp, body := ingest(t, url, frame(t, []int{7, 7}, []float64{2, 3})); resp.StatusCode != 200 {
			t.Fatalf("%s: valid insert: got %d (%s)", kind, resp.StatusCode, body)
		}
		resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/"+kind+"/query?i=1&i=2&i=7", "")
		if resp.StatusCode != 200 || !strings.Contains(body, "[0,0,5]") {
			t.Errorf("%s: query after rejected batches: %s %s", kind, resp.Status, body)
		}
	}
}

// An infinite delta is a 400 for every algorithm, and the rejected
// batch moves nothing: a +Inf and a −Inf on one key would leave NaN in
// its buckets for good. Plain and sharded l2sr and countmin sketches
// answer exactly as before the rejected posts.
func TestIngestRejectsInfiniteDeltas(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sk := range []struct{ name, spec string }{
		{"l2sr", `{"name":"l2sr","kind":"plain","algo":"l2sr","dim":1000,"words":64,"depth":3}`},
		{"countmin", `{"name":"countmin","kind":"plain","algo":"countmin","dim":1000,"words":64,"depth":3}`},
		{"sharded", `{"name":"sharded","kind":"sharded","algo":"l2sr","dim":1000,"words":64,"depth":3}`},
	} {
		mustCreate(t, ts.URL, "acme", sk.spec)
		url := ts.URL + "/v1/acme/sketches/" + sk.name
		if resp, body := ingest(t, url+"/ingest", frame(t, []int{1, 7, 9}, []float64{4, 2, -3})); resp.StatusCode != 200 {
			t.Fatalf("%s: valid ingest: got %d (%s)", sk.name, resp.StatusCode, body)
		}
		query := url + "/query?i=1&i=7&i=9&i=100"
		_, before := do(t, "GET", query, "")
		for _, bad := range []struct {
			name   string
			deltas []float64
		}{
			{"+Inf", []float64{1, math.Inf(1)}},
			{"-Inf", []float64{math.Inf(-1), 1}},
			{"±Inf pair", []float64{math.Inf(1), math.Inf(-1)}},
		} {
			resp, body := ingest(t, url+"/ingest", frame(t, []int{7, 7}, bad.deltas))
			if resp.StatusCode != 400 || !strings.Contains(body, "not finite") {
				t.Fatalf("%s: %s delta: got %d (%s), want 400 naming the infinite delta", sk.name, bad.name, resp.StatusCode, body)
			}
		}
		if resp, after := do(t, "GET", query, ""); resp.StatusCode != 200 || after != before {
			t.Errorf("%s: answers moved after rejected batches: %s, was %s", sk.name, after, before)
		}
	}
}

// panicHandle stands in for a poisoned sketch: every query panics.
type panicHandle struct{}

func (panicHandle) kind() string { return "plain" }
func (panicHandle) algo() string { return "countmin" }
func (panicHandle) dim() int     { return 10 }
func (panicHandle) words() int   { return 10 }
func (panicHandle) updateBatch(int, []int, []float64) error {
	panic("poisoned update")
}
func (panicHandle) queryBatch([]int, []float64) error { panic("poisoned query") }
func (panicHandle) topK(int) ([]repro.Deviator, error) {
	panic("poisoned topk")
}
func (panicHandle) checkpoint(io.Writer) error { return nil }

// A panicking handler becomes a 500 and the process keeps serving —
// other sketches, and even the next request to the poisoned one.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mustCreate(t, ts.URL, "acme", `{"name":"ok","kind":"plain","algo":"countmin","dim":10,"words":32,"depth":2}`)
	s.reg.put(&entry{tenant: "acme", name: "bad", spec: Spec{Kind: "plain"}, h: panicHandle{}}, false)

	for i := 0; i < 2; i++ {
		resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/bad/query?i=1", "")
		if resp.StatusCode != 500 || !strings.Contains(body, "internal error") {
			t.Fatalf("poisoned query #%d: %s %s", i, resp.Status, body)
		}
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/acme/sketches/ok/query?i=1", ""); resp.StatusCode != 200 {
		t.Errorf("healthy sketch stopped serving after panic: %d", resp.StatusCode)
	}
}

// Limiter shed: with the tenant's only slot held, requests shed with
// 429 + Retry-After; releasing the slot restores service; other
// tenants are unaffected throughout.
func TestLimiterShedsPerTenant(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	mustCreate(t, ts.URL, "acme", `{"name":"s","kind":"plain","algo":"countmin","dim":10,"words":32,"depth":2}`)
	mustCreate(t, ts.URL, "beta", `{"name":"s","kind":"plain","algo":"countmin","dim":10,"words":32,"depth":2}`)

	if !s.lim.acquire("acme") {
		t.Fatal("fresh limiter refused the first slot")
	}
	resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/s/query?i=1", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: got %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/beta/sketches/s/query?i=1", ""); resp.StatusCode != 200 {
		t.Errorf("other tenant shed too: %d", resp.StatusCode)
	}
	s.lim.release("acme")
	if resp, _ := do(t, "GET", ts.URL+"/v1/acme/sketches/s/query?i=1", ""); resp.StatusCode != 200 {
		t.Errorf("released tenant still shed: %d", resp.StatusCode)
	}
}

func TestLimiterCounting(t *testing.T) {
	l := &limiter{max: 2, inflight: make(map[string]int)}
	if !l.acquire("t") || !l.acquire("t") {
		t.Fatal("limiter refused slots under cap")
	}
	if l.acquire("t") {
		t.Fatal("limiter granted a slot over cap")
	}
	if !l.acquire("u") {
		t.Fatal("cap leaked across tenants")
	}
	l.release("t")
	if !l.acquire("t") {
		t.Fatal("released slot not reusable")
	}
	if len(l.inflight) != 2 {
		t.Fatalf("inflight map: %v", l.inflight)
	}
	l.release("t")
	l.release("t")
	l.release("u")
	if len(l.inflight) != 0 {
		t.Fatalf("idle tenants not evicted: %v", l.inflight)
	}

	unlimited := &limiter{max: 0}
	for i := 0; i < 100; i++ {
		if !unlimited.acquire("t") {
			t.Fatal("unlimited limiter shed")
		}
	}
}

// Draining: tenant routes 503, healthz keeps answering and reports it.
func TestDrainingGate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mustCreate(t, ts.URL, "acme", `{"name":"s","kind":"plain","algo":"countmin","dim":10,"words":32,"depth":2}`)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/acme/sketches/s/query?i=1", ""); resp.StatusCode != 503 {
		t.Errorf("draining tenant route: %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, "POST", ts.URL+"/v1/checkpoint", ""); resp.StatusCode != 503 {
		t.Errorf("draining checkpoint route: %d, want 503", resp.StatusCode)
	}
	resp, body := do(t, "GET", ts.URL+"/healthz", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"draining":true`) {
		t.Errorf("healthz while draining: %s %s", resp.Status, body)
	}
	if err := s.Drain(); err != nil { // idempotent
		t.Fatalf("second drain: %v", err)
	}
}

// The checkpoint scheduler writes the layout — tenant directory,
// container, sidecar — without being asked, and a fresh server
// restores from it.
func TestCheckpointSchedulerAndRestore(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, CheckpointEvery: 10 * time.Millisecond})
	mustCreate(t, ts.URL, "acme", `{"name":"s","kind":"sharded","algo":"countmin","dim":100,"words":64,"depth":2,"seed":9}`)
	if resp, body := ingest(t, ts.URL+"/v1/acme/sketches/s/ingest",
		frame(t, []int{3, 3, 4}, []float64{5, 5, 7})); resp.StatusCode != 200 {
		t.Fatalf("ingest: %d (%s)", resp.StatusCode, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "acme", "s.g*.ckpt")); len(m) > 0 {
			if _, err := os.Stat(filepath.Join(dir, "acme", "s.json")); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never wrote the checkpoint pair")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, body := do(t, "GET", ts2.URL+"/v1/acme/sketches/s/query?i=3&i=4", "")
	if resp.StatusCode != 200 {
		t.Fatalf("restored query: %s %s", resp.Status, body)
	}
	var q struct{ Estimates []float64 }
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if q.Estimates[0] < 10 || q.Estimates[1] < 7 {
		t.Errorf("restored estimates %v, want >= [10 7]", q.Estimates)
	}
	resp, body = do(t, "GET", ts2.URL+"/v1/acme/sketches/s", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"sharded"`) {
		t.Errorf("restored info: %s %s", resp.Status, body)
	}
}

// Every kind round-trips through its checkpoint: plain l2sr, plain
// counterbraids, and windowed (sharded is covered above and in the
// soak).
func TestCheckpointRestoreAllKinds(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir})
	mustCreate(t, ts.URL, "acme", `{"name":"dense","kind":"plain","algo":"l2sr","dim":1000,"words":256,"seed":1}`)
	mustCreate(t, ts.URL, "acme", `{"name":"braid","kind":"plain","algo":"counterbraids","dim":1000}`)
	mustCreate(t, ts.URL, "acme", `{"name":"win","kind":"windowed","algo":"countmin","dim":1000,"words":128,"depth":2,"panes":4,"pane_width_ms":3600000}`)

	for _, name := range []string{"dense", "braid", "win"} {
		if resp, body := ingest(t, ts.URL+"/v1/acme/sketches/"+name+"/ingest",
			frame(t, []int{11, 11, 12}, []float64{4, 4, 9})); resp.StatusCode != 200 {
			t.Fatalf("%s ingest: %d (%s)", name, resp.StatusCode, body)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{DataDir: dir})
	for _, name := range []string{"dense", "braid", "win"} {
		resp, body := do(t, "GET", ts2.URL+"/v1/acme/sketches/"+name+"/query?i=11", "")
		if resp.StatusCode != 200 {
			t.Fatalf("%s restored query: %s %s", name, resp.Status, body)
		}
		var q struct{ Estimates []float64 }
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		if q.Estimates[0] < 7 {
			t.Errorf("%s restored estimate %v, want >= 8-ish", name, q.Estimates[0])
		}
	}
	// The restored braid must still be insert-only.
	if resp, _ := ingest(t, ts2.URL+"/v1/acme/sketches/braid/ingest",
		frame(t, []int{1}, []float64{-1})); resp.StatusCode != 400 {
		t.Errorf("restored braid accepted a negative delta: %d", resp.StatusCode)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "A-1_b", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "../etc", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// POST /v1/checkpoint forces a pass immediately; topk serves from
// every kind; Draining() reports the gate.
func TestManualCheckpointAndTopKKinds(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir})
	mustCreate(t, ts.URL, "acme", `{"name":"p","kind":"plain","algo":"l2sr","dim":500,"words":256,"seed":2}`)
	mustCreate(t, ts.URL, "acme", `{"name":"w","kind":"windowed","algo":"l2sr","dim":500,"words":256,"panes":4,"pane_width_ms":3600000}`)
	mustCreate(t, ts.URL, "acme", `{"name":"nb","kind":"plain","algo":"cmcu","dim":500,"words":256,"depth":3}`)

	for _, name := range []string{"p", "w"} {
		if resp, body := ingest(t, ts.URL+"/v1/acme/sketches/"+name+"/ingest",
			frame(t, []int{9, 9, 9}, []float64{50, 50, 50})); resp.StatusCode != 200 {
			t.Fatalf("%s ingest: %d (%s)", name, resp.StatusCode, body)
		}
		resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/"+name+"/topk?k=1", "")
		if resp.StatusCode != 200 || !strings.Contains(body, `"index":9`) {
			t.Errorf("%s topk: %s %s", name, resp.Status, body)
		}
		resp, body = do(t, "GET", ts.URL+"/v1/acme/sketches/"+name+"/range?lo=0&hi=20", "")
		if resp.StatusCode != 200 {
			t.Errorf("%s range: %s %s", name, resp.Status, body)
		}
	}
	// cmcu keeps no bias estimate: topk is a client error, not a 500.
	if resp, body := do(t, "GET", ts.URL+"/v1/acme/sketches/nb/topk?k=1", ""); resp.StatusCode != 400 {
		t.Errorf("biasless topk: %d (%s), want 400", resp.StatusCode, body)
	}

	resp, body := do(t, "POST", ts.URL+"/v1/checkpoint", "")
	if resp.StatusCode != 200 || !strings.Contains(body, `"checkpointed":3`) {
		t.Fatalf("manual checkpoint: %s %s", resp.Status, body)
	}
	for _, name := range []string{"p", "w", "nb"} {
		if _, err := os.Stat(filepath.Join(dir, "acme", name+".g1.ckpt")); err != nil {
			t.Errorf("checkpoint for %s missing: %v", name, err)
		}
	}
	if s.Draining() {
		t.Error("Draining() true before Drain")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}
}

// A corrupted data directory must fail the boot loudly, not serve a
// half-restored registry.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	cases := []struct {
		name    string
		sidecar string
		ckpt    string
	}{
		{"garbage container", `{"kind":"sharded","algo":"l2sr","dim":10}`, "not a container"},
		{"bad sidecar json", `{"kind":`, ""},
		{"unknown kind", `{"kind":"fancy","algo":"l2sr","dim":10}`, ""},
		{"kind mismatch", `{"kind":"windowed","algo":"l2sr","dim":10}`, ""},
	}
	var sharded bytes.Buffer
	sh, err := repro.NewSharded(2, "l2sr", repro.WithDim(10), repro.WithWords(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Checkpoint(&sharded); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tdir := filepath.Join(dir, "acme")
			if err := os.MkdirAll(tdir, 0o755); err != nil {
				t.Fatal(err)
			}
			ckpt := tc.ckpt
			if ckpt == "" {
				ckpt = sharded.String()
			}
			if err := os.WriteFile(filepath.Join(tdir, "s.json"), []byte(tc.sidecar), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(tdir, "s.ckpt"), []byte(ckpt), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := New(Config{DataDir: dir}); err == nil {
				t.Fatal("corrupt checkpoint booted without error")
			}
		})
	}
	// Stray files that are not sidecars are ignored, not fatal.
	dir := t.TempDir()
	tdir := filepath.Join(dir, "acme")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir}); err != nil {
		t.Fatalf("stray file broke the boot: %v", err)
	}
}
