package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro"
)

// Tiny shapes: every workload's full code path in well under a second.
var (
	embedTiny = embedShape{
		n: 1 << 12, s: 256, d: 5,
		batch: 256, queryKeys: 64, queryEvery: 4, topkEvery: 4, k: 4,
		prefill: 4, setups: 2, cyclesPerSecond: 12,
	}
	serveTiny = serveShape{
		n: 1 << 12, s: 256, d: 5, tenants: 2, shards: 2,
		frame: 64, framesPerCycle: 2, queryKeys: 8, probeKeys: 32, topkEvery: 2, k: 4,
		prefillFrames: 2, setups: 2, cyclesPerSecond: 8,
	}
	monitorTiny = monitorShape{
		n: 1 << 12, s: 64, d: 3, sites: 8, hotEvery: 4, syncEvery: 16,
		fanIn: 2, shards: 2, checkpointEvery: 2, rounds: 6,
		churn:     []repro.MonitorRestart{{Round: 3, Site: 1}},
		queryKeys: 8, topkEvery: 3, k: 4, probeKeys: 64,
		sessionsPerSecond: 2,
	}
)

// sketchdBin builds sketchd from the repository once per test binary.
var sketchdBin string

func buildSketchd(t *testing.T) string {
	t.Helper()
	if sketchdBin != "" {
		return sketchdBin
	}
	dir, err := os.MkdirTemp("", "sketchd")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "sketchd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sketchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sketchd: %v\n%s", err, out)
	}
	sketchdBin = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sketchdBin != "" {
		os.RemoveAll(filepath.Dir(sketchdBin))
	}
	os.Exit(code)
}

// runTiny runs one workload at its tiny shape.
func runTiny(t *testing.T, workload string, seed int64, trace, corrupt bool) *result {
	t.Helper()
	dir := t.TempDir()
	cfg := runConfig{workload: workload, seed: seed, seconds: 1, trace: trace, corrupt: corrupt,
		work: dir, tracePath: filepath.Join(dir, "trace.json")}
	var res *result
	var err error
	switch workload {
	case "embed":
		res, err = runEmbed(cfg, embedTiny)
	case "serve":
		cfg.sketchd = buildSketchd(t)
		res, err = runServe(cfg, serveTiny)
	case "monitor":
		res, err = runMonitor(cfg, monitorTiny)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return res
}

var workloads = []string{"embed", "serve", "monitor"}

// TestMetricsNamedWithUnits checks that an untraced run prints every
// end-to-end metric and a traced run every per-layer metric, by name
// with its unit, and that BENCHMARK.json declares the same lists.
func TestMetricsNamedWithUnits(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, wl, 1, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl, trace, m.name, got, ok, m.unit)
				}
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v", wl, res.Metrics["ok_frac"].Value)
			}
			// The result line has exactly the four keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result keys %v (%v)", wl, keys, err)
			}
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for i, wl := range workloads {
		if i >= len(bf.Workloads) || bf.Workloads[i].Name != wl {
			t.Errorf("BENCHMARK.json workload %d: want %s", i, wl)
		}
	}
	declared := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark prints %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d = %s %s, want %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	declared("end_to_end", bf.EndToEnd, endToEnd)
	declared("per_layer", bf.PerLayer, perLayer)
}

// TestCountMetricsRepeat checks that the count metrics repeat exactly
// for one seed and differ for another.
func TestCountMetricsRepeat(t *testing.T) {
	for _, wl := range workloads {
		a := runTiny(t, wl, 3, false, false).Metrics["avg_abs_err"].Value
		b := runTiny(t, wl, 3, false, false).Metrics["avg_abs_err"].Value
		c := runTiny(t, wl, 4, false, false).Metrics["avg_abs_err"].Value
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: avg_abs_err %v then %v for one seed", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: avg_abs_err %v for seeds 3 and 4", wl, a)
		}
	}
	// Every shard of every site changes every round, so each frame
	// carries whole dense shard states and the bytes per round follow
	// from the shape alone: they repeat for every seed.
	comm := func(seed int64) float64 {
		return runTiny(t, "monitor", seed, true, false).Metrics["distributed.comm_bytes_per_round"].Value
	}
	if a, b := comm(3), comm(3); a != b || a == 0 {
		t.Errorf("comm_bytes_per_round %v then %v for one seed", a, b)
	}
}

// TestCorruptAnswerFails checks that a wrong answer fails the output
// checks and lowers ok_frac.
func TestCorruptAnswerFails(t *testing.T) {
	for _, wl := range workloads {
		res := runTiny(t, wl, 1, false, true)
		if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: corrupted answers passed: correct=%v failed=%d ok_frac=%v",
				wl, res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if !twoClusters([]float64{10, 10.1, 10.2, 10.1, 12, 12.1, 12.2, 12.1}) {
		t.Error("two clusters not flagged")
	}
	if twoClusters([]float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7}) {
		t.Error("one cluster flagged")
	}
}
