// Command benchjson regenerates the checked-in benchmark baseline
// (BENCH_11.json): it runs the curated ingestion/serving/codec
// benchmarks at the paper's §5.1 shape (s=4096, d=9) with -benchmem
// and writes the parsed results as stable, machine-readable JSON.
// Besides the in-process paths, the set includes the served ingestion
// path (BenchmarkIngestEndpoint): one wire-v2 batch per op through the
// sketchd HTTP handler stack, so the serving tax over the in-process
// batched path stays visible. It also includes the
// distributed-monitoring fabric (BenchmarkMonitorRound): one complete
// continuous-monitoring run per op, with the custom comm-B/round and
// comm-words/round metrics comparing delta shipping against the
// full-state baseline.
//
// The update/query benchmarks count one vector element per op, so
// ns/op is already normalized per element and directly comparable
// between the element-wise and batched paths; allocs/op on the batched
// and snapshot serving paths is the number the //sketch:hotpath
// contract pins to zero (see the AllocsPerRun gates in alloc_test.go
// files).
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_11.json] [-benchtime 0.3s] [-bench regexp]
//	go run ./cmd/benchjson -diff [-threshold 10] OLD.json NEW.json
//
// The -diff mode compares two committed baselines: it prints the
// per-benchmark ns/op delta for every entry present in both files
// (plus entries that appeared or disappeared) and exits non-zero if
// any shared benchmark slowed down by more than -threshold percent —
// the regression gate the CI baseline-diff step runs non-blocking on
// every PR.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// defaultBench selects the curated baseline set: per-algorithm update
// and query paths (element-wise and batched), the wire-format
// encode/decode round trip, the facade merge, the served ingestion
// path, and the monitoring round.
const defaultBench = "^(BenchmarkUpdate|BenchmarkUpdateBatch|BenchmarkQuery|BenchmarkQueryBatch|BenchmarkEncode|BenchmarkDecode|BenchmarkMerge|BenchmarkIngestEndpoint|BenchmarkMonitorRound)$"

// defaultPackages are the benchmark homes: internal/bench holds the
// per-algorithm paths, bench the facade/codec paths, internal/server
// the served ingestion path.
var defaultPackages = []string{"./internal/bench", "./bench", "./internal/server"}

// Entry is one parsed benchmark result.
type Entry struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Monitoring-fabric metrics (BenchmarkMonitorRound): encoded frame
	// bytes / sketch words shipped per synchronization round.
	CommBytesPerRound float64 `json:"comm_bytes_per_round,omitempty"`
	CommWordsPerRound float64 `json:"comm_words_per_round,omitempty"`
}

// Baseline is the BENCH_<n>.json document.
type Baseline struct {
	Note      string  `json:"note"`
	Shape     Shape   `json:"shape"`
	Benchtime string  `json:"benchtime"`
	GoVersion string  `json:"go_version"`
	Entries   []Entry `json:"entries"`
}

// Shape records the paper's §5.1 benchmark configuration.
type Shape struct {
	N     int `json:"n"`
	Words int `json:"words"`
	Depth int `json:"depth"`
}

func main() {
	out := flag.String("out", "BENCH_11.json", "output file")
	benchtime := flag.String("benchtime", "0.3s", "go test -benchtime value")
	benchRe := flag.String("bench", defaultBench, "go test -bench regexp")
	diff := flag.Bool("diff", false, "compare two baseline files (OLD.json NEW.json) instead of running benchmarks")
	threshold := flag.Float64("threshold", 10, "with -diff: exit non-zero if any benchmark's ns/op regresses by more than this percentage")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two baseline files: benchjson -diff OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *threshold))
	}

	var entries []Entry
	for _, pkg := range defaultPackages {
		es, err := runPackage(pkg, *benchRe, *benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		entries = append(entries, es...)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	doc := Baseline{
		Note: "ns/op on Update/Query paths is per vector element (batched benchmarks consume one element per op); " +
			"allocs/op on batched and snapshot paths is pinned to 0 by the //sketch:hotpath contract. " +
			"BenchmarkIngestEndpoint is one 512-element wire-v2 batch per op through the sketchd HTTP stack " +
			"(divide ns/op by 512 for the per-element serving cost). " +
			"BenchmarkMonitorRound is one complete distributed-monitoring run per op on a skewed 64-site workload; " +
			"comm_bytes_per_round compares delta shipping against the full-state baseline. " +
			"Regenerate with: go run ./cmd/benchjson",
		Shape:     Shape{N: 1_000_000, Words: 4096, Depth: 9},
		Benchtime: *benchtime,
		GoVersion: goVersion(),
		Entries:   entries,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d entries to %s\n", len(entries), *out)
}

// runPackage runs one package's benchmarks and parses the output.
func runPackage(pkg, benchRe, benchtime string) ([]Entry, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRe,
		"-benchmem", "-benchtime", benchtime, pkg)
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var entries []Entry
	sc := bufio.NewScanner(&outBuf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if e, ok := parseLine(pkg, sc.Text()); ok {
			entries = append(entries, e)
		}
	}
	return entries, sc.Err()
}

// parseLine parses one `go test -bench` result line of the form
//
//	BenchmarkName/sub-8   12345   678.9 ns/op   0 B/op   0 allocs/op
func parseLine(pkg, line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Package: pkg, Name: trimGOMAXPROCS(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		case "MB/s":
			e.MBPerSec = v
		case "comm-B/round":
			e.CommBytesPerRound = v
		case "comm-words/round":
			e.CommWordsPerRound = v
		}
	}
	if e.NsPerOp == 0 {
		return Entry{}, false
	}
	return e, true
}

// trimGOMAXPROCS drops the trailing -N processor-count suffix so the
// baseline diffs cleanly across machines with different core counts.
func trimGOMAXPROCS(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// loadBaseline reads one committed baseline document.
func loadBaseline(path string) (Baseline, error) {
	var doc Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// benchKey identifies a benchmark across baselines.
type benchKey struct{ Pkg, Name string }

// runDiff compares two baselines and returns the process exit code:
// 0 when no shared benchmark regressed past the threshold, 1 when one
// did, 2 on unreadable input.
func runDiff(oldPath, newPath string, threshold float64) int {
	oldDoc, err := loadBaseline(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newDoc, err := loadBaseline(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	oldBy := map[benchKey]Entry{}
	for _, e := range oldDoc.Entries {
		oldBy[benchKey{e.Package, e.Name}] = e
	}
	newBy := map[benchKey]Entry{}
	for _, e := range newDoc.Entries {
		newBy[benchKey{e.Package, e.Name}] = e
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\told ns/op\tnew ns/op\tdelta\n")
	var shared, added, removed int
	var regressions []string
	// Walk the new file in its committed order so the report is stable.
	for _, e := range newDoc.Entries {
		o, ok := oldBy[benchKey{e.Package, e.Name}]
		if !ok {
			added++
			fmt.Fprintf(w, "%s\t-\t%.2f\tnew\n", e.Name, e.NsPerOp)
			continue
		}
		shared++
		pct := (e.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%+.1f%%\n", e.Name, o.NsPerOp, e.NsPerOp, pct)
		if pct > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: %.2f -> %.2f ns/op (%+.1f%% > %.1f%%)",
				e.Name, o.NsPerOp, e.NsPerOp, pct, threshold))
		}
	}
	for _, e := range oldDoc.Entries {
		if _, ok := newBy[benchKey{e.Package, e.Name}]; !ok {
			removed++
			fmt.Fprintf(w, "%s\t%.2f\t-\tremoved\n", e.Name, e.NsPerOp)
		}
	}
	w.Flush()
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed past %.1f%%:\n", len(regressions), threshold)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Printf("benchjson: no regression past %.1f%% (%d shared, %d new, %d removed)\n",
		threshold, shared, added, removed)
	return 0
}

// goVersion returns the toolchain's version string.
func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
