// Command benchmark drives the repro stack through three seeded,
// closed-loop workloads and prints one JSON result line:
//
//	embed    the library in process: resume an l2sr from a checkpoint,
//	         then batched ingest with interleaved point and top-k queries
//	serve    the sketchd binary over loopback HTTP: 4 sharded l2sr tenants
//	         restored from a data directory, wire-v2 ingest frames, and a
//	         point query (plus a periodic top-k) after every burst of writes
//	monitor  repro.Monitor: an l1sr aggregation tree of 32 sites shipping
//	         delta frames, with site checkpoints and a fixed churn schedule
//
// Run it from the repository root through run.sh, which builds sketchd
// and this program from the checkout first:
//
//	bash benchmark/run.sh --workload embed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run replays every operation on in-process twins, times
// each module's exported calls as spans, writes the spans as JSON and
// reports the per-layer metrics instead. --report N runs every workload
// N times (seeds 1..N) and prints the steadiness report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what one workload run receives from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sketchd  string // path of the sketchd binary (serve only)
	work     string // scratch directory inside the checkout
	// tracePath is where a traced run writes its spans.
	tracePath string
	// corrupt perturbs the answers the output checks see; the tests
	// use it to show that a wrong answer fails the run.
	corrupt bool
}

func main() {
	var cfg runConfig
	var traceFlag, report int
	flag.StringVar(&cfg.workload, "workload", "", "workload: embed, serve or monitor")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds; fixes the op count at this machine's calibrated rate")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays every op on twins and reports per-layer metrics")
	flag.StringVar(&cfg.sketchd, "sketchd", ".bench_build/bin/sketchd", "sketchd binary built from this checkout")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for data directories and traces")
	flag.IntVar(&report, "report", 0, "run every workload this many times and print the steadiness report")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if report > 0 {
		if err := steadinessReport(os.Stdout, cfg, report); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	start := time.Now()
	res, err := run(cfg)
	fmt.Fprintf(os.Stderr, "%s seed %d: %.1fs in all\n", cfg.workload, cfg.seed, time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload at its full shape.
func run(cfg runConfig) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	cfg.work = filepath.Join(work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	cfg.tracePath = cfg.work + ".trace.json"
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	switch cfg.workload {
	case "embed":
		return runEmbed(cfg, embedFull)
	case "serve":
		return runServe(cfg, serveFull)
	case "monitor":
		return runMonitor(cfg, monitorFull)
	}
	return nil, fmt.Errorf("unknown --workload %q (valid: embed, serve, monitor)", cfg.workload)
}
