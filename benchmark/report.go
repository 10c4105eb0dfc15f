package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// twoClusters reports whether the sorted runs split at one gap wider
// than the range of the runs on either side of it, with at least three
// runs a side and the gap over 5% of the median: the pattern of a
// metric whose runs land in one of two modes.
func twoClusters(xs []float64) bool {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	for k := 3; k <= n-3; k++ {
		gap := s[k] - s[k-1]
		within := math.Max(s[k-1]-s[0], s[n-1]-s[k])
		if gap > within && gap > 0.05*math.Abs(med) {
			return true
		}
	}
	return false
}

// steadinessReport runs every workload of BENCHMARK.json n times, with
// seeds cfg.seed .. cfg.seed+n-1, and prints each end-to-end metric's
// median, quartiles, range and spread against its bound.
func steadinessReport(w io.Writer, cfg runConfig, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, wl := range bf.Workloads {
			names = append(names, wl.Name)
		}
	}
	failed := false
	for _, wl := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", "0",
				"-sketchd", cfg.sketchd, "-work", cfg.work)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct {
				failed = true
				fmt.Fprintf(w, "%s seed %d: incorrect (%d of %d failed)\n", wl, seed, res.Failed, res.Attempted)
			}
			var row bytes.Buffer
			fmt.Fprintf(&row, "%s seed %d:", wl, seed)
			for _, m := range bf.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				fmt.Fprintf(&row, " %s=%.6g", m.Name, v)
			}
			fmt.Fprintln(os.Stderr, row.String())
		}
		fmt.Fprintf(w, "\n%s: %d runs, seeds %d..%d, %gs each\n", wl, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
		fmt.Fprintf(w, "%-20s %12s %12s %12s %12s %12s %8s %6s %7s  %s\n",
			"metric", "median", "q1", "q3", "min", "max", "spread", "bound", "/bound", "flag")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			q1, med, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			flag := "ok"
			switch {
			case twoClusters(xs):
				flag = "TWO CLUSTERS"
			case m.Name != "setup_s" && spread > m.Bound:
				flag = "OVER BOUND"
			case m.Name != "setup_s" && spread > m.Bound/3:
				flag = "over bound/3"
			}
			fmt.Fprintf(w, "%-20s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %6.3g %7.3f  %s\n",
				m.Name, med, q1, q3, lo, hi, spread, m.Bound, spread/m.Bound, flag)
		}
	}
	if failed {
		return fmt.Errorf("some runs failed their output checks")
	}
	return nil
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
