// Command sketchtool builds a sketch over a frequency vector read from
// a file (one value per line, as written by cmd/datagen) and either
// answers point queries or reports recovery quality against the exact
// vector.
//
// Usage:
//
//	sketchtool -in data.txt -algo l2sr [-s 4096] [-d 9] [-seed 1] \
//	           [-query 3,17,99] [-stats] [-save sketch.bin]
//
// Algorithms are the repro.New registry names (l1sr, l2sr, l1mean,
// l2mean, countmin, countmedian, countsketch, cmcu, cmlcu, dengrafiei)
// or the paper's legend aliases (cm, cs, ...). -save writes the sketch
// in the repro wire format (repro.Encode); repro.Decode loads it back.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sketchtool: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sketchtool", flag.ContinueOnError)
	in := fs.String("in", "", "input vector file (one value per line)")
	algo := fs.String("algo", "l2sr", "algorithm (see repro.Algorithms)")
	s := fs.Int("s", 4096, "buckets per row")
	d := fs.Int("d", 9, "depth")
	seed := fs.Int64("seed", 1, "random seed")
	query := fs.String("query", "", "comma-separated coordinate indexes to query")
	stats := fs.Bool("stats", false, "report avg/max recovery error and compression")
	save := fs.String("save", "", "write the sketch to this file (repro wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	x, err := workload.ReadVectorFile(*in)
	if err != nil {
		return err
	}

	sk, err := repro.New(*algo,
		repro.WithDim(len(x)), repro.WithWords(*s), repro.WithDepth(*d), repro.WithSeed(*seed))
	if err != nil {
		return err
	}
	if err := repro.SketchVector(sk, x); err != nil {
		return err
	}
	fmt.Fprintf(out, "sketched %s: n=%d words=%d (%.1fx compression)\n",
		sk.Algo(), len(x), sk.Words(), float64(len(x))/float64(sk.Words()))

	if *query != "" {
		for _, tok := range strings.Split(*query, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || i < 0 || i >= len(x) {
				return fmt.Errorf("bad index %q", tok)
			}
			fmt.Fprintf(out, "x[%d]: exact=%g estimate=%g\n", i, x[i], sk.Query(i))
		}
	}
	if *stats {
		xhat := repro.Recover(sk)
		fmt.Fprintf(out, "avg error = %g\nmax error = %g\n",
			repro.AvgAbsErr(x, xhat), repro.MaxAbsErr(x, xhat))
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := repro.Encode(f, sk); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved sketch to %s\n", *save)
	}
	return nil
}
