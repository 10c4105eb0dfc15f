package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func writeVector(t *testing.T, vals string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "v.txt")
	if err := os.WriteFile(path, []byte(vals), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueriesAndStats(t *testing.T) {
	path := writeVector(t, "100\n101\n99\n500\n100\n98\n102\n100\n99\n101\n")
	var out bytes.Buffer
	err := run([]string{"-in", path, "-algo", "l2sr", "-s", "8", "-d", "3",
		"-query", "0,3", "-stats"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"sketched l2sr", "x[0]:", "x[3]: exact=500", "avg error", "max error"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeVector(t, "1\n2\n")
	cases := map[string][]string{
		"missing in":    {"-algo", "cm"},
		"unknown algo":  {"-in", path, "-algo", "bogus"},
		"bad index":     {"-in", path, "-algo", "cm", "-query", "zzz"},
		"index too big": {"-in", path, "-algo", "cm", "-query", "99"},
		"missing file":  {"-in", filepath.Join(t.TempDir(), "none.txt")},
	}
	for name, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunSaveProducesLoadableSketch(t *testing.T) {
	path := writeVector(t, strings.Repeat("100\n", 200))
	saved := filepath.Join(t.TempDir(), "sk.bin")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "cs", "-s", "16", "-d", "3",
		"-save", saved}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(saved)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sk, err := repro.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Algo() != "countsketch" || sk.Dim() != 200 {
		t.Errorf("loaded algo=%s dim=%d, want countsketch/200", sk.Algo(), sk.Dim())
	}
	if got := sk.Query(5); got < 50 || got > 150 {
		t.Errorf("loaded sketch Query(5) = %f, want ≈100", got)
	}
}

func TestRunAllAlgoNamesConstructible(t *testing.T) {
	path := writeVector(t, strings.Repeat("7\n", 100))
	for _, name := range repro.Algorithms() {
		if err := run([]string{"-in", path, "-algo", name, "-s", "8", "-d", "2"}, &bytes.Buffer{}); err != nil {
			t.Errorf("algo %s: %v", name, err)
		}
	}
	// The paper's legend names stay accepted as aliases.
	for _, alias := range []string{"cm", "cs", "CM-CU", "l2-S/R", "Deng-Rafiei"} {
		if err := run([]string{"-in", path, "-algo", alias, "-s", "8", "-d", "2"}, &bytes.Buffer{}); err != nil {
			t.Errorf("alias %s: %v", alias, err)
		}
	}
}
