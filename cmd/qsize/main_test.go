package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is started as qsize
// by TestBadWarmupExits, with the arguments after "--".
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "--" && os.Getenv("QSIZE_TEST_MAIN") == "1" {
			os.Args = append([]string{"qsize"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestBadWarmupExits: a NaN or negative warm-up, or one past the
// horizon, exits 1 naming the warm-up before any cell runs, where it
// once printed a table and exited 0.
func TestBadWarmupExits(t *testing.T) {
	for _, w := range []string{"NaN", "-3", "5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$", "--", "-flows", "8", "-warmup", w, "-duration", "2")
		cmd.Env = append(os.Environ(), "QSIZE_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Errorf("-warmup %s: %v, want exit status 1\n%s", w, err, out)
			continue
		}
		if want := "warmup " + w + " is outside [0, duration 2)"; !strings.Contains(string(out), want) {
			t.Errorf("-warmup %s: output %q, want it to say %q", w, out, want)
		}
	}
}
