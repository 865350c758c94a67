package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is started as qnet by
// TestBadSchemeParameterExits, with the arguments after "--".
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "--" && os.Getenv("QNET_TEST_MAIN") == "1" {
			os.Args = append([]string{"qnet"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestBadSchemeParameterExits: tandem3 with a link scheme whose
// parameter is out of range exits 1 naming the parameter, where a NaN
// threshold scale and a negative sharing headroom once panicked in a
// buffer constructor during Validate's trial build.
func TestBadSchemeParameterExits(t *testing.T) {
	scenario, err := os.ReadFile("../../topologies/tandem3.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to, want string }{
		{`"fifo+threshold"`, `"fifo+threshold?scale=NaN"`, "parameter scale=NaN is not a finite number"},
		{`"wfq+sharing"`, `"wfq+sharing?headroom=-1"`, "parameter headroom=-1 is not in [0, 1]"},
	} {
		bad := strings.ReplaceAll(string(scenario), c.from, c.to)
		if bad == string(scenario) {
			t.Fatalf("tandem3.json has no %s link", c.from)
		}
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run=^$", "--", "-topology", path, "-duration", "1")
		cmd.Env = append(os.Environ(), "QNET_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit status 1\n%s", c.to, err, out)
			continue
		}
		if strings.Contains(string(out), "panic") || !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output %q, want it to say %q and not panic", c.to, out, c.want)
		}
	}
}
