package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when the test binary is started as qosplan
// by TestPlanPrintsTheClosedForms, with the arguments after "--".
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "--" && os.Getenv("QOSPLAN_TEST_MAIN") == "1" {
			os.Args = append([]string{"qosplan"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestPlanPrintsTheClosedForms pins the Table 1 numbers EXPERIMENTS.md
// quotes from qosplan (§2.3 and §4.1): u = 0.683, WFQ's Σσ = 600 KB
// against FIFO+BM's 1.89 MB (inflation 3.16, eq. 10), and for the
// Case 1 grouping the Prop. 3 shares α = (0.222, 0.627, 0.151), rates
// (9.37, 33.5, 5.1) Mb/s, per-queue minima (417 KB, 1.06 MB, 332 KB)
// and a 1.81 MB hybrid total saving 89.6 KB (eq. 17); and the eq. 10
// curve's point at u = 0.683.
func TestPlanPrintsTheClosedForms(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-workload", "table1"}, []string{
			"reserved utilization u = 0.683",
			"minimum lossless buffer, WFQ (eq. 6):  600KB",
			"minimum lossless buffer, FIFO (eq. 9): 1.89MB  (inflation 1/(1-u) = 3.16)",
			"0.2217     9.37Mb/s    417KB",
			"0.6269     33.5Mb/s    1.06MB",
			"0.1514     5.1Mb/s     332KB",
			"hybrid total buffer (eq. 19): 1.81MB",
			"savings vs single FIFO (eq. 17): 89.6KB",
		}},
		{[]string{"-curve"}, []string{"0.683  3.15"}},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, c.args...)...)
		cmd.Env = append(os.Environ(), "QOSPLAN_TEST_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("qosplan %v: %v", c.args, err)
		}
		for _, w := range c.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("qosplan %v does not print %q:\n%s", c.args, w, out)
			}
		}
	}
}
