package report

import (
	"fmt"
	"io"
)

// Assertion is one machine-checked guarantee about a finished run: a
// short name, a human-readable detail line, and a nil Err when the
// guarantee held. Unlike Check, which re-simulates a paper figure, an
// Assertion judges measurements the caller already has — the topology
// engine emits one per per-flow/per-link guarantee of a scenario run.
type Assertion struct {
	// Name identifies the guarantee, e.g. "zero-conformant-loss".
	Name string
	// Detail says what was measured, e.g. "flow video over hop a->b".
	Detail string
	// Err is nil when the assertion held, else the violation.
	Err error
}

// Checkf returns nil when ok, else the formatted violation: the Err of
// an Assertion whose guarantee is a single comparison.
func Checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// Failed reports whether the assertion was violated.
func (a Assertion) Failed() bool { return a.Err != nil }

// WriteAssertions writes one PASS/FAIL line per assertion in the same
// layout as Run's check report, and returns how many failed.
func WriteAssertions(w io.Writer, as []Assertion) int {
	failed := 0
	for _, a := range as {
		status := "PASS"
		if a.Failed() {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-4s %-34s %s\n", status, a.Name, a.Detail)
		if a.Err != nil {
			fmt.Fprintf(w, "      -> %v\n", a.Err)
		}
	}
	return failed
}
