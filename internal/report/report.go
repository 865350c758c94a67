// Package report codifies the paper's qualitative claims about each
// figure as machine-checkable shape assertions. Reproduction is not
// about matching absolute numbers (the substrate differs) but about
// shape: who wins, by roughly what factor, where crossovers fall. Each
// Check pins one such claim; cmd/qcheck evaluates them all against
// freshly simulated figures and fails loudly when a refactor bends a
// curve the wrong way.
package report

import (
	"context"
	"fmt"
	"io"
	"strings"

	"bufqos/internal/experiment"
)

// Check is one shape assertion against a figure.
type Check struct {
	// Figure is the figure ID the check consumes ("fig1" … "fig13").
	Figure string
	// Name is a short identifier for reporting.
	Name string
	// Claim quotes or paraphrases the paper.
	Claim string
	// Verify returns nil when the regenerated figure satisfies the
	// claim.
	Verify func(fig experiment.Figure) error
}

// series fetches a labelled series or errors.
func series(fig experiment.Figure, label string) ([]float64, error) {
	s, ok := fig.SeriesByLabel(label)
	if !ok {
		return nil, fmt.Errorf("series %q missing from %s", label, fig.ID)
	}
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Mean
	}
	return out, nil
}

func last(v []float64) float64  { return v[len(v)-1] }
func first(v []float64) float64 { return v[0] }

// dominates verifies a[i] ≥ b[i] − tol at every sweep point.
func dominates(a, b []float64, tol float64) error {
	for i := range a {
		if a[i] < b[i]-tol {
			return fmt.Errorf("ordering violated at point %d: %.4f < %.4f", i, a[i], b[i])
		}
	}
	return nil
}

// Checks returns the full registry of shape assertions.
func Checks() []Check {
	return []Check{
		{
			Figure: "fig1", Name: "nobm-fills-link",
			Claim: "the FIFO scheduler with no buffer management achieves ~90% utilization with barely 500 KBytes",
			Verify: func(fig experiment.Figure) error {
				fifo, err := series(fig, "FIFO")
				if err != nil {
					return err
				}
				if first(fifo) < 0.85 {
					return fmt.Errorf("no-BM utilization %.3f at smallest buffer, want ≥ 0.85", first(fifo))
				}
				return nil
			},
		},
		{
			Figure: "fig1", Name: "thresholds-pay-utilization",
			Claim: "threshold schemes require much more buffer to achieve the same utilization",
			Verify: func(fig experiment.Figure) error {
				fifo, err := series(fig, "FIFO")
				if err != nil {
					return err
				}
				thr, err := series(fig, "FIFO+thresholds")
				if err != nil {
					return err
				}
				wfqThr, err := series(fig, "WFQ+thresholds")
				if err != nil {
					return err
				}
				if err := dominates(fifo, thr, 0.005); err != nil {
					return fmt.Errorf("no-BM should dominate thresholds: %w", err)
				}
				if err := dominates(thr, wfqThr, 0.01); err != nil {
					return fmt.Errorf("FIFO+thr should not trail WFQ+thr: %w", err)
				}
				return nil
			},
		},
		{
			Figure: "fig2", Name: "nobm-always-loses",
			Claim: "without buffer management, aggressive flows cause conformant losses regardless of buffer size",
			Verify: func(fig experiment.Figure) error {
				fifo, err := series(fig, "FIFO")
				if err != nil {
					return err
				}
				// The largest-buffer loss is transient-sensitive (short
				// runs barely fill a 5 MB buffer), so require clear loss
				// at the small end and strictly positive loss at the
				// large end.
				if first(fifo) < 0.02 {
					return fmt.Errorf("no-BM conformant loss %.4f at smallest buffer, want > 0.02", first(fifo))
				}
				if last(fifo) <= 0 {
					return fmt.Errorf("no-BM conformant loss vanished at the largest buffer")
				}
				return nil
			},
		},
		{
			Figure: "fig2", Name: "thresholds-protect",
			Claim: "FIFO with thresholds achieves near 0 losses with 500 KBytes; WFQ with thresholds with 300 KBytes",
			Verify: func(fig experiment.Figure) error {
				thr, err := series(fig, "FIFO+thresholds")
				if err != nil {
					return err
				}
				wfqThr, err := series(fig, "WFQ+thresholds")
				if err != nil {
					return err
				}
				if last(thr) > 0.001 || last(wfqThr) > 0.001 {
					return fmt.Errorf("threshold losses at largest buffer: %.4f / %.4f, want ≈ 0", last(thr), last(wfqThr))
				}
				// WFQ+thr reaches zero no later than FIFO+thr.
				if err := dominates(thr, wfqThr, 1e-6); err != nil {
					return fmt.Errorf("WFQ+thr should lose no more than FIFO+thr: %w", err)
				}
				return nil
			},
		},
		{
			Figure: "fig3", Name: "wfq-shares-proportionally",
			Claim: "WFQ with thresholds shares excess roughly in the ratio of reserved rates; flow 8 ≫ flow 6",
			Verify: func(fig experiment.Figure) error {
				f6, err := series(fig, "WFQ+thresholds flow6")
				if err != nil {
					return err
				}
				f8, err := series(fig, "WFQ+thresholds flow8")
				if err != nil {
					return err
				}
				ratio := last(f8) / last(f6)
				if ratio < 3 {
					return fmt.Errorf("flow8/flow6 ratio %.2f under WFQ+thr, want ≥ 3 (reservation ratio 5)", ratio)
				}
				return nil
			},
		},
		{
			Figure: "fig4", Name: "sharing-recovers-utilization",
			Claim: "we are quite successful in improving link utilization with the buffer sharing scheme",
			Verify: func(fig experiment.Figure) error {
				share, err := series(fig, "FIFO+sharing")
				if err != nil {
					return err
				}
				if last(share) < 0.98 {
					return fmt.Errorf("FIFO+sharing utilization %.3f at largest buffer, want ≥ 0.98", last(share))
				}
				return nil
			},
		},
		{
			Figure: "fig5", Name: "sharing-keeps-protection",
			Claim: "the increase in throughput does not lead to worse protection for conformant flows",
			Verify: func(fig experiment.Figure) error {
				for _, label := range []string{"FIFO+sharing", "WFQ+sharing"} {
					v, err := series(fig, label)
					if err != nil {
						return err
					}
					if last(v) > 0.005 {
						return fmt.Errorf("%s conformant loss %.4f at largest buffer", label, last(v))
					}
				}
				return nil
			},
		},
		{
			Figure: "fig6", Name: "fifo-sharing-mimics-wfq",
			Claim: "FIFO scheduling with buffer sharing successfully mimics WFQ in distributing excess bandwidth",
			Verify: func(fig experiment.Figure) error {
				for _, flow := range []string{"flow6", "flow8"} {
					f, err := series(fig, "FIFO+sharing "+flow)
					if err != nil {
						return err
					}
					w, err := series(fig, "WFQ+sharing "+flow)
					if err != nil {
						return err
					}
					rel := (last(f) - last(w)) / last(w)
					if rel < -0.3 || rel > 0.3 {
						return fmt.Errorf("%s: FIFO+sharing %.2f vs WFQ+sharing %.2f Mb/s (rel %.0f%%)",
							flow, last(f), last(w), 100*rel)
					}
				}
				return nil
			},
		},
		{
			Figure: "fig7", Name: "headroom-protects",
			Claim: "increasing the headroom has the benefit of protecting conformant flows",
			Verify: func(fig experiment.Figure) error {
				v, err := series(fig, "FIFO+sharing")
				if err != nil {
					return err
				}
				// Loss must be (weakly) non-increasing in H, and the
				// largest-H loss no worse than the H=0 loss.
				if last(v) > first(v)+1e-4 {
					return fmt.Errorf("loss grew with headroom: %.5f -> %.5f", first(v), last(v))
				}
				return nil
			},
		},
		{
			Figure: "fig8", Name: "hybrid-utilization-close-case1",
			Claim:  "the performance of the 3-queue hybrid system is very close to WFQ with buffer sharing",
			Verify: verifyHybridClose("hybrid+sharing", "WFQ+sharing", 0.10),
		},
		{
			Figure: "fig9", Name: "hybrid-loss-close-case1",
			Claim:  "hybrid protection matches per-flow WFQ for the 9-flow case",
			Verify: verifyLossClose("hybrid+sharing", "WFQ+sharing", 0.01),
		},
		{
			Figure: "fig11", Name: "hybrid-utilization-close-case2",
			Claim:  "the hybrid system remains close to WFQ even for this larger number of flows",
			Verify: verifyHybridClose("hybrid+sharing", "WFQ+sharing", 0.07),
		},
		{
			Figure: "fig12", Name: "hybrid-loss-close-case2",
			Claim: "hybrid loss tracks WFQ and both are far below single-FIFO sharing at small buffers",
			Verify: func(fig experiment.Figure) error {
				hyb, err := series(fig, "hybrid+sharing")
				if err != nil {
					return err
				}
				wfq, err := series(fig, "WFQ+sharing")
				if err != nil {
					return err
				}
				fifo, err := series(fig, "FIFO+sharing")
				if err != nil {
					return err
				}
				for i := range hyb {
					if hyb[i] > wfq[i]+0.01 {
						return fmt.Errorf("point %d: hybrid loss %.4f ≫ WFQ %.4f", i, hyb[i], wfq[i])
					}
				}
				if first(fifo) < 2*first(hyb) {
					return fmt.Errorf("single-FIFO loss %.4f not clearly above hybrid %.4f at smallest buffer",
						first(fifo), first(hyb))
				}
				return nil
			},
		},
		{
			Figure: "fig13", Name: "hybrid-sharing-split-case2",
			Claim: "moderate flows keep their reservations; hybrid splits track WFQ",
			Verify: func(fig experiment.Figure) error {
				mod, err := series(fig, "hybrid+sharing moderate")
				if err != nil {
					return err
				}
				// Table 2 moderate flows reserve 2.4 Mb/s each.
				if last(mod) < 2.2 {
					return fmt.Errorf("moderate flows got %.2f Mb/s under hybrid, reservation is 2.4", last(mod))
				}
				wmod, err := series(fig, "WFQ+sharing moderate")
				if err != nil {
					return err
				}
				if rel := (last(mod) - last(wmod)) / last(wmod); rel < -0.1 || rel > 0.1 {
					return fmt.Errorf("hybrid moderate %.2f vs WFQ %.2f (rel %.0f%%)", last(mod), last(wmod), 100*rel)
				}
				return nil
			},
		},
	}
}

func verifyHybridClose(a, b string, tol float64) func(experiment.Figure) error {
	return func(fig experiment.Figure) error {
		av, err := series(fig, a)
		if err != nil {
			return err
		}
		bv, err := series(fig, b)
		if err != nil {
			return err
		}
		for i := range av {
			d := av[i] - bv[i]
			if d < -tol || d > tol {
				return fmt.Errorf("point %d: %s %.3f vs %s %.3f (|Δ| > %.2f)", i, a, av[i], b, bv[i], tol)
			}
		}
		return nil
	}
}

func verifyLossClose(a, b string, tol float64) func(experiment.Figure) error {
	return func(fig experiment.Figure) error {
		av, err := series(fig, a)
		if err != nil {
			return err
		}
		bv, err := series(fig, b)
		if err != nil {
			return err
		}
		for i := range av {
			if av[i] > bv[i]+tol {
				return fmt.Errorf("point %d: %s loss %.4f exceeds %s %.4f + %.2f", i, a, av[i], b, bv[i], tol)
			}
		}
		return nil
	}
}

// Result is the outcome of one check.
type Result struct {
	Check Check
	Err   error
}

// Run regenerates the figures the checks consume, in the paper's order,
// from one experiment.Figures set — so figures that view the same runs
// simulate them once — and evaluates every check, writing a line per
// check to w as soon as its figure is complete. An error (cancelling ctx
// aborts inside a regeneration) comes with the results of the figures
// completed before it.
func Run(ctx context.Context, opts *experiment.Options, w io.Writer) ([]Result, error) {
	figs, err := experiment.NewFigures(opts)
	if err != nil {
		return nil, err
	}
	// Group checks by figure so each figure is requested once.
	byFig := map[string][]Check{}
	for _, c := range Checks() {
		byFig[c.Figure] = append(byFig[c.Figure], c)
	}
	var results []Result
	for _, id := range experiment.FigureIDs() {
		cs := byFig[id]
		if len(cs) == 0 {
			continue
		}
		fig, err := figs.Figure(ctx, id)
		if err != nil {
			return results, fmt.Errorf("regenerating %s: %w", id, err)
		}
		for _, c := range cs {
			r := Result{Check: c, Err: c.Verify(fig)}
			results = append(results, r)
			status := "PASS"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %-8s %-34s %s\n", status, c.Figure, c.Name, firstLine(c.Claim))
			if r.Err != nil {
				fmt.Fprintf(w, "      -> %v\n", r.Err)
			}
		}
	}
	return results, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
