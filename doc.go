// Package bufqos reproduces "Scalable QoS Provision Through Buffer
// Management" (Guérin, Kamat, Peris, Rajan — SIGCOMM 1998): rate
// guarantees for flows multiplexed into a FIFO queue using only O(1)
// per-packet buffer management, the buffer-sharing extension, and the
// hybrid k-queue architecture.
//
// The implementation lives under internal/ (see ARCHITECTURE.md for
// the full map and data flow):
//
//   - internal/core      — thresholds, admission regions, hybrid allocation
//   - internal/buffer    — tail-drop, fixed thresholds, sharing, DT, RED
//   - internal/sched     — FIFO, exact-virtual-time WFQ, hybrid, link server
//   - internal/scheme    — the scheme registry: spec strings → (manager,
//     scheduler) builders shared by experiments, the network, and CLIs
//   - internal/source    — ON-OFF sources, leaky-bucket shaper, meter
//   - internal/network   — the one per-flow wiring layer (source,
//     regulator, TCP feedback) and the end-to-end delivery sink
//   - internal/fluid     — fluid-model verification of Propositions 1–2
//   - internal/topology  — declarative multi-hop scenarios: links, routed
//     flows, event timelines, per-hop admission and verification
//   - internal/validate  — property-based fuzzing: seeded scenario
//     generation, invariant oracles, failure shrinking
//   - internal/online    — competitive analysis: online policies vs the
//     exact offline optimum
//   - internal/sizing    — buffer-sizing sweeps: rule × scheme ×
//     population grids (closed-loop TCP to 10⁶ flows) over one bottleneck
//   - internal/experiment — Table 1/2 workloads and Figures 1–13 runners
//   - internal/metrics   — allocation-conscious counters/gauges/histograms
//   - internal/report    — assertions and figure/table rendering
//   - internal/sim, units, packet, stats, trace — substrate
//
// The experiment package is driven through a single Options struct built
// with functional options and a context-aware entry point:
//
//	figs, err := experiment.NewFigures(experiment.NewOptions(
//	    experiment.WithRuns(5),
//	    experiment.WithMetrics(reg),      // nil registry = zero-cost
//	    experiment.WithProgress(onTick),  // runs done/total + ETA
//	))
//	fig1, err := figs.Figure(ctx, "fig1") // simulates the four §3.2 schemes
//	fig2, err := figs.Figure(ctx, "fig2") // another view of the same runs: free
//
// Cancelling ctx stops in-flight simulations promptly and returns the
// partial figure. Schemes are selected by registry spec strings —
// experiment.WithSchemeSpec("wfq+sharing"),
// WithSchemeSpec("hybrid:3+sharing"), or a parameterized variant like
// "fifo+red?min=0.2,max=0.8".
//
// Executables: cmd/qsim (regenerate every figure), cmd/qtrace
// (per-packet event traces), cmd/qcheck (single-link invariant
// checks), cmd/qnet (declarative multi-hop scenarios), cmd/qfuzz
// (property-based invariant fuzzing), cmd/qcomp (competitive-analysis
// sweeps), cmd/qsize (buffer-sizing sweeps), cmd/qosplan (closed-form
// analysis), cmd/qosd (the admission-control daemon), cmd/qload (its
// deterministic correctness client); the README's CLI table summarizes
// flags and use cases.
// Runnable walkthroughs are in examples/. `make figs-smoke` regenerates
// every figure at reduced scale and `cmd/qcheck` checks its shape; see
// EXPERIMENTS.md for paper-vs-measured results. The performance record
// is the repository's benchmark, `go run ./bench`; bench_test.go keeps
// only the end-to-end timings (Table 1 traffic, the Figure 1 sweep
// sequential and parallel, a full Table 1 run with and without
// metrics).
package bufqos
