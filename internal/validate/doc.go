// Package validate is a property-based validation harness for the
// buffer-management simulator: it generates random but valid network
// scenarios, simulates them, and checks the outcomes against a library
// of invariant oracles derived from the paper's analytical results
// (Guérin, Kamat, Peris, Rajan — "Scalable QoS Provision Through
// Buffer Management", SIGCOMM 1998).
//
// The pieces compose as
//
//	Generate (seeded scenario) -> topology.Run -> Oracles -> Shrink -> repro JSON
//
// Generate derives every random choice from a single seed through the
// deterministic sim.Rand streams, so a scenario — and any failure it
// triggers — is reproducible from (seed, duration) alone. Scenario
// kinds cover single guaranteed links, tandem paths, admission churn,
// a sweep over every registered scheme, and fluid-vs-packet
// differential workloads; a ThresholdScale below 1 switches the
// generator into an adversarial mode that provisions paper-exact
// buffers but weakens the Proposition 1/2 thresholds, which the
// oracles must catch.
//
// Oracles returns the invariant library: zero conformant loss at the
// paper thresholds (Propositions 1 and 2), per-link and end-to-end
// byte conservation, reserved-rate throughput, admission monotonicity
// (adding a flow cannot break existing guarantees), threshold
// necessity via the Example 1 greedy competitor in the fluid model,
// the FIFO-vs-hybrid buffer-size ordering of eq. 17, and a
// differential check that packet-level departures track the fluid
// trajectory within a quantization envelope. Each oracle cites the
// paper result it encodes; EXPERIMENTS.md lists the full catalogue.
// The per-run guarantees (zero conformant loss, reserved throughput,
// rejected flows idle, the TCP goodput floor) are topology.Verify's
// assertions of that name, so qfuzz and `qnet -check` hold a run to
// the same statement of each.
//
// Fuzz drives campaigns: cases fan out over the experiment worker
// pool into pre-assigned result slots, so summaries are bit-identical
// for any worker count. Failing scenarios are minimized by Shrink
// (greedily dropping flows and events and halving rates and buffers
// while the failure persists) and written as topology JSON files that
// `qnet -topology <file> -check` replays. The qfuzz command wraps
// this package for the command line.
package validate
