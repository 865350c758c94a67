// Package online is the competitive-analysis subsystem: online
// buffer-management policies evaluated against an exact offline-optimal
// solver on adversarial arrival sequences.
//
// The source paper argues for cheap threshold-based buffer management
// but gives no worst-case guarantees; the competitive-analysis
// literature does. This package implements the two models of the
// related work retrieved for this reproduction:
//
//   - The shared-buffer value model ("Buffer Overflow Management with
//     Class Segregation", Al-Bawani & Souza, arXiv:1103.6049; building
//     on Kesselman et al.'s QoS-switch buffer model): unit-size packets
//     carrying values arrive at a single B-slot buffer; one packet is
//     transmitted per time step; the benefit of a policy is the total
//     value it transmits. Preemptive greedy admission is 2-competitive;
//     non-preemptive greedy is only Θ(α)-competitive on two-value
//     (1, α) sequences.
//
//   - The multi-queue unit-value model ("An Optimal Lower Bound for
//     Buffer Management in Multi-Queue Switches", Bienkowski,
//     arXiv:1007.1535): m queues of B slots each, one transmission per
//     step from a queue of the policy's choosing. Any work-conserving
//     policy (longest-queue-first and its semi-greedy refinement
//     included) is 2-competitive; no deterministic policy beats
//     2 − 1/m at B = 1, and the paper's headline result is an optimal
//     e/(e−1) ≈ 1.582 lower bound as B grows.
//
// Two layers:
//
//   - The abstract model (Instance, Policy, Run): discrete time steps,
//     unit packets, exact replayable JSON instances. A policy is not
//     restated here: Algo drives the internal/buffer combined
//     queue/manager the scheme registry runs on simulated links
//     (ClassGreedy for greedy and greedy-np, ClassSeg for cseg,
//     MultiQueue for lqf and semigreedy), one 1-byte packet per
//     arrival and one Dequeue per step. So the bounds qcomp certifies
//     are those of the cgreedy, classseg, lqf and semigreedy schemes.
//   - The exact offline optimum (Opt): a min-cost max-flow matching of
//     packets to transmission slots on a time-expanded graph (its tests
//     verify it against an exponential enumeration on tiny instances).
//
// Adversarial arrival generators (the papers' lower-bound
// constructions plus a seeded hill-climbing search) live in
// internal/validate; the qcomp CLI sweeps policies × adversaries ×
// buffer sizes and reports empirical competitive ratios next to the
// proven bounds.
package online
