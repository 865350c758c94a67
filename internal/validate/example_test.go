package validate_test

import (
	"context"
	"fmt"
	"os"

	"bufqos/internal/validate"
)

// Scenario generation is a pure function of the seed: the same seed
// always yields the same validated topology, so any failure can be
// replayed from (seed, duration) alone.
func ExampleGenerate() {
	sc, err := validate.Generate(5, validate.GenConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: %d flows, %d links, %d events\n",
		sc.Topo.Name, len(sc.Topo.Flows), len(sc.Topo.Links), len(sc.Topo.Events))
	// Output:
	// fuzz-tcp-5: 3 flows, 2 links, 0 events
}

// The oracle library is ordered and named; qfuzz -oracle selects a
// subset by these names.
func ExampleOracles() {
	for _, o := range validate.Oracles()[:3] {
		fmt.Printf("%s (%s)\n", o.Name, o.Citation)
	}
	// Output:
	// zero-conformant-loss (Propositions 1–2, §2.1–2.2)
	// conservation (§2 queueing model)
	// reserved-throughput (Proposition 2 corollary, §2.2)
}

// A campaign is deterministic end to end: cases derive their seeds
// from the campaign seed and fan out into pre-assigned slots, so the
// summary is identical at any worker count.
func ExampleFuzz() {
	sum, err := validate.Fuzz(context.Background(), validate.Options{
		Cases: 4, Seed: 3, Duration: 2, Workers: 2,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	validate.WriteSummary(os.Stdout, sum)
	// Output:
	// fuzz: 4 cases finished (of 4), seed 3, 2s horizon
	//   kind differential          1 cases
	//   kind single-link           2 cases
	//   kind tandem                1 cases
	//   assertions checked: 81
	//   all oracles passed
}
