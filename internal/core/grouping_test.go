package core

import (
	"fmt"
	"math"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func TestExhaustiveGroupingBeatsPaperGrouping(t *testing.T) {
	// The optimizer must do at least as well (in S, hence in buffer) as
	// the paper's hand grouping of Table 1, and the paper's by-class
	// grouping must beat one that deliberately interleaves the classes
	// (hybrid buffer ≈ 1778, 1805 and 1893 KB at 48 Mb/s).
	specs := table1Specs()
	paper := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	interleaved := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	best, err := OptimizeGroupingExhaustive(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := groupingCost(specs, paper, 3)
	if got := groupingCost(specs, best, 3); got > ref+1e-9 {
		t.Errorf("exhaustive cost %v worse than paper grouping %v", got, ref)
	}
	if bad := groupingCost(specs, interleaved, 3); ref >= bad {
		t.Errorf("paper grouping cost %v not below interleaved grouping %v", ref, bad)
	}
}

func TestExhaustiveGroupingSmallCase(t *testing.T) {
	// Two very different flows and k=2: separating them is optimal
	// (identical-ratio flows grouped together never hurt, mixed ones do).
	specs := []packet.FlowSpec{
		spec(10, 10), // low burst, high rate
		spec(200, 0.5),
	}
	q, err := OptimizeGroupingExhaustive(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q[0] == q[1] {
		t.Errorf("optimizer merged heterogeneous flows: %v", q)
	}
}

func TestExhaustiveGroupingSingleQueue(t *testing.T) {
	specs := []packet.FlowSpec{spec(10, 1), spec(20, 2)}
	q, err := OptimizeGroupingExhaustive(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 0 || q[1] != 0 {
		t.Errorf("k=1 grouping = %v", q)
	}
}

func TestExhaustiveGroupingErrors(t *testing.T) {
	if _, err := OptimizeGroupingExhaustive(nil, 2); err == nil {
		t.Error("empty specs accepted")
	}
	if _, err := OptimizeGroupingExhaustive(table1Specs(), 0); err == nil {
		t.Error("zero queues accepted")
	}
	big := make([]packet.FlowSpec, 20)
	for i := range big {
		big[i] = spec(10, 1)
	}
	if _, err := OptimizeGroupingExhaustive(big, 3); err == nil {
		t.Error("oversized exhaustive search accepted")
	}
}

func TestDPGroupingMatchesExhaustiveOnTable1(t *testing.T) {
	// For the Table 1 workload the contiguous-by-ratio DP finds the
	// same cost as the exhaustive optimum.
	specs := table1Specs()
	ex, err := OptimizeGroupingExhaustive(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := OptimizeGroupingDP(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	ce, cd := groupingCost(specs, ex, 3), groupingCost(specs, dp, 3)
	if cd > ce+1e-6 {
		t.Errorf("DP cost %v vs exhaustive %v", cd, ce)
	}
}

func TestDPGroupingScales(t *testing.T) {
	// 100 flows in three natural classes: DP must keep classes together
	// (all flows of identical ratio share a queue).
	var specs []packet.FlowSpec
	for i := 0; i < 40; i++ {
		specs = append(specs, spec(15, 0.6))
	}
	for i := 0; i < 30; i++ {
		specs = append(specs, spec(30, 2.4))
	}
	for i := 0; i < 30; i++ {
		specs = append(specs, spec(35, 0.3))
	}
	q, err := OptimizeGroupingDP(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Flows with identical profiles must be co-located.
	for group, span := range [][2]int{{0, 40}, {40, 70}, {70, 100}} {
		_ = group
		first := q[span[0]]
		for i := span[0]; i < span[1]; i++ {
			if q[i] != first {
				t.Fatalf("identical-profile flows %d and %d split across queues", span[0], i)
			}
		}
	}
}

func TestDPGroupingFewerQueuesWhenBeneficial(t *testing.T) {
	// With identical flows, one queue is optimal even when k allows 3:
	// splitting equal-ratio flows never reduces S (√ is concave:
	// √(a+b) ≤ √a + √b, so merging equal-ratio groups helps).
	specs := []packet.FlowSpec{spec(10, 1), spec(10, 1), spec(10, 1)}
	q, err := OptimizeGroupingDP(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != q[1] || q[1] != q[2] {
		t.Errorf("identical flows split: %v", q)
	}
}

func TestGroupingCostInfinityOnBadAssignment(t *testing.T) {
	if c := groupingCost(table1Specs(), []int{0}, 1); !math.IsInf(c, 1) {
		t.Errorf("bad assignment cost = %v, want +Inf", c)
	}
}

func TestBufferSavingsDirectOverReserved(t *testing.T) {
	groups := []Group{{Rho: units.MbitsPerSecond(50), Sigma: 1}}
	if _, err := BufferSavingsDirect(units.MbitsPerSecond(48), groups); err == nil {
		t.Error("over-reserved accepted")
	}
}

func TestSavingsGrowWithHeterogeneity(t *testing.T) {
	// Holding σ and ρ totals fixed, more heterogeneous groupings save
	// more buffer — the design guidance at the end of §4.1.
	r := units.MbitsPerSecond(48)
	homogeneous := []Group{
		{Rho: units.MbitsPerSecond(8), Sigma: units.KiloBytes(100)},
		{Rho: units.MbitsPerSecond(8), Sigma: units.KiloBytes(100)},
	}
	heterogeneous := []Group{
		{Rho: units.MbitsPerSecond(15), Sigma: units.KiloBytes(20)},
		{Rho: units.MbitsPerSecond(1), Sigma: units.KiloBytes(180)},
	}
	sHomo, err := BufferSavings(r, homogeneous)
	if err != nil {
		t.Fatal(err)
	}
	sHet, err := BufferSavings(r, heterogeneous)
	if err != nil {
		t.Fatal(err)
	}
	if sHet <= sHomo {
		t.Errorf("heterogeneous savings %v not above homogeneous %v", sHet, sHomo)
	}
	if sHomo > 16 {
		t.Errorf("identical groups saved %v, want ≈ 0", sHomo)
	}
}

// BenchmarkGroupingDP measures the scalable grouping optimizer at 100
// flows and 4 queues.
func BenchmarkGroupingDP(b *testing.B) {
	var specs []packet.FlowSpec
	for i := 0; i < 100; i++ {
		specs = append(specs, spec(float64(10+i%50), 0.3+float64(i%7)*0.4))
	}
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeGroupingDP(specs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BufferSavingsDirect evaluates the right-hand side of equation (17)
// directly,
//
//	Σ_{i<j} (√(σ̂ᵢρ̂ⱼ) − √(σ̂ⱼρ̂ᵢ))² / (R − ρ)
//
// which the claim in §4.1 shows equals B_FIFO − B_hybrid. Having both
// forms lets tests verify the paper's algebra.
func BufferSavingsDirect(r units.Rate, groups []Group) (units.Bytes, error) {
	var rho float64
	for _, g := range groups {
		rho += g.Rho.BitsPerSecond()
	}
	if rho >= r.BitsPerSecond() {
		return 0, fmt.Errorf("core: reserved rate %v ≥ link rate %v", units.Rate(rho), r)
	}
	var num float64 // in bits·(bits/s)
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			a := math.Sqrt(groups[i].Sigma.Bits() * groups[j].Rho.BitsPerSecond())
			b := math.Sqrt(groups[j].Sigma.Bits() * groups[i].Rho.BitsPerSecond())
			num += (a - b) * (a - b)
		}
	}
	return units.Bytes(num / (r.BitsPerSecond() - rho) / 8), nil
}
