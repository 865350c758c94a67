package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bufqos/internal/units"
)

// table1Groups is the §4.2 Case 1 grouping: {0,1,2}, {3,4,5}, {6,7,8}.
func table1Groups(t *testing.T) []Group {
	t.Helper()
	groups, err := GroupFlows(table1Specs(), []int{0, 0, 0, 1, 1, 1, 2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func TestGroupFlowsAggregates(t *testing.T) {
	groups := table1Groups(t)
	// Queue 1: three (50KB, 2Mb/s) flows.
	if groups[0].Rho != units.MbitsPerSecond(6) || groups[0].Sigma != units.KiloBytes(150) {
		t.Errorf("group 0 = %+v, want 6Mb/s, 150KB", groups[0])
	}
	// Queue 2: three (100KB, 8Mb/s) flows.
	if groups[1].Rho != units.MbitsPerSecond(24) || groups[1].Sigma != units.KiloBytes(300) {
		t.Errorf("group 1 = %+v", groups[1])
	}
	// Queue 3: two (50KB, 0.4) and one (50KB, 2).
	if math.Abs(groups[2].Rho.Mbits()-2.8) > 1e-12 || groups[2].Sigma != units.KiloBytes(150) {
		t.Errorf("group 2 = %+v", groups[2])
	}
}

func TestGroupFlowsErrors(t *testing.T) {
	specs := table1Specs()
	if _, err := GroupFlows(specs, []int{0}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := GroupFlows(specs, []int{0, 0, 0, 0, 0, 0, 0, 0, 5}, 3); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if _, err := GroupFlows(specs, make([]int, 9), 0); err == nil {
		t.Error("zero queues accepted")
	}
}

func TestOptimalAlphasNormalize(t *testing.T) {
	groups := table1Groups(t)
	alphas := OptimalAlphas(groups)
	sum := 0.0
	for _, a := range alphas {
		if a <= 0 {
			t.Errorf("alpha %v not positive", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σα = %v, want 1", sum)
	}
	// α ∝ √(σ̂ρ̂): group 1 (300KB, 24Mb/s) gets the largest share.
	if !(alphas[1] > alphas[0] && alphas[1] > alphas[2]) {
		t.Errorf("alphas = %v, want group 1 largest", alphas)
	}
}

func TestOptimalAlphasEmptyGroups(t *testing.T) {
	alphas := OptimalAlphas([]Group{{}, {Rho: units.Mbps, Sigma: 1000}})
	if alphas[0] != 0 || alphas[1] != 1 {
		t.Errorf("alphas = %v, want [0 1]", alphas)
	}
	zero := OptimalAlphas([]Group{{}, {}})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("all-empty alphas = %v", zero)
	}
}

func TestAllocateHybridRates(t *testing.T) {
	groups := table1Groups(t)
	r := units.MbitsPerSecond(48)
	rates, err := AllocateHybrid(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Rate
	for i, ri := range rates {
		if ri < groups[i].Rho {
			t.Errorf("queue %d rate %v below reservation %v", i, ri, groups[i].Rho)
		}
		sum += ri
	}
	if math.Abs(sum.BitsPerSecond()-48e6) > 1 {
		t.Errorf("ΣRᵢ = %v, want link rate", sum)
	}
}

func TestAllocateHybridOverReserved(t *testing.T) {
	groups := []Group{{Rho: units.MbitsPerSecond(48), Sigma: 1000}}
	if _, err := AllocateHybrid(units.MbitsPerSecond(48), groups); err == nil {
		t.Error("ρ = R accepted")
	}
}

func TestQueueBuffer(t *testing.T) {
	g := Group{Rho: units.MbitsPerSecond(24), Sigma: units.KiloBytes(300)}
	// Equation (11): B = R·σ̂/(R−ρ̂) with R = 32 Mb/s: 300KB·32/8 = 1200KB.
	got, err := QueueBuffer(units.MbitsPerSecond(32), g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got)-1.2e6) > 1 {
		t.Errorf("queue buffer %v, want 1.2MB", got)
	}
	if _, err := QueueBuffer(units.MbitsPerSecond(24), g); err == nil {
		t.Error("rate = reservation accepted")
	}
}

func TestHybridBufferIdentities(t *testing.T) {
	// Equation (18) summed must equal equation (19), and equation (19)
	// must equal Σ eq(11) under the optimal rates.
	groups := table1Groups(t)
	r := units.MbitsPerSecond(48)

	per, err := HybridBufferPerQueue(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	total, err := HybridBufferTotal(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Bytes
	for _, b := range per {
		sum += b
	}
	if sum != total {
		t.Errorf("Σ per-queue %v != total %v", sum, total)
	}

	rates, err := AllocateHybrid(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	var direct units.Bytes
	for i, g := range groups {
		b, err := QueueBuffer(rates[i], g)
		if err != nil {
			t.Fatal(err)
		}
		direct += b
	}
	// Rounding each queue up can differ by a few bytes.
	if math.Abs(float64(direct-total)) > 8 {
		t.Errorf("Σ eq(11) = %v vs eq(19) = %v", direct, total)
	}
}

func TestBufferSavingsMatchesDirectFormula(t *testing.T) {
	// The §4.1 claim: B_FIFO − B_hybrid equals the explicit equation
	// (17) sum. Verify the paper's algebra numerically.
	groups := table1Groups(t)
	r := units.MbitsPerSecond(48)
	viaDiff, err := BufferSavings(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	viaSum, err := BufferSavingsDirect(r, groups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(viaDiff-viaSum)) > 16 {
		t.Errorf("savings mismatch: difference form %v, direct form %v", viaDiff, viaSum)
	}
	if viaDiff <= 0 {
		t.Errorf("savings %v, want positive for heterogeneous groups", viaDiff)
	}
}

func TestBufferSavingsZeroForProportionalGroups(t *testing.T) {
	// §4.1: αᵢ = ρ̂ᵢ/ρ (proportional σ̂/ρ̂ across queues) yields no
	// savings. Groups with identical σ̂/ρ̂ ratios have √(σ̂ᵢρ̂ⱼ) =
	// √(σ̂ⱼρ̂ᵢ), so equation (17) vanishes.
	groups := []Group{
		{Rho: units.MbitsPerSecond(4), Sigma: units.KiloBytes(40)},
		{Rho: units.MbitsPerSecond(8), Sigma: units.KiloBytes(80)},
		{Rho: units.MbitsPerSecond(16), Sigma: units.KiloBytes(160)},
	}
	got, err := BufferSavings(units.MbitsPerSecond(48), groups)
	if err != nil {
		t.Fatal(err)
	}
	if got > 16 {
		t.Errorf("savings %v for proportional groups, want ≈ 0", got)
	}
}

func TestProposition3Optimality(t *testing.T) {
	// The optimal alphas must (weakly) beat any perturbed allocation:
	// B_hybrid(α*) ≤ B_hybrid(α* + δ) for feasible perturbations.
	groups := table1Groups(t)
	r := units.MbitsPerSecond(48)
	var rho float64
	for _, g := range groups {
		rho += g.Rho.BitsPerSecond()
	}
	excess := r.BitsPerSecond() - rho

	bufFor := func(alphas []float64) float64 {
		total := 0.0
		for i, g := range groups {
			ri := g.Rho.BitsPerSecond() + alphas[i]*excess
			total += ri * g.Sigma.Bits() / (ri - g.Rho.BitsPerSecond())
		}
		return total
	}
	best := bufFor(OptimalAlphas(groups))
	perturbs := [][]float64{
		{0.05, -0.05, 0}, {-0.03, 0.01, 0.02}, {0.1, -0.02, -0.08}, {-0.01, -0.01, 0.02},
	}
	opt := OptimalAlphas(groups)
	for _, d := range perturbs {
		alphas := make([]float64, 3)
		ok := true
		for i := range alphas {
			alphas[i] = opt[i] + d[i]
			if alphas[i] <= 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		if b := bufFor(alphas); b < best-1e-6 {
			t.Errorf("perturbation %v beats the optimum: %v < %v", d, b, best)
		}
	}
}

func TestHybridThresholds(t *testing.T) {
	specs := table1Specs()
	queueOf := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	groups := table1Groups(t)
	queueBuf := []units.Bytes{units.KiloBytes(300), units.KiloBytes(600), units.KiloBytes(300)}
	th, err := HybridThresholds(specs, queueOf, groups, queueBuf)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0 in queue 0: σ + (ρ/ρ̂)·B₀ = 50KB + (2/6)·300KB = 150KB.
	if math.Abs(float64(th[0])-150000) > 1 {
		t.Errorf("flow 0 hybrid threshold %v, want 150KB", th[0])
	}
	// Flow 8 in queue 2: 50KB + (2/2.8)·300KB.
	want := 50000 + 2.0/2.8*300000
	if math.Abs(float64(th[8])-want) > 1 {
		t.Errorf("flow 8 hybrid threshold %v, want %.0f", th[8], want)
	}
}

func TestPartitionBuffer(t *testing.T) {
	got := PartitionBuffer(units.MegaBytes(1), []units.Bytes{100, 300, 600})
	if got[0] != 100000 || got[1] != 300000 || got[2] != 600000 {
		t.Errorf("partition = %v", got)
	}
	zero := PartitionBuffer(units.MegaBytes(1), []units.Bytes{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero-minimum partition = %v", zero)
	}
}

// Property: for any grouping of the Table 1 flows, hybrid total buffer
// never exceeds the single-FIFO requirement, and savings are
// non-negative (the §4.1 claim).
func TestPropertyHybridNeverWorse(t *testing.T) {
	specs := table1Specs()
	r := units.MbitsPerSecond(48)
	fifo, err := RequiredBufferFIFO(specs, r)
	if err != nil {
		t.Fatal(err)
	}
	f := func(assign [9]uint8, kSel uint8) bool {
		k := int(kSel%3) + 1
		queueOf := make([]int, 9)
		for i, a := range assign {
			queueOf[i] = int(a) % k
		}
		groups, err := GroupFlows(specs, queueOf, k)
		if err != nil {
			return false
		}
		// Skip degenerate groupings with an empty queue: equations (18)
		// and (11) differ there (footnote 6: a single/empty queue needs
		// only σ̂).
		for _, g := range groups {
			if g.Rho == 0 {
				return true
			}
		}
		hyb, err := HybridBufferTotal(r, groups)
		if err != nil {
			return false
		}
		return hyb <= fifo+16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
