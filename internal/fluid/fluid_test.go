package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"bufqos/internal/units"
)

func example() *Example1 {
	e, err := NewExample1(units.MbitsPerSecond(8), units.MbitsPerSecond(48), units.MegaBytes(1))
	if err != nil {
		panic(err)
	}
	return e
}

func TestExample1BufferSplit(t *testing.T) {
	e := example()
	// B₁ = B·ρ₁/R = 1MB·8/48.
	b := 1e6 * 8.0 / 48.0
	want := units.Bytes(b)
	if e.B1 != want {
		t.Errorf("B1 = %v, want %v", e.B1, want)
	}
	if e.B1+e.B2 != e.B {
		t.Errorf("B1+B2 = %v, want B = %v", e.B1+e.B2, e.B)
	}
}

func TestExample1Validation(t *testing.T) {
	cases := []struct{ rho, r float64 }{
		{0, 48}, {48, 48}, {50, 48}, {8, 0},
	}
	for _, c := range cases {
		if _, err := NewExample1(units.MbitsPerSecond(c.rho), units.MbitsPerSecond(c.r), units.MegaBytes(1)); err == nil {
			t.Errorf("ρ=%v R=%v accepted", c.rho, c.r)
		}
	}
	if _, err := NewExample1(units.Mbps, 2*units.Mbps, 0); err == nil {
		t.Error("zero buffer accepted")
	}
}

func TestExample1FirstInterval(t *testing.T) {
	e := example()
	iv := e.Intervals(1)[0]
	// t₁ = B₂/R; flow 1 receives no service, flow 2 the full link.
	wantL := e.B2.Bits() / 48e6
	if math.Abs(iv.L-wantL) > 1e-12 {
		t.Errorf("l₁ = %v, want %v", iv.L, wantL)
	}
	if iv.R1 != 0 || iv.R2 != units.MbitsPerSecond(48) {
		t.Errorf("R¹₁=%v R²₁=%v, want 0 and 48Mb/s", iv.R1, iv.R2)
	}
}

func TestExample1Recursion(t *testing.T) {
	e := example()
	ivs := e.Intervals(10)
	r := 48e6
	rho := 8e6
	b2 := e.B2.Bits()
	for i := 1; i < len(ivs); i++ {
		want := rho/r*ivs[i-1].L + b2/r
		if math.Abs(ivs[i].L-want) > 1e-9 {
			t.Fatalf("l_%d = %v, want recursion value %v", i+1, ivs[i].L, want)
		}
		if ivs[i].Start != ivs[i-1].End {
			t.Fatalf("interval %d not contiguous", i+1)
		}
		// R² = B₂/l, R¹ = R − R².
		if math.Abs(ivs[i].R2.BitsPerSecond()-b2/ivs[i].L) > 1e-3 {
			t.Fatalf("R²_%d = %v, want B₂/l", i+1, ivs[i].R2)
		}
	}
}

func TestExample1Convergence(t *testing.T) {
	e := example()
	ivs := e.Intervals(60)
	lInf, r1Inf, r2Inf := e.Limits()
	last := ivs[len(ivs)-1]
	if math.Abs(last.L-lInf)/lInf > 1e-9 {
		t.Errorf("l converged to %v, want %v", last.L, lInf)
	}
	if math.Abs(last.R1.BitsPerSecond()-r1Inf.BitsPerSecond())/r1Inf.BitsPerSecond() > 1e-9 {
		t.Errorf("R¹ converged to %v, want ρ₁ = %v", last.R1, r1Inf)
	}
	if math.Abs(last.R2.BitsPerSecond()-r2Inf.BitsPerSecond())/r2Inf.BitsPerSecond() > 1e-9 {
		t.Errorf("R² converged to %v, want R−ρ₁ = %v", last.R2, r2Inf)
	}
	// l∞ = B₂/(R−ρ₁) explicitly.
	want := e.B2.Bits() / (48e6 - 8e6)
	if math.Abs(lInf-want) > 1e-12 {
		t.Errorf("l∞ = %v, want %v", lInf, want)
	}
}

func TestExample1MonotoneApproach(t *testing.T) {
	// l_i increases monotonically to l∞; flow 1's rate increases
	// monotonically to ρ₁ (after the first interval).
	e := example()
	ivs := e.Intervals(40)
	lInf, _, _ := e.Limits()
	for i := 1; i < len(ivs); i++ {
		if ivs[i].L < ivs[i-1].L {
			t.Fatalf("l not monotone at %d", i)
		}
		if ivs[i].L > lInf+1e-9 {
			t.Fatalf("l_%d = %v overshoots limit %v", i+1, ivs[i].L, lInf)
		}
		if i >= 2 && ivs[i].R1 < ivs[i-1].R1 {
			t.Fatalf("R¹ not monotone at %d", i)
		}
	}
}

func TestExample1AsymptoticOccupancy(t *testing.T) {
	e := example()
	// Flow 1 asymptotically fills ρ₁·l∞ = ρ₁·B₂/(R−ρ₁) bytes, which for
	// this allocation equals exactly B₁ = Bρ₁/R:
	// ρ₁·(B−Bρ₁/R)/(R−ρ₁) = Bρ₁(R−ρ₁)/R/(R−ρ₁) = Bρ₁/R. ✓
	got := e.FlowOneAsymptoticOccupancy()
	if diff := math.Abs(float64(got - e.B1)); diff > 1 {
		t.Errorf("asymptotic occupancy %v, want B₁ = %v", got, e.B1)
	}
}

// --- fluid engine ---

func TestEngineWorkConservation(t *testing.T) {
	// One flow at exactly the link rate: no loss, no growing backlog.
	e := NewEngine(48e6, []float64{1e9}, 1e-4)
	e.Run(10000, func(t float64) []float64 { return []float64{48e6} })
	if e.Dropped[0] != 0 {
		t.Errorf("dropped %v bits at exactly link rate", e.Dropped[0])
	}
	// Occupancy stays at one step's worth.
	if e.Occupancy(0) > 48e6*1e-4+1 {
		t.Errorf("backlog grew to %v bits", e.Occupancy(0))
	}
}

func TestEngineFIFOOrderExact(t *testing.T) {
	// Two flows, first fills the queue, then the second: departures
	// strictly in arrival order.
	e := NewEngine(1e6, []float64{1e6, 1e6}, 1e-3)
	e.Step([]float64{5e5, 0}) // 0.5s worth of flow 0
	e.Step([]float64{0, 5e5})
	// After serving 5e5 bits (0.5 s), all departures are flow 0's.
	for i := 0; i < 498; i++ {
		e.Step([]float64{0, 0})
	}
	if e.Departed[1] > 0 {
		t.Errorf("flow 1 served %v bits before flow 0 drained", e.Departed[1])
	}
}

func TestEngineProposition1(t *testing.T) {
	// Proposition 1: conformant peak-rate flow with threshold B·ρ/R
	// against a greedy flow never loses fluid. Run well past several
	// buffer-drain cycles.
	r := 48e6
	b := 8e6 // 1 MB in bits
	rho := 8e6
	// One step of slack (ρ·dt) absorbs discretization: the continuous
	// proof's strict inequality has vanishing margin as Q₁ → B₁.
	dt := 1e-4
	b1 := b*rho/r + rho*dt
	e := NewEngine(r, []float64{b1, b - b1}, dt)
	e.SetGreedy(1)
	e.Run(200000, func(t float64) []float64 { return []float64{rho, 0} }) // 20 s
	if e.Dropped[0] != 0 {
		t.Errorf("Proposition 1 violated: conformant flow dropped %v bits (%.3g%% of offered)",
			e.Dropped[0], 100*e.Dropped[0]/e.Offered[0])
	}
	// And the flow asymptotically receives its guaranteed rate: over the
	// whole run (including the initial starvation) it must approach ρ.
	rate := e.ServiceRate(0)
	if rate < rho*0.95 {
		t.Errorf("long-run service rate %v, want ≈ ρ = %v", rate, rho)
	}
}

func TestEngineProposition1Necessity(t *testing.T) {
	// Allocating less than B·ρ/R causes loss for the conformant flow
	// (the paper's necessity example): shrink flow 1's share by 10% and
	// give the rest to the greedy flow.
	r := 48e6
	b := 8e6
	rho := 8e6
	b1 := b * rho / r * 0.9
	e := NewEngine(r, []float64{b1, b - b1}, 1e-4)
	e.SetGreedy(1)
	e.Run(200000, func(t float64) []float64 { return []float64{rho, 0} })
	if e.Dropped[0] == 0 {
		t.Error("expected losses with under-allocated threshold, saw none")
	}
}

func TestEngineProposition2(t *testing.T) {
	// Proposition 2: a (σ, ρ)-conformant flow with threshold σ + B·ρ/R
	// against a greedy flow is lossless — even for the worst-case
	// arrival: send at ρ until the B·ρ/R share is (nearly) full, then
	// dump the σ burst.
	r := 48e6
	b := 8e6
	rho := 8e6
	sigma := 4e5 // 50 KB
	dt := 1e-4
	th := sigma + b*rho/r + rho*dt // one step of discretization slack
	e := NewEngine(r, []float64{th, b - th}, dt)
	e.SetGreedy(1)

	// Phase 1: trickle at ρ for 20 s; occupancy converges to ≈ B·ρ/R.
	e.Run(200000, func(t float64) []float64 { return []float64{rho, 0} })
	// Phase 2: dump the burst in one step, then continue at ρ.
	e.Step([]float64{sigma, 0})
	e.Run(50000, func(t float64) []float64 { return []float64{rho, 0} })

	if e.Dropped[0] != 0 {
		t.Errorf("Proposition 2 violated: dropped %v bits (threshold σ+Bρ/R)", e.Dropped[0])
	}
}

func TestEngineProposition2Necessity(t *testing.T) {
	// With threshold σ·0.5 + B·ρ/R the same worst case must lose fluid.
	r := 48e6
	b := 8e6
	rho := 8e6
	sigma := 4e5
	th := 0.5*sigma + b*rho/r
	e := NewEngine(r, []float64{th, b - th}, 1e-4)
	e.SetGreedy(1)
	e.Run(200000, func(t float64) []float64 { return []float64{rho, 0} })
	e.Step([]float64{sigma, 0})
	if e.Dropped[0] == 0 {
		t.Error("expected burst loss with under-allocated σ share")
	}
}

func TestEngineGreedyKeepsShareFull(t *testing.T) {
	e := NewEngine(48e6, []float64{4e6, 4e6}, 1e-4)
	e.SetGreedy(1)
	e.Run(1000, func(t float64) []float64 { return []float64{0, 0} })
	if math.Abs(e.Occupancy(1)-4e6) > 1 {
		t.Errorf("greedy occupancy %v, want threshold 4e6", e.Occupancy(1))
	}
}

func TestEngineConservationInvariant(t *testing.T) {
	e := NewEngine(48e6, []float64{1e6, 7e6}, 1e-4)
	e.SetGreedy(1)
	e.Run(5000, func(t float64) []float64 { return []float64{8e6, 0} })
	for i := 0; i < 2; i++ {
		balance := e.Admitted[i] - e.Departed[i] - e.Occupancy(i)
		if math.Abs(balance) > 1e-3 {
			t.Errorf("flow %d: admitted−departed−queued = %v, want 0", i, balance)
		}
		if math.Abs(e.Offered[i]-e.Admitted[i]-e.Dropped[i]) > 1e-3 {
			t.Errorf("flow %d: offered ≠ admitted+dropped", i)
		}
	}
}

func TestEnginePropositionM(t *testing.T) {
	// The M(t) bound inside the Proposition 2 proof:
	// M(t) = Q₁(t) + σ₁(t) − σ₁ < B₂ρ₁/(R−ρ₁). Track σ₁(t) with the
	// burst-potential process while feeding the engine a stressful
	// pattern (on-off at peak 4ρ).
	r := 48e6
	b := 8e6
	rho := 8e6
	sigma := 4e5
	dt := 1e-4
	th := sigma + b*rho/r + rho*dt // one step of discretization slack
	b2 := b - th
	e := NewEngine(r, []float64{th, b2}, dt)
	e.SetGreedy(1)
	bp := NewBurstPotential(sigma, rho)
	bound := b2 * rho / (r - rho)
	for i := 0; i < 100000; i++ {
		// On-off: bursts at 4ρ for 50 ms, silence for 150 ms; the
		// pattern is (σ,ρ)-conformant only as long as the potential
		// stays non-negative, so clip against the token pool.
		want := 0.0
		if (i/500)%4 == 0 {
			want = 4 * rho * dt
		}
		if bp.Level() < want {
			want = math.Max(0, bp.Level())
		}
		bp.Advance(dt, want)
		e.Step([]float64{want, 0})
		m := e.Occupancy(0) + bp.Level() - sigma
		if m >= bound+r*dt {
			t.Fatalf("M(t) = %v reached bound %v at t=%v", m, bound, e.Now())
		}
	}
	if e.Dropped[0] != 0 {
		t.Errorf("conformant on-off flow lost %v bits", e.Dropped[0])
	}
}

func TestBurstPotentialBasics(t *testing.T) {
	bp := NewBurstPotential(1000, 100)
	if bp.Level() != 1000 {
		t.Fatal("initial level should be σ")
	}
	bp.Advance(1, 500) // +100 refill capped at σ, −500
	if bp.Level() != 500 {
		t.Errorf("level = %v, want 500", bp.Level())
	}
	bp.Advance(2, 0)
	if bp.Level() != 700 {
		t.Errorf("level = %v, want 700", bp.Level())
	}
	bp.Advance(100, 0)
	if bp.Level() != 1000 {
		t.Errorf("level = %v, want cap σ", bp.Level())
	}
	bp.Advance(0, 1100)
	if bp.Level() >= 0 {
		t.Error("violation should drive the level negative")
	}
}

func TestBurstPotentialValidation(t *testing.T) {
	for _, c := range []struct{ s, r float64 }{{-1, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("σ=%v ρ=%v accepted", c.s, c.r)
				}
			}()
			NewBurstPotential(c.s, c.r)
		}()
	}
}

// Property: Proposition 1 holds for arbitrary (ρ₁, B): a conformant
// CBR flow with threshold B·ρ₁/R never loses fluid against a greedy
// competitor.
func TestPropertyProposition1(t *testing.T) {
	f := func(rhoSel, bSel uint8) bool {
		r := 48e6
		rho := 1e6 + float64(rhoSel%40)*1e6 // 1..40 Mb/s
		b := 1e6 + float64(bSel)*1e5        // 1..26.5 Mbit buffers
		dt := 2e-4
		b1 := b*rho/r + rho*dt // one step of discretization slack
		e := NewEngine(r, []float64{b1, b - b1}, dt)
		e.SetGreedy(1)
		e.Run(20000, func(t float64) []float64 { return []float64{rho, 0} }) // 4 s
		return e.Dropped[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFluidEngine measures one step of the discretized fluid model
// with a greedy competitor.
func BenchmarkFluidEngine(b *testing.B) {
	e := NewEngine(48e6, []float64{1.33e6, 6.67e6}, 1e-4)
	e.SetGreedy(1)
	rates := func(t float64) []float64 { return []float64{8e6, 0} }
	b.ResetTimer()
	e.Run(b.N, rates)
}
