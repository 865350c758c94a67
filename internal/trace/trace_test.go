package trace

import (
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

func TestSamplerCollectsAtInterval(t *testing.T) {
	s := sim.New()
	v := 0.0
	sa := NewSampler(s, 0.5, []string{"v"}, func() []float64 { return []float64{v} })
	sa.Start()
	s.At(0.75, func() { v = 7 })
	s.RunUntil(2.1)
	// Samples at 0, 0.5, 1.0, 1.5, 2.0.
	if sa.Len() != 5 {
		t.Fatalf("got %d samples, want 5", sa.Len())
	}
	col, ok := sa.Column("v")
	if !ok {
		t.Fatal("column v missing")
	}
	want := []float64{0, 0, 7, 7, 7}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, col[i], want[i])
		}
	}
	if _, ok := sa.Column("nope"); ok {
		t.Error("found nonexistent column")
	}
}

func TestSamplerStop(t *testing.T) {
	s := sim.New()
	sa := NewSampler(s, 0.5, nil, func() []float64 { return nil })
	sa.Start()
	s.RunUntil(1.1)
	sa.Stop()
	n := sa.Len()
	s.RunUntil(5)
	// One queued sample may still fire before the stop flag is seen —
	// no, Stop sets the flag; the pending event returns early. Count
	// must not grow.
	if sa.Len() != n {
		t.Errorf("sampler grew after Stop: %d -> %d", n, sa.Len())
	}
}

func TestSamplerCSV(t *testing.T) {
	s := sim.New()
	sa := NewSampler(s, 1, []string{"a", "b"}, func() []float64 { return []float64{1, 2} })
	sa.Start()
	s.RunUntil(2)
	var b strings.Builder
	if err := sa.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "time,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 1+sa.Len() {
		t.Errorf("%d lines for %d samples", len(lines), sa.Len())
	}
}

func TestSamplerValidation(t *testing.T) {
	s := sim.New()
	for i, f := range []func(){
		func() { NewSampler(s, 0, nil, func() []float64 { return nil }) },
		func() { NewSampler(s, 1, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
	// Probe/label mismatch panics at sample time.
	sa := NewSampler(s, 1, []string{"a"}, func() []float64 { return []float64{1, 2} })
	defer func() {
		if recover() == nil {
			t.Error("label mismatch did not panic")
		}
	}()
	sa.Start()
}

func TestSamplerObservesExample1Convergence(t *testing.T) {
	// End-to-end: sample the conformant flow's occupancy in the
	// greedy-vs-CBR scenario; it must be (weakly) increasing toward its
	// threshold after the start-up, never above it.
	s := sim.New()
	linkRate := units.MbitsPerSecond(48)
	bufSize := units.KiloBytes(200)
	th := units.Bytes(float64(bufSize) * 8.0 / 48.0)
	mgr := buffer.NewFixedThreshold(bufSize, []units.Bytes{th + 500, bufSize - th - 500})
	link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, nil)
	g := source.NewFeedbackGreedy(s, 1, 500, mgr, link)
	link.OnDepart = g.DepartureHook()
	g.Kick()
	src := source.NewCBR(s, 0, 500, units.MbitsPerSecond(8), link)
	src.Start()

	sa := NewSampler(s, 0.01, []string{"q0"}, func() []float64 {
		return []float64{float64(mgr.Occupancy(0))}
	})
	sa.Start()
	s.RunUntil(5)

	col, _ := sa.Column("q0")
	peak := 0.0
	for _, v := range col {
		if v > peak {
			peak = v
		}
	}
	if peak > float64(th+500) {
		t.Errorf("occupancy peak %v exceeded threshold %v", peak, th+500)
	}
	if peak < float64(th)*0.8 {
		t.Errorf("occupancy peak %v never approached threshold %v", peak, th)
	}
}
