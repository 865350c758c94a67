package qosd

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// TestConcurrentJoinsMatchSequentialReplay hammers one link from 32
// goroutines through the HTTP API — joins interleaved with leaves —
// and checks the final per-link aggregates equal a sequential replay
// of the same operations on the single-threaded admitter. The link is
// provisioned so every join admits, making the final state
// independent of interleaving; run under -race this doubles as the
// data-race check on the whole handler → flow-table → shard path.
func TestConcurrentJoinsMatchSequentialReplay(t *testing.T) {
	const workers, perWorker = 32, 40
	topo := &topology.Topology{
		Name: "hammer",
		Links: []topology.Link{
			{From: "x", To: "y", Rate: units.MbitsPerSecond(1000), Buffer: units.MegaBytes(100)},
		},
	}
	s, err := New(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := func(w, i int) packet.FlowSpec {
		return packet.FlowSpec{
			TokenRate:  units.Rate(100_000 + 1000*w),
			BucketSize: units.KiloBytes(float64(1 + (w+i)%20)),
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				var d Decision
				code := call(t, ts, "POST", "/v1/join",
					JoinRequest{Flow: name, Links: []string{"x->y"}, Spec: spec(w, i)}, &d)
				if code != 200 || !d.Admitted {
					t.Errorf("join %s: code %d, %+v", name, code, d)
					return
				}
				if i%2 == 1 {
					if code := call(t, ts, "POST", "/v1/leave", LeaveRequest{Flow: name}, &d); code != 200 {
						t.Errorf("leave %s: code %d", name, code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Sequential replay of the identical operation set.
	serial := core.NewSerialAdmitter(core.DisciplineFIFO, units.MbitsPerSecond(1000), units.MegaBytes(100))
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if r := serial.Admit(spec(w, i)); r != core.Accepted {
				t.Fatalf("sequential replay refused w%d-%d: %v", w, i, r)
			}
			if i%2 == 1 {
				serial.Release(spec(w, i))
			}
		}
	}

	got := s.adm.Snapshot()[0]
	want := serial.Snapshot()
	if got.NumFlows != want.NumFlows || got.SumSigma != want.SumSigma {
		t.Errorf("concurrent final state (flows %d, Σσ %v) != sequential replay (flows %d, Σσ %v)",
			got.NumFlows, got.SumSigma, want.NumFlows, want.SumSigma)
	}
	if s.NumFlows() != want.NumFlows {
		t.Errorf("flow table has %d flows, want %d", s.NumFlows(), want.NumFlows)
	}
}

// TestConcurrentRerouteDrain spins flows between two parallel links
// from many goroutines, then leaves them all: the shards must end
// exactly empty (every reservation is released once, by the reroute
// that vacates its link or by the leave).
func TestConcurrentRerouteDrain(t *testing.T) {
	const workers, hops = 16, 30
	topo := &topology.Topology{
		Name: "spin",
		Links: []topology.Link{
			{From: "x", To: "y", Name: "up", Rate: units.MbitsPerSecond(1000), Buffer: units.MegaBytes(100)},
			{From: "y", To: "x", Name: "down", Rate: units.MbitsPerSecond(1000), Buffer: units.MegaBytes(100)},
		},
	}
	s, err := New(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("spin%d", w)
			sp := packet.FlowSpec{TokenRate: units.MbitsPerSecond(1), BucketSize: units.KiloBytes(10)}
			var d Decision
			if code := call(t, ts, "POST", "/v1/join",
				JoinRequest{Flow: name, Links: []string{"up"}, Spec: sp}, &d); code != 200 || !d.Admitted {
				t.Errorf("join %s: code %d %+v", name, code, d)
				return
			}
			for h := 0; h < hops; h++ {
				link := []string{"up", "down"}[h%2^1]
				if code := call(t, ts, "POST", "/v1/reroute",
					RerouteRequest{Flow: name, Links: []string{link}}, &d); code != 200 || !d.Admitted {
					t.Errorf("reroute %s hop %d: code %d %+v", name, h, code, d)
					return
				}
			}
			if code := call(t, ts, "POST", "/v1/leave", LeaveRequest{Flow: name}, &d); code != 200 {
				t.Errorf("leave %s: code %d", name, code)
			}
		}(w)
	}
	wg.Wait()

	for i, sn := range s.adm.Snapshot() {
		if sn.NumFlows != 0 || sn.SumSigma != 0 || sn.SumRho != 0 {
			t.Errorf("link %d not empty after drain: %+v", i, sn)
		}
	}
	if s.NumFlows() != 0 {
		t.Errorf("flow table not empty: %d", s.NumFlows())
	}
}
