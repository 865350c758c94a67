package qosd

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"bufqos/internal/topology"
	"bufqos/internal/validate"
)

// TestDaemonDecidesAsOfflineEngine replays the admission timeline of
// every shipped scenario, and of 50 generated churn scenarios, through
// the daemon's Join and Leave in the offline engine's decision order —
// the implicit joins at t=0 in flow order, then the timeline's joins
// and leaves in event order — and requires the daemon to admit the
// same flows as topology.Run and to refuse the others at the same link
// for the same reason. churn.json puts a wfq+sharing hop behind a FIFO
// one and refuses a bandwidth-limited hog, so both regions of the
// scheme→region map are decided on.
func TestDaemonDecidesAsOfflineEngine(t *testing.T) {
	paths, err := filepath.Glob("../../topologies/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped topologies (%v)", err)
	}
	var topos []*topology.Topology
	for _, p := range paths {
		topo, err := topology.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	shipped := len(topos)
	for seed := int64(1); len(topos) < shipped+50; seed++ {
		sc, err := validate.Generate(seed, validate.GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Kind == validate.KindChurn {
			topos = append(topos, sc.Topo)
		}
	}
	rejected := 0
	for _, topo := range topos {
		rejected += replayAgainstEngine(t, topo)
	}
	t.Logf("%d scenarios, %d refusals", len(topos), rejected)
	if rejected == 0 {
		t.Error("no scenario refused a join: the comparison never saw a rejection")
	}
}

// replayAgainstEngine checks one scenario and returns how many joins it
// refused.
func replayAgainstEngine(t *testing.T, topo *topology.Topology) int {
	t.Helper()
	// The engine decides only the events within its horizon, so it runs
	// to the last one (an event at exactly the horizon fires).
	horizon := 0.01
	if n := len(topo.Events); n > 0 {
		horizon = max(horizon, topo.Events[n-1].At)
	}
	res, err := topology.Run(context.Background(), topo, topology.Options{Duration: horizon, Seed: 1, SkipLinkFlows: true})
	if err != nil {
		t.Fatalf("%s: %v", topo.Name, err)
	}
	s, err := New(topo, nil)
	if err != nil {
		t.Fatalf("%s: %v", topo.Name, err)
	}
	byName := make(map[string]int, len(topo.Flows))
	for fi := range topo.Flows {
		byName[topo.Flows[fi].Name] = fi
	}
	// refusal is a rejection as the daemon words it.
	type refusal struct {
		Flow, Link string
		At         float64
		Reason     string
	}
	admitted := make([]bool, len(topo.Flows))
	var got, want []refusal
	for _, r := range res.Rejections {
		want = append(want, refusal{r.Flow, r.Link, r.At, r.Reason.String()})
	}
	join := func(fi int, at float64) {
		f := &topo.Flows[fi]
		links := make([]string, len(f.Route))
		for i, li := range f.Route {
			links[i] = s.linkNames[li]
		}
		d, err := s.Join(f.Name, links, f.Spec)
		if err != nil {
			t.Fatalf("%s: join %s: %v", topo.Name, f.Name, err)
		}
		if d.Admitted {
			admitted[fi] = true
			return
		}
		got = append(got, refusal{f.Name, d.Link, at, d.Reason})
	}
	for fi := range topo.Flows {
		if _, has := topo.JoinTime(fi); !has {
			join(fi, 0)
		}
	}
	for _, ev := range topo.Events {
		switch ev.Kind {
		case topology.EventJoin:
			join(byName[ev.Flow], ev.At)
		case topology.EventLeave:
			if admitted[byName[ev.Flow]] {
				if err := s.Leave(ev.Flow); err != nil {
					t.Fatalf("%s: leave %s: %v", topo.Name, ev.Flow, err)
				}
			}
		}
	}
	for fi, fr := range res.Flows {
		if fr.Admitted != admitted[fi] {
			t.Errorf("%s: flow %s admitted by the engine %v, by the daemon %v", topo.Name, fr.Name, fr.Admitted, admitted[fi])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: daemon refused %+v, engine %+v", topo.Name, got, want)
	}
	return len(got)
}
