package core

import (
	"sync"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

func twoLinks() *ShardedAdmitter {
	return NewShardedAdmitter([]LinkConfig{
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
		{DisciplineFIFO, units.MbitsPerSecond(48), units.MegaBytes(1)},
	})
}

func TestShardedLinkViewMatchesSerial(t *testing.T) {
	// The same op sequence on link 0 of a ShardedAdmitter — the view's
	// Admit, AdmitRoute and ReleaseRoute on the one-link route — and on
	// a SerialAdmitter must give identical decisions, and identical
	// aggregates after every op. Releases name only admitted specs.
	sa := twoLinks()
	view, route := sa.Link(0), []int{0}
	serial := NewSerialAdmitter(DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100))
	ops := []struct {
		op   byte // 'v': view Admit, 'a': AdmitRoute, 'r': ReleaseRoute
		s, r float64
	}{
		{'v', 50, 20}, {'a', 70, 20}, {'a', 10, 30}, {'v', 10, 4},
		{'r', 50, 20}, {'a', 30, 2}, {'r', 10, 4}, {'v', 30, 2},
		{'r', 30, 2}, {'r', 30, 2}, {'a', 60, 1},
	}
	for i, op := range ops {
		s := spec(op.s, op.r)
		var got RejectReason
		switch op.op {
		case 'v':
			got = view.Admit(s)
		case 'a':
			_, got = sa.AdmitRoute(route, s)
		case 'r':
			if !serial.Release(s) {
				t.Fatalf("op %d releases a spec the serial admitter does not hold", i)
			}
			sa.ReleaseRoute(route, s)
		}
		if op.op != 'r' {
			if want := serial.Admit(s); got != want {
				t.Fatalf("op %d: sharded admit = %v, serial = %v", i, got, want)
			}
		}
		if vs, ss := sa.Snapshot()[0], serial.Snapshot(); vs != ss {
			t.Fatalf("op %d: snapshots diverge: sharded %+v, serial %+v", i, vs, ss)
		}
	}
}

func TestShardedAdmitRouteAtomic(t *testing.T) {
	sa := twoLinks()
	// Link 0 (100KB WFQ) refuses σ=120KB; the all-or-nothing admit must
	// leave link 1 untouched too.
	if li, r := sa.AdmitRoute([]int{1, 0}, spec(120, 1)); li != 0 || r != BufferLimited {
		t.Fatalf("AdmitRoute = (%d, %v), want (0, buffer-limited)", li, r)
	}
	for i, snap := range sa.Snapshot() {
		if snap.NumFlows != 0 {
			t.Errorf("link %d holds %d flows after failed route admit", i, snap.NumFlows)
		}
	}
	if li, r := sa.AdmitRoute([]int{1, 0}, spec(50, 2)); li != -1 || r != Accepted {
		t.Fatalf("fitting route rejected: (%d, %v)", li, r)
	}
	for i, snap := range sa.Snapshot() {
		if snap.NumFlows != 1 {
			t.Errorf("link %d holds %d flows after route admit, want 1", i, snap.NumFlows)
		}
	}
	sa.ReleaseRoute([]int{0, 1}, spec(50, 2))
	for i, snap := range sa.Snapshot() {
		if snap.NumFlows != 0 || snap.SumRho != 0 || snap.SumSigma != 0 {
			t.Errorf("link %d not empty after ReleaseRoute: %+v", i, snap)
		}
	}
}

func TestShardedRejectInRouteOrder(t *testing.T) {
	// Both links refuse; the reported link must be the first on the
	// route, not the first in lock (ascending index) order.
	sa := NewShardedAdmitter([]LinkConfig{
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(10)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(10)},
	})
	if li, r := sa.AdmitRoute([]int{1, 0}, spec(50, 1)); li != 1 || r != BufferLimited {
		t.Errorf("AdmitRoute = (%d, %v), want (1, buffer-limited)", li, r)
	}
}

func TestShardedReroute(t *testing.T) {
	sa := NewShardedAdmitter([]LinkConfig{
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(60)},
	})
	s := spec(80, 2)
	if li, r := sa.AdmitRoute([]int{0, 1}, s); li != -1 || r != Accepted {
		t.Fatalf("admit: (%d, %v)", li, r)
	}
	// 0→{1,2}: link 2's 60KB refuses σ=80KB; nothing may change.
	if li, r := sa.Reroute([]int{0, 1}, []int{1, 2}, s); li != 2 || r != BufferLimited {
		t.Fatalf("reroute = (%d, %v), want (2, buffer-limited)", li, r)
	}
	for i, want := range []int{1, 1, 0} {
		if n := sa.Snapshot()[i].NumFlows; n != want {
			t.Errorf("after failed reroute, link %d has %d flows, want %d", i, n, want)
		}
	}
	// Shared link 1 keeps its reservation; 0 releases; nothing admits
	// twice on 1.
	if li, r := sa.Reroute([]int{0, 1}, []int{1}, s); li != -1 || r != Accepted {
		t.Fatalf("shrinking reroute rejected: (%d, %v)", li, r)
	}
	for i, want := range []int{0, 1, 0} {
		if n := sa.Snapshot()[i].NumFlows; n != want {
			t.Errorf("after reroute, link %d has %d flows, want %d", i, n, want)
		}
	}
}

// TestShardedRerouteIdentityNoOp: rerouting a flow onto its own route
// must succeed and change nothing — every link is on both routes, so no
// admission check runs and no reservation moves.
func TestShardedRerouteIdentityNoOp(t *testing.T) {
	sa := twoLinks()
	s := spec(50, 2)
	if li, r := sa.AdmitRoute([]int{0, 1}, s); li != -1 || r != Accepted {
		t.Fatalf("admit: (%d, %v)", li, r)
	}
	before := sa.Snapshot()
	for i := 0; i < 3; i++ {
		if li, r := sa.Reroute([]int{0, 1}, []int{0, 1}, s); li != -1 || r != Accepted {
			t.Fatalf("identity reroute %d rejected: (%d, %v)", i, li, r)
		}
	}
	after := sa.Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("identity reroute moved link %d: %+v -> %+v", i, before[i], after[i])
		}
	}
	// The identity reroute even holds when the flow would no longer pass
	// a fresh admission check: fill link 0 to the brim first.
	if li, r := sa.Reroute([]int{0, 1}, []int{1, 0}, s); li != -1 || r != Accepted {
		t.Errorf("order-permuted identity reroute rejected: (%d, %v)", li, r)
	}
}

// TestShardedRerouteFailureLeavesAllUntouched: a reroute refused on its
// first genuinely-new link must leave every shard's snapshot — shared,
// old-only, and new-only — bit-identical to before.
func TestShardedRerouteFailureLeavesAllUntouched(t *testing.T) {
	sa := NewShardedAdmitter([]LinkConfig{
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(10)},
		{DisciplineWFQ, units.MbitsPerSecond(48), units.KiloBytes(100)},
	})
	s := spec(50, 2)
	if li, r := sa.AdmitRoute([]int{0, 1}, s); li != -1 || r != Accepted {
		t.Fatalf("admit: (%d, %v)", li, r)
	}
	before := sa.Snapshot()
	// New route keeps 1, adds 2 (refuses: 10KB < σ=50KB) then 3. Link 2
	// is first in new-route order, so it is the reported refusal, and
	// link 3 must never see the spec.
	if li, r := sa.Reroute([]int{0, 1}, []int{1, 2, 3}, s); li != 2 || r != BufferLimited {
		t.Fatalf("reroute = (%d, %v), want (2, buffer-limited)", li, r)
	}
	after := sa.Snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("failed reroute changed link %d: %+v -> %+v", i, before[i], after[i])
		}
	}
	// And the flow still holds its original route, which releases to
	// empty links.
	sa.ReleaseRoute([]int{0, 1}, s)
	for i, snap := range sa.Snapshot() {
		if snap.NumFlows != 0 || snap.SumRho != 0 || snap.SumSigma != 0 {
			t.Errorf("link %d not empty after releasing the original route: %+v", i, snap)
		}
	}
}

// TestShardedOneLinkHammer drives one link from 32 goroutines under
// -race: each worker admits its own distinct specs through the link
// view and releases every other one on the one-link route. The link is
// provisioned so everything fits, which makes the final aggregate
// independent of interleaving — it must equal a sequential replay of
// the same per-worker op streams exactly (NumFlows and the integer Σσ
// bit-for-bit).
func TestShardedOneLinkHammer(t *testing.T) {
	const workers = 32
	const perWorker = 200
	mk := func() *ShardedAdmitter {
		return NewShardedAdmitter([]LinkConfig{
			{DisciplineFIFO, units.Gbps, units.MegaBytes(1000)},
		})
	}
	workerSpec := func(w, i int) struct {
		s float64
		r float64
	} {
		return struct {
			s float64
			r float64
		}{s: 1 + float64(w*perWorker+i)/1000, r: 0.01}
	}

	conc := mk()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := conc.Link(0)
			for i := 0; i < perWorker; i++ {
				sp := workerSpec(w, i)
				if got := view.Admit(spec(sp.s, sp.r)); got != Accepted {
					t.Errorf("worker %d admit %d: %v", w, i, got)
					return
				}
				if i%2 == 1 {
					conc.ReleaseRoute([]int{0}, spec(sp.s, sp.r))
				}
			}
		}(w)
	}
	wg.Wait()

	seq := NewSerialAdmitter(DisciplineFIFO, units.Gbps, units.MegaBytes(1000))
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			sp := workerSpec(w, i)
			seq.Admit(spec(sp.s, sp.r))
			if i%2 == 1 {
				seq.Release(spec(sp.s, sp.r))
			}
		}
	}
	got, want := conc.Snapshot()[0], seq.Snapshot()
	if got.NumFlows != want.NumFlows || got.SumSigma != want.SumSigma {
		t.Errorf("concurrent aggregate (n=%d, Σσ=%v) != sequential replay (n=%d, Σσ=%v)",
			got.NumFlows, got.SumSigma, want.NumFlows, want.SumSigma)
	}
}

// TestShardedRouteRace has every worker admit-then-release routes over
// a shared trio of links in clashing orders; under -race this validates
// the canonical lock order (no deadlock) and the atomic check-commit
// (the aggregate returns to exactly zero at the end).
func TestShardedRouteRace(t *testing.T) {
	links := make([]LinkConfig, 8)
	for i := range links {
		links[i] = LinkConfig{DisciplineFIFO, units.Gbps, units.MegaBytes(100)}
	}
	sa := NewShardedAdmitter(links)
	routes := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 7, 3}, {3, 7, 1}, {4, 2, 6}, {6, 2, 4}}
	var wg sync.WaitGroup
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := spec(5+float64(w), 0.1)
			route := routes[w%len(routes)]
			for i := 0; i < 300; i++ {
				if li, r := sa.AdmitRoute(route, s); r != Accepted {
					t.Errorf("worker %d: admit (%d, %v)", w, li, r)
					return
				}
				sa.ReleaseRoute(route, s)
			}
		}(w)
	}
	wg.Wait()
	for i, snap := range sa.Snapshot() {
		if snap.NumFlows != 0 || snap.SumSigma != 0 || snap.SumRho != 0 {
			t.Errorf("link %d not empty after churn: %+v", i, snap)
		}
	}
}

// TestRouteOpsWithoutAllocating: admitting, rerouting and releasing on
// routes of one to three links order and search them on the stack.
func TestRouteOpsWithoutAllocating(t *testing.T) {
	links := make([]LinkConfig, 6)
	for i := range links {
		links[i] = LinkConfig{DisciplineFIFO, units.MbitsPerSecond(48), units.MegaBytes(1)}
	}
	sa := NewShardedAdmitter(links)
	s := spec(10, 1)
	for _, c := range []struct{ route, next []int }{
		{[]int{2}, []int{4}},
		{[]int{3, 0}, []int{0, 5}},
		{[]int{1, 5, 2}, []int{2, 4, 3}},
	} {
		ok := true
		allocs := testing.AllocsPerRun(100, func() {
			_, r1 := sa.AdmitRoute(c.route, s)
			_, r2 := sa.Reroute(c.route, c.next, s)
			sa.ReleaseRoute(c.next, s)
			ok = ok && r1 == Accepted && r2 == Accepted
		})
		if !ok {
			t.Fatalf("route %v -> %v: an operation was refused", c.route, c.next)
		}
		if allocs != 0 {
			t.Errorf("route %v -> %v: %v allocations per admit+reroute+release, want 0", c.route, c.next, allocs)
		}
	}
}

// TestRouteChurnWithoutAllocating: a fresh admitter's first churn —
// 16 distinct specs on 3-link routes, as the benchmark's admission
// templates have, filled to 64 flows, then 1000 steps that each release
// the oldest flow, admit a new one and reroute another, then drained —
// allocates nothing. The benchmark counts a fresh daemon's first
// operations, so the churn starts from empty books.
func TestRouteChurnWithoutAllocating(t *testing.T) {
	links := make([]LinkConfig, 8)
	for i := range links {
		links[i] = LinkConfig{DisciplineFIFO, units.Gbps, units.MegaBytes(100)}
	}
	var specs [16]packet.FlowSpec
	for i := range specs {
		specs[i] = spec(1+float64(i)/3, 0.01*float64(i+1))
	}
	routes := make([][]int, len(links))
	for i := range routes {
		routes[i] = []int{i, (i + 3) % len(links), (i + 5) % len(links)}
	}
	type flow struct {
		route []int
		spec  packet.FlowSpec
	}
	// AllocsPerRun calls the churn twice, a warm-up and the measured
	// run: each gets an admitter of its own, built here.
	fresh := []*ShardedAdmitter{NewShardedAdmitter(links), NewShardedAdmitter(links)}
	var live [64]flow
	refused := 0
	admit := func(sa *ShardedAdmitter, f *flow) {
		if _, r := sa.AdmitRoute(f.route, f.spec); r != Accepted {
			refused++
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		sa := fresh[0]
		fresh = fresh[1:]
		for i := range live {
			live[i] = flow{routes[i%len(routes)], specs[i%len(specs)]}
			admit(sa, &live[i])
		}
		for step := 0; step < 1000; step++ {
			f := &live[step%len(live)]
			sa.ReleaseRoute(f.route, f.spec)
			*f = flow{routes[(step*3)%len(routes)], specs[(step*5)%len(specs)]}
			admit(sa, f)
			g := &live[(step*7+3)%len(live)]
			next := routes[(step+1)%len(routes)]
			if _, r := sa.Reroute(g.route, next, g.spec); r != Accepted {
				refused++
			} else {
				g.route = next
			}
		}
		for i := range live {
			sa.ReleaseRoute(live[i].route, live[i].spec)
		}
	})
	if refused > 0 {
		t.Fatalf("%d operations refused: the churn did not run as planned", refused)
	}
	if allocs != 0 {
		t.Errorf("%v allocations over a fresh admitter's churn, want 0", allocs)
	}
}
