package topology

// FlowTable is the struct-of-arrays route index of a validated
// topology: every flow's route flattened into one CSR layout, plus the
// inverse mapping from each link to the flows traversing it. The
// scenario engine uses it for O(1) next-hop and link-local flow-id
// lookups on the forwarding fast path, instead of chasing per-flow
// route slices and per-link maps.
type FlowTable struct {
	// RouteOff has one entry per flow plus a sentinel: flow f's hops
	// occupy RouteLink[RouteOff[f]:RouteOff[f+1]].
	RouteOff []int32
	// RouteLink is the link index at each hop.
	RouteLink []int32
	// RouteLocal is the flow's link-local index at each hop: its
	// position in LinkFlows[RouteLink[h]]. Engines that build a link's
	// data plane over only the flows traversing it renumber packet Flow
	// fields with these.
	RouteLocal []int32
	// LinkFlows maps each link to the global ids of the flows traversing
	// it, in ascending order. A flow crossing a link twice (a looping
	// route) appears once.
	LinkFlows [][]int32
}

// NewFlowTable indexes a validated topology (Routes must be resolved).
func NewFlowTable(t *Topology) *FlowTable {
	ft := &FlowTable{
		RouteOff:  make([]int32, len(t.Flows)+1),
		LinkFlows: make([][]int32, len(t.Links)),
	}
	hops := 0
	for i := range t.Flows {
		hops += len(t.Flows[i].Route)
	}
	ft.RouteLink = make([]int32, 0, hops)
	ft.RouteLocal = make([]int32, 0, hops)
	// Count each link's flows first and carve every LinkFlows list from
	// one array, so the index costs the same handful of allocations at
	// any flow count.
	seen := make([]int32, len(t.Links)) // last flow counted/appended per link, +1
	count := make([]int32, len(t.Links))
	for fi := range t.Flows {
		for _, li := range t.Flows[fi].Route {
			if seen[li] != int32(fi)+1 {
				count[li]++
				seen[li] = int32(fi) + 1
			}
		}
	}
	total := int32(0)
	for _, c := range count {
		total += c
	}
	all := make([]int32, total)
	off := int32(0)
	for li, c := range count {
		if c > 0 {
			ft.LinkFlows[li] = all[off : off : off+c]
		}
		off += c
	}
	clear(seen)
	// Iterating flows in id order makes every LinkFlows list ascending
	// without a sort.
	for fi := range t.Flows {
		ft.RouteOff[fi] = int32(len(ft.RouteLink))
		for _, li := range t.Flows[fi].Route {
			if seen[li] != int32(fi)+1 {
				ft.LinkFlows[li] = append(ft.LinkFlows[li], int32(fi))
				seen[li] = int32(fi) + 1
			}
			ft.RouteLink = append(ft.RouteLink, int32(li))
			ft.RouteLocal = append(ft.RouteLocal, int32(len(ft.LinkFlows[li])-1))
		}
	}
	ft.RouteOff[len(t.Flows)] = int32(len(ft.RouteLink))
	return ft
}
