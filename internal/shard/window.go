package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Item is one unit of in-flight work crossing shards at a barrier: it
// must appear on shard Dst at simulated Time, and was produced by an
// event that executed at Sched (Sched ≤ Time; the gap is the edge's
// lookahead). The coordinator merges each destination's items in
// (Time, Sched, tie) order, which is exactly the order a single global
// event queue would have dispatched them in.
type Item[T any] struct {
	Dst   int
	Time  float64
	Sched float64
	Load  T
}

// Config parameterizes one coordinated run.
type Config struct {
	// Shards is the number of workers (≥ 1).
	Shards int
	// Window is the lookahead W: the minimum over cut edges of the time
	// between production and remote appearance. +Inf (no cut edges)
	// means the whole horizon is one window.
	Window float64
	// Horizon is the simulated end time.
	Horizon float64
	// MinWindows, when > 0, caps the window at Horizon/MinWindows so a
	// run stays cancellable even when the lookahead is large. Shrinking
	// the window never affects results — any boundary set that respects
	// W produces the same exchange order — only barrier frequency.
	MinWindows int
}

// Stats summarizes one coordinated run's synchronization behaviour.
type Stats struct {
	// Windows is the number of barrier rounds executed, including the
	// boundary passes at the horizon.
	Windows int
	// NullBundles counts, per shard, the rounds where the shard had
	// nothing to send — the null messages of classic conservative PDES.
	NullBundles []int64
	// Exchanged counts, per shard, the items it received.
	Exchanged []int64
	// Stalls counts, per shard, the rounds where the worker finished
	// before the barrier released it (it sat idle waiting on its peers).
	Stalls []int64
}

// windowCmd releases one worker into its next round.
type windowCmd struct {
	limit float64
	final bool
}

// Run drives cfg.Shards workers through conservative windows until
// cfg.Horizon.
//
// run executes shard's events: strictly before limit when final is
// false, through limit inclusive when final is true. It returns the
// items produced for other shards during the round. inject delivers a
// sorted batch of items to their destination shard; it is called only
// between rounds, never concurrently with run. tieLess breaks residual
// (Time, Sched) ties; it must induce a total order for the merge to be
// deterministic.
//
// The schedule is: exclusive windows [0,T₁), [T₁,T₂), … with
// T_{j+1} = fl(T_j + W) until the horizon, then inclusive boundary
// passes at the horizon that repeat while crossings keep landing at
// exactly that instant (a packet can hop at most route-length cut
// edges per timestamp, so the passes terminate).
//
// Causality is checked: an item whose Time precedes the closed window's
// end would have to be inserted into simulated history the receiving
// shard already executed, so Run fails rather than silently reorder.
// The float subtlety is why the check cannot trip for a correct caller:
// an item produced at sched ≥ T crossing an edge with lookahead ≥ W has
// Time = fl(sched + lookahead) ≥ fl(T + W) because correctly-rounded
// addition is monotone. Arrivals at exactly the window end are fine —
// the end is excluded from the closed window and included in the next.
func Run[T any](ctx context.Context, cfg Config,
	run func(shard int, limit float64, final bool) []Item[T],
	inject func(shard int, items []Item[T]),
	tieLess func(a, b T) bool) (Stats, error) {

	n := cfg.Shards
	st := Stats{
		NullBundles: make([]int64, n),
		Exchanged:   make([]int64, n),
		Stalls:      make([]int64, n),
	}
	if n < 1 {
		return st, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if cfg.Horizon <= 0 {
		return st, fmt.Errorf("shard: non-positive horizon %v", cfg.Horizon)
	}
	w := cfg.Window
	if cfg.MinWindows > 0 {
		if ceil := cfg.Horizon / float64(cfg.MinWindows); w > ceil {
			w = ceil
		}
	}
	if math.IsNaN(w) || w <= 0 {
		return st, fmt.Errorf("shard: non-positive window %v (a zero-lookahead cut edge?)", w)
	}

	cmds := make([]chan windowCmd, n)
	outs := make([]chan []Item[T], n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cmds[i] = make(chan windowCmd, 1)
		outs[i] = make(chan []Item[T], 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := range cmds[i] {
				outs[i] <- run(i, c.limit, c.final)
			}
		}(i)
	}
	defer func() {
		for i := range cmds {
			close(cmds[i])
		}
		wg.Wait()
	}()

	buckets := make([][]Item[T], n)
	// round runs every shard through one barrier round and re-buckets
	// the produced items by destination.
	round := func(limit float64, final bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			cmds[i] <- windowCmd{limit: limit, final: final}
		}
		for d := range buckets {
			buckets[d] = buckets[d][:0]
		}
		for i := 0; i < n; i++ {
			items, stalled := recvCounting(outs[i])
			if stalled {
				st.Stalls[i]++
			}
			if len(items) == 0 {
				st.NullBundles[i]++
			}
			for _, it := range items {
				if it.Dst < 0 || it.Dst >= n {
					return fmt.Errorf("shard %d produced item for unknown shard %d", i, it.Dst)
				}
				buckets[it.Dst] = append(buckets[it.Dst], it)
			}
		}
		st.Windows++
		for d := 0; d < n; d++ {
			sortBucket(buckets[d], tieLess)
		}
		return nil
	}

	// Exclusive windows up to the horizon.
	for t := 0.0; t < cfg.Horizon; {
		limit := t + w
		if limit > cfg.Horizon {
			limit = cfg.Horizon
		}
		if err := round(limit, false); err != nil {
			return st, err
		}
		for d := 0; d < n; d++ {
			b := buckets[d]
			if len(b) == 0 {
				continue
			}
			if b[0].Time < limit {
				return st, fmt.Errorf("shard: causality violation: item due at %v before window end %v (lookahead too small)", b[0].Time, limit)
			}
			st.Exchanged[d] += int64(len(b))
			inject(d, b)
		}
		t = limit
	}

	// Boundary passes: execute events at exactly the horizon, repeating
	// while crossings land at that same instant. Items due past the
	// horizon are dropped — a single global kernel would leave them
	// pending too.
	for {
		if err := round(cfg.Horizon, true); err != nil {
			return st, err
		}
		again := false
		for d := 0; d < n; d++ {
			b := buckets[d]
			if len(b) == 0 {
				continue
			}
			if b[0].Time < cfg.Horizon {
				return st, fmt.Errorf("shard: causality violation: item due at %v before horizon %v", b[0].Time, cfg.Horizon)
			}
			at := b
			for len(at) > 0 && at[len(at)-1].Time > cfg.Horizon {
				at = at[:len(at)-1]
			}
			if len(at) == 0 {
				continue
			}
			st.Exchanged[d] += int64(len(at))
			inject(d, at)
			again = true
		}
		if !again {
			return st, nil
		}
	}
}

// sortBucket orders one destination's items in global dispatch order.
func sortBucket[T any](b []Item[T], tieLess func(a, b T) bool) {
	sort.Slice(b, func(i, j int) bool {
		if b[i].Time != b[j].Time {
			return b[i].Time < b[j].Time
		}
		if b[i].Sched != b[j].Sched {
			return b[i].Sched < b[j].Sched
		}
		return tieLess(b[i].Load, b[j].Load)
	})
}

// recvCounting receives a worker's bundle, reporting whether the
// coordinator found it already waiting (the worker finished before the
// barrier released it — a stall on the worker's side).
func recvCounting[T any](out chan []Item[T]) ([]Item[T], bool) {
	select {
	case items := <-out:
		return items, true
	default:
		return <-out, false
	}
}
