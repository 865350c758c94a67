package packet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/experiment"
	"bufqos/internal/packet"
	"bufqos/internal/scheme"
	"bufqos/internal/sizing"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// The use-after-release guard. With packet.PoisonReleased on, every
// released packet reads as flow -1, size -1, sequence 2⁶⁴-1 until the
// pool hands it out again, so a component that touches a packet after
// passing it downstream indexes out of range or moves a result. Each
// engine is run under the hook over the paths that end a packet's life
// — rejection, pushout, departure, delivery, ACK and drop feedback, the
// shard barrier — and must report exactly what it reports without it.

// poisoned runs fn with released packets poisoned.
func poisoned[T any](fn func() T) T {
	defer packet.PoisonReleased()()
	return fn()
}

// TestPoisonTable1EveryScheme: one short Table 1 run of every
// registered scheduler×manager combination — the legacy golden's
// scenario, so its fourteen specs are covered too, along with
// PushoutFIFO and the class policies, which evict queued packets.
func TestPoisonTable1EveryScheme(t *testing.T) {
	for _, spec := range scheme.Specs() {
		run := func() experiment.Result {
			o := experiment.NewOptions(
				experiment.WithFlows(experiment.Table1Flows()),
				experiment.WithSchemeSpec(spec),
				experiment.WithBuffer(units.KiloBytes(500)),
				experiment.WithHeadroom(units.KiloBytes(250)),
				experiment.WithQueues(experiment.Table1QueueOf()),
				experiment.WithDuration(2),
				experiment.WithWarmup(0.2),
				experiment.WithSeed(7),
			)
			o.TrackDelays = true
			res, err := experiment.Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			return res
		}
		if clean, got := run(), poisoned(run); !reflect.DeepEqual(clean, got) {
			t.Errorf("%s: result moved under poisoned release:\n clean    %+v\n poisoned %+v", spec, clean, got)
		}
	}
}

// TestPoisonTopologyGoldens runs every shipped scenario under the hook
// against the topology package's committed goldens, and the closed-loop
// one (gfr3: ACKs and drop notifications riding reverse links) again at
// four shards, where packets cross the barrier in both directions.
func TestPoisonTopologyGoldens(t *testing.T) {
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "topologies", "*.json"))
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no shipped scenarios under topologies/ (%v)", err)
	}
	for _, path := range scenarios {
		name := filepath.Base(path)
		topo, err := topology.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "topology", "testdata", "goldens", name))
		if err != nil {
			t.Fatal(err)
		}
		shardCounts := []int{1}
		if name == "gfr3.json" {
			shardCounts = []int{1, 4}
		}
		for _, shards := range shardCounts {
			got := poisoned(func() []byte {
				res, err := topology.Run(context.Background(), topo, topology.Options{Duration: 3, Seed: 42, Shards: shards})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b, err := json.MarshalIndent(&res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return append(b, '\n')
			})
			if string(got) != string(want) {
				t.Errorf("%s at %d shard(s): result under poisoned release diverges from the committed golden at %s", name, shards, firstDiff(got, want))
			}
		}
	}
}

// TestPoisonSizingClosedLoopCell: NewReno senders, the delivery
// endpoint's ACKs and the link's drop notifications on one kernel.
func TestPoisonSizingClosedLoopCell(t *testing.T) {
	run := func() *sizing.Report {
		rep, err := sizing.Sweep(context.Background(), sizing.Config{
			Cells:    []sizing.CellSpec{{Flows: 50, Rule: sizing.RuleSqrt, Scheme: "fifo+threshold"}},
			Duration: 2, Seed: 3, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean, got := run(), poisoned(run)
	if clean.Cells[0].Loss == 0 {
		t.Error("cell dropped nothing: the drop-feedback path was not exercised")
	}
	if !reflect.DeepEqual(clean, got) {
		t.Errorf("report moved under poisoned release:\n clean    %+v\n poisoned %+v", clean.Cells[0], got.Cells[0])
	}
}

// TestPoisonSizingOpenLoopCell: on-off sources into wfq+sharing, the
// shape of the link-wfq-1k benchmark cell at small n. The departure
// hook books the queueing delay and releases the packet itself.
func TestPoisonSizingOpenLoopCell(t *testing.T) {
	run := func() *sizing.Report {
		rep, err := sizing.Sweep(context.Background(), sizing.Config{
			Cells:    []sizing.CellSpec{{Flows: 50, Rule: sizing.RuleSqrt, Scheme: "wfq+sharing", Open: true}},
			Duration: 2, Seed: 3, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean, got := run(), poisoned(run)
	if clean.Cells[0].MeanDelayMs == 0 {
		t.Error("no queueing delay booked: the departure path was not exercised")
	}
	if !reflect.DeepEqual(clean, got) {
		t.Errorf("report moved under poisoned release:\n clean    %+v\n poisoned %+v", clean.Cells[0], got.Cells[0])
	}
}

// firstDiff names the first line in which got differs from want, with
// both sides: on an indented JSON result it reads as the field that
// moved, e.g. `line 12: golden "Events": 365598, got "Events": 331815`.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		gl, wl := "(end)", "(end)"
		if i < len(g) {
			gl = strings.TrimSpace(g[i])
		}
		if i < len(w) {
			wl = strings.TrimSpace(w[i])
		}
		if gl != wl {
			return fmt.Sprintf("line %d: golden %s, got %s", i+1, wl, gl)
		}
	}
	return "no differing line"
}
