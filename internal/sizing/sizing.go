package sizing

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bufqos/internal/units"
)

// Rule is a buffer-sizing rule: B = Frac · C·RTT, divided by √n when
// Sqrt is set. The resolved size is floored at two segments so every
// cell can at least store-and-forward.
type Rule struct {
	// Name is the canonical spelling ("bdp", "bdp/2", "bdp/sqrtn",
	// "bdp/2sqrtn", ...) used in reports and CLI flags.
	Name string
	// Frac scales the bandwidth–delay product.
	Frac float64
	// Sqrt divides by √n (the many-flows rule).
	Sqrt bool
}

// The named rules of the default grid.
var (
	// RuleBDP is the classic B = C·RTT rule of thumb.
	RuleBDP = Rule{Name: "bdp", Frac: 1}
	// RuleHalfBDP is B = C·RTT/2.
	RuleHalfBDP = Rule{Name: "bdp/2", Frac: 0.5}
	// RuleSqrt is the many-flows rule B = C·RTT/√n.
	RuleSqrt = Rule{Name: "bdp/sqrtn", Frac: 1, Sqrt: true}
	// RuleHalfSqrt is B = C·RTT/(2√n), probing below the √n floor.
	RuleHalfSqrt = Rule{Name: "bdp/2sqrtn", Frac: 0.5, Sqrt: true}
)

// DefaultRules is the rule axis of the default grid.
var DefaultRules = []Rule{RuleBDP, RuleHalfBDP, RuleSqrt, RuleHalfSqrt}

// DefaultSchemes is the scheme axis of the default grid: the paper's
// FIFO ladder (tail-drop, per-flow thresholds, threshold sharing, RED)
// plus per-flow WFQ with sharing.
var DefaultSchemes = []string{"fifo+none", "fifo+threshold", "fifo+sharing", "fifo+red", "wfq+sharing"}

// ParseRule reads a rule spelling: "bdp", "bdp/<k>", "bdp/sqrtn", or
// "bdp/<k>sqrtn", where <k> is a positive number dividing the BDP.
func ParseRule(s string) (Rule, error) {
	r := Rule{Name: s, Frac: 1}
	rest, ok := strings.CutPrefix(s, "bdp")
	if !ok {
		return Rule{}, fmt.Errorf("sizing: rule %q does not start with \"bdp\"", s)
	}
	if rest == "" {
		return r, nil
	}
	den, ok := strings.CutPrefix(rest, "/")
	if !ok {
		return Rule{}, fmt.Errorf("sizing: rule %q: want bdp[/<k>][sqrtn]", s)
	}
	if den == "" {
		return Rule{}, fmt.Errorf("sizing: rule %q: want bdp[/<k>][sqrtn]", s)
	}
	if d, found := strings.CutSuffix(den, "sqrtn"); found {
		r.Sqrt = true
		den = d
	}
	if den != "" {
		k, err := strconv.ParseFloat(den, 64)
		if err != nil || k <= 0 {
			return Rule{}, fmt.Errorf("sizing: rule %q: %q is not a positive divisor", s, den)
		}
		r.Frac = 1 / k
	}
	return r, nil
}

// Resolve returns the buffer size the rule prescribes for n flows on a
// link of rate c with round-trip time rtt, floored at two segments.
func (r Rule) Resolve(c units.Rate, rtt float64, n int, segment units.Bytes) units.Bytes {
	b := r.Frac * c.BytesPerSecond() * rtt
	if r.Sqrt {
		b /= math.Sqrt(float64(n))
	}
	if floor := 2 * segment; b < float64(floor) {
		return floor
	}
	return units.Bytes(math.Round(b))
}

// CellSpec names one point of the sweep.
type CellSpec struct {
	// Flows is the population size n.
	Flows int
	// Rule sizes the bottleneck buffer.
	Rule Rule
	// Scheme is the bottleneck's scheme-registry spec (e.g.
	// "fifo+threshold", "wfq+sharing").
	Scheme string
	// Open switches the population from closed-loop TCP to open-loop
	// (σ,ρ)-profiled on-off sources.
	Open bool
}

// Grid crosses flow counts, rules, and schemes into cell specs, in the
// deterministic n-major order the default report uses.
func Grid(flows []int, rules []Rule, schemes []string, open bool) []CellSpec {
	cells := make([]CellSpec, 0, len(flows)*len(rules)*len(schemes))
	for _, n := range flows {
		for _, r := range rules {
			for _, s := range schemes {
				cells = append(cells, CellSpec{Flows: n, Rule: r, Scheme: s, Open: open})
			}
		}
	}
	return cells
}

// DefaultGrid is the committed benchmark's cell list: the full
// closed-loop cross product up to n = 10⁴, an open-loop slice, and
// reduced large-n cells (10⁵ and 10⁶ flows) probing the √n rule and
// the BDP rule where the full cross product would dominate the run
// time without adding information.
func DefaultGrid() []CellSpec {
	cells := Grid([]int{10, 100, 1000, 10000}, DefaultRules, DefaultSchemes, false)
	cells = append(cells, Grid([]int{100, 1000}, DefaultRules,
		[]string{"fifo+none", "fifo+threshold", "wfq+sharing"}, true)...)
	return append(cells,
		CellSpec{Flows: 100000, Rule: RuleSqrt, Scheme: "fifo+none"},
		CellSpec{Flows: 100000, Rule: RuleSqrt, Scheme: "fifo+threshold"},
		CellSpec{Flows: 1000000, Rule: RuleSqrt, Scheme: "fifo+none"},
		CellSpec{Flows: 1000000, Rule: RuleBDP, Scheme: "fifo+none"},
	)
}

// Config describes a sweep. Zero values take the defaults noted on each
// field, so Config{} runs the committed benchmark's configuration.
type Config struct {
	// LinkRate is the bottleneck capacity C (default 100 Mb/s).
	LinkRate units.Rate
	// RTT is the two-way propagation delay in seconds (default 40 ms);
	// C·RTT is the BDP every rule scales.
	RTT float64
	// SegmentSize is the data-packet size (default 1500 bytes).
	SegmentSize units.Bytes
	// Duration is the simulated horizon per cell in seconds (default 10
	// when zero); Sweep rejects a negative, NaN or infinite one.
	Duration float64
	// Warmup discards measurements before this time (default
	// Duration/4 when zero); Sweep rejects a NaN or negative one and one
	// at or past the horizon.
	Warmup float64
	// Seed derives every cell's RNG stream (default 1).
	Seed int64
	// Workers fans cells over the experiment pool (0 = GOMAXPROCS);
	// reports are bit-identical at any setting.
	Workers int
	// Cells lists the sweep points (default DefaultGrid()).
	Cells []CellSpec
}

func (c *Config) linkRate() units.Rate {
	if c.LinkRate > 0 {
		return c.LinkRate
	}
	return units.MbitsPerSecond(100)
}

func (c *Config) rtt() float64 {
	if c.RTT > 0 {
		return c.RTT
	}
	return 0.040
}

func (c *Config) segmentSize() units.Bytes {
	if c.SegmentSize > 0 {
		return c.SegmentSize
	}
	return 1500
}

func (c *Config) duration() float64 {
	if c.Duration > 0 {
		return c.Duration
	}
	return 10
}

func (c *Config) warmup() float64 {
	if c.Warmup > 0 {
		return c.Warmup
	}
	return c.duration() / 4
}

func (c *Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c *Config) cells() []CellSpec {
	if len(c.Cells) > 0 {
		return c.Cells
	}
	return DefaultGrid()
}

// Cell is one sweep point's measurements.
type Cell struct {
	// Flows, Rule, Scheme, and Open echo the CellSpec.
	Flows  int
	Rule   string
	Scheme string
	Open   bool `json:",omitempty"`

	// Buffer is the resolved bottleneck buffer in bytes; BufferPkts the
	// same in segments.
	Buffer     units.Bytes
	BufferPkts float64
	// RequiredBuffer is the paper's equation-9 minimum for the cell's
	// declared (σ,ρ) population, and Bound whether Buffer meets it —
	// i.e. whether the Propositions 1/2 lossless guarantee is in force.
	RequiredBuffer units.Bytes
	Bound          bool

	// Utilization is delivered bottleneck throughput over capacity
	// during the measurement window; Loss the dropped/offered byte
	// ratio.
	Utilization float64
	Loss        float64
	// MeanDelayMs, P99DelayMs, and MaxDelayMs summarize the bottleneck
	// queueing delay (arrival to departure) in milliseconds.
	MeanDelayMs float64
	P99DelayMs  float64
	MaxDelayMs  float64
	// Fairness is the Jain index of per-flow goodput (closed loop) or
	// delivered bytes (open loop): 1 is perfectly even, 1/n maximally
	// skewed.
	Fairness float64

	// Retransmits and Timeouts total the TCP senders' recovery activity
	// (zero for open-loop cells).
	Retransmits int64 `json:",omitempty"`
	Timeouts    int64 `json:",omitempty"`

	// Events is the cell's simulation event count — a determinism
	// fingerprint that must not depend on the worker count.
	Events uint64
}

// Report is a completed sweep: the configuration echo plus one Cell per
// CellSpec, in spec order. It contains no timestamps or host details,
// so a re-run with the same Config is byte-identical.
type Report struct {
	LinkRateMbps float64
	RTT          float64
	SegmentSize  units.Bytes
	Duration     float64
	Warmup       float64
	Seed         int64
	Cells        []Cell
}

// jain returns the Jain fairness index (Σx)²/(n·Σx²) of the values, 0
// when every value is zero.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
