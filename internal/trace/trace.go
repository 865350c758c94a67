// Package trace provides observation helpers for simulations: a
// periodic sampler that turns instantaneous state (queue occupancies,
// sharing-pool levels, registry metrics) into time series. The paper's
// Example 1 dynamics — the greedy flow pinning its share while the
// conformant flow's occupancy converges — are directly visible through
// it.
package trace

import (
	"fmt"
	"io"
	"strings"

	"bufqos/internal/sim"
)

// Sampler periodically evaluates a probe function and stores the
// samples as rows of a time series.
type Sampler struct {
	sim      *sim.Simulator
	interval float64
	probe    func() []float64
	labels   []string
	times    []float64
	rows     [][]float64
	stopped  bool
}

// NewSampler creates a sampler that calls probe every interval seconds
// once started. labels name the probe's columns.
func NewSampler(s *sim.Simulator, interval float64, labels []string, probe func() []float64) *Sampler {
	if interval <= 0 {
		panic(fmt.Sprintf("trace: non-positive sample interval %v", interval))
	}
	if probe == nil {
		panic("trace: nil probe")
	}
	return &Sampler{sim: s, interval: interval, probe: probe, labels: labels}
}

// Start begins sampling at the current time; sampling continues until
// Stop or the event queue drains.
func (sa *Sampler) Start() {
	sa.sample()
}

// Stop halts future samples.
func (sa *Sampler) Stop() { sa.stopped = true }

func (sa *Sampler) sample() {
	if sa.stopped {
		return
	}
	// Completions the kernel holds ahead of the clock (a FIFO link's
	// computed departures) land first, so the probe reads the state
	// their events would have left.
	sa.sim.Settle()
	row := sa.probe()
	if len(sa.labels) > 0 && len(row) != len(sa.labels) {
		panic(fmt.Sprintf("trace: probe returned %d values for %d labels", len(row), len(sa.labels)))
	}
	sa.times = append(sa.times, sa.sim.Now())
	sa.rows = append(sa.rows, append([]float64(nil), row...))
	sa.sim.After(sa.interval, sa.sample)
}

// Len returns the number of samples taken.
func (sa *Sampler) Len() int { return len(sa.rows) }

// Times returns the sample instants.
func (sa *Sampler) Times() []float64 { return sa.times }

// Column returns one column of the series by label; false when absent.
func (sa *Sampler) Column(label string) ([]float64, bool) {
	for i, l := range sa.labels {
		if l == label {
			col := make([]float64, len(sa.rows))
			for r, row := range sa.rows {
				col[r] = row[i]
			}
			return col, true
		}
	}
	return nil, false
}

// WriteCSV emits "time,<labels...>" rows.
func (sa *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(sa.labels, ",")); err != nil {
		return err
	}
	for i, at := range sa.times {
		parts := make([]string, 0, len(sa.rows[i])+1)
		parts = append(parts, fmt.Sprintf("%g", at))
		for _, v := range sa.rows[i] {
			parts = append(parts, fmt.Sprintf("%g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil {
			return err
		}
	}
	return nil
}
