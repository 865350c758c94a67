package online

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"bufqos/internal/jsonscan"
)

// Model selects the buffer discipline an instance (and a policy) is
// defined over.
type Model string

const (
	// ModelShared is the single shared B-slot buffer of the value /
	// class-segregation model: packets of any class share the buffer and
	// compete by value.
	ModelShared Model = "shared"
	// ModelMultiQueue is the multi-queue switch model: every queue has
	// its own B-slot buffer and one packet is transmitted per step from
	// a queue of the policy's choosing. Values are 1 in the papers; the
	// solver accepts arbitrary values.
	ModelMultiQueue Model = "multiqueue"
)

// Arrival is one unit-size packet of an arrival sequence.
type Arrival struct {
	// At is the time step the packet arrives (step = arrivals, then one
	// transmission).
	At int `json:"at"`
	// Queue is the packet's queue (multi-queue model) or class (shared
	// model; higher index = more valuable class).
	Queue int `json:"queue"`
	// Value is the benefit of transmitting the packet.
	Value float64 `json:"value"`
}

// Instance is one replayable competitive-analysis input: the model, the
// buffer geometry, and the arrival sequence. Instances are what
// adversaries generate, policies run on, the offline solver optimizes,
// and qcomp -replay reads back.
type Instance struct {
	// Name labels the instance in reports and reproducer files.
	Name string `json:"name,omitempty"`
	// Model is the buffer discipline.
	Model Model `json:"model"`
	// Queues is the number of queues (multi-queue model) or classes
	// (shared model); at least 1.
	Queues int `json:"queues"`
	// Buffer is the per-queue (multiqueue) or shared (shared) capacity
	// in packets.
	Buffer int `json:"buffer"`
	// Arrivals is the sequence, sorted by At (ties keep order: the
	// within-step offer order is part of the instance).
	Arrivals []Arrival `json:"arrivals"`
}

// Validate reports a descriptive error for malformed instances and
// stable-sorts arrivals by time.
func (in *Instance) Validate() error {
	switch in.Model {
	case ModelShared, ModelMultiQueue:
	default:
		return fmt.Errorf("online: unknown model %q (want %q or %q)", in.Model, ModelShared, ModelMultiQueue)
	}
	if in.Queues < 1 {
		return fmt.Errorf("online: instance needs at least one queue, got %d", in.Queues)
	}
	if in.Buffer < 1 {
		return fmt.Errorf("online: instance needs a positive buffer, got %d", in.Buffer)
	}
	for i, a := range in.Arrivals {
		if a.At < 0 {
			return fmt.Errorf("online: arrival %d at negative time %d", i, a.At)
		}
		if a.Queue < 0 || a.Queue >= in.Queues {
			return fmt.Errorf("online: arrival %d queue %d outside [0,%d)", i, a.Queue, in.Queues)
		}
		if a.Value <= 0 {
			return fmt.Errorf("online: arrival %d non-positive value %v", i, a.Value)
		}
	}
	sort.SliceStable(in.Arrivals, func(i, j int) bool { return in.Arrivals[i].At < in.Arrivals[j].At })
	return nil
}

// TotalValue returns the sum of all arrival values — the trivial upper
// bound on any benefit.
func (in *Instance) TotalValue() float64 {
	var sum float64
	for _, a := range in.Arrivals {
		sum += a.Value
	}
	return sum
}

// horizon returns one past the last step at which a transmission could
// still be useful: every kept packet needs its own slot at or after its
// arrival, so lastAt + len(arrivals) slots always suffice.
func (in *Instance) horizon() int {
	if len(in.Arrivals) == 0 {
		return 0
	}
	last := in.Arrivals[len(in.Arrivals)-1].At
	return last + len(in.Arrivals) + 1
}

// Clone returns a deep copy (adversaries mutate candidates in place).
func (in *Instance) Clone() *Instance {
	cp := *in
	cp.Arrivals = append([]Arrival(nil), in.Arrivals...)
	return &cp
}

// Write serializes the instance as indented JSON, the format
// `qcomp -replay` reads back.
func (in *Instance) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// Parse reads and validates an instance from r. Unknown fields and
// data after the instance are rejected so typos in hand-written files
// surface immediately.
func Parse(r io.Reader) (*Instance, error) {
	var in Instance
	if err := jsonscan.Decode(r, &in); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// LoadInstance parses the instance file at path.
func LoadInstance(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	defer f.Close()
	in, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return in, nil
}
