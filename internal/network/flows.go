package network

import (
	"bufqos/internal/packet"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// Source selects a flow's traffic generator.
type Source uint8

const (
	// SourceNone marks a flow without a generator — one admission
	// rejected. It is never started.
	SourceNone Source = iota
	// SourceOnOff is the paper's Markov-modulated on-off source: the
	// spec's peak rate, average rate Rate, mean burst MeanBurst.
	SourceOnOff
	// SourceCBR emits one packet every PacketSize·8/Rate seconds. A
	// greedy flow is a CBR source offering at its shaper's feed rate.
	SourceCBR
	// SourceTCP is a closed-loop NewReno sender paced at Rate.
	SourceTCP
)

// Regulator selects what sits between a flow's source and its entry.
type Regulator uint8

const (
	// RegulatorNone hands the source's packets straight to the entry.
	RegulatorNone Regulator = iota
	// RegulatorShaper delays packets into the flow's (σ, ρ) envelope.
	RegulatorShaper
	// RegulatorMeter colors packets conformant or excess against the
	// flow's envelope and forwards them without delay.
	RegulatorMeter
)

// Flow is one flow's chain — source, regulator, entry — and the slab
// element it is wired in. A runner describes every flow in one []Flow,
// element i being flow i, and hands the slice to NewFlows.
type Flow struct {
	// Sim is the kernel the flow's source and regulator run on.
	Sim *sim.Simulator
	// Entry receives the flow's packets after its regulator: its first
	// hop.
	Entry      source.Sink
	Spec       packet.FlowSpec
	PacketSize units.Bytes
	// Rate is the source's one rate: the on-off average rate, the CBR
	// emission rate or the TCP pacing rate.
	Rate      units.Rate
	MeanBurst units.Bytes
	Source    Source
	Regulator Regulator

	id    int32
	slot  int32 // index into the slab of the flow's source kind
	reg   int32 // index into the slab of its regulator
	flows *Flows
	src   generator // nil until started
}

// generator is what every source kind offers once initialized.
type generator interface {
	Start()
	Stop()
}

// Flows wires every flow of a run: one slab per source kind and per
// regulator, sized from the flows of that kind, each element set up in
// place by its Init when its flow starts. It is the one place that
// turns a flow description into running sources, and it builds them in
// a constant number of allocations however many flows there are: an
// on-off source's random stream is an element of the rngs slab beside
// it, seeded in place when the flow starts. An element is about 90
// bytes: its stream builds math/rand's 4.9 KB register only past its
// 607th draw, from storage shared in chunks (sim.Source).
type Flows struct {
	flows   []Flow
	seed    int64
	onoffs  []source.OnOff
	rngs    []sim.Rand // rngs[k] is onoffs[k]'s stream
	cbrs    []source.CBR
	tcps    []source.TCP
	shapers []source.Shaper
	meters  []source.Meter
}

// NewFlows takes over flows, sizes the slabs and assigns each flow its
// elements in flow order. Nothing is initialized until a flow starts.
// seed is the base of the on-off streams: flow i draws from
// sim.DeriveSeed(seed, i).
func NewFlows(flows []Flow, seed int64) *Flows {
	fl := &Flows{flows: flows, seed: seed}
	var sources [SourceTCP + 1]int32
	var regulators [RegulatorMeter + 1]int32
	for i := range flows {
		f := &flows[i]
		f.id, f.flows = int32(i), fl
		f.slot = sources[f.Source]
		sources[f.Source]++
		f.reg = regulators[f.Regulator]
		regulators[f.Regulator]++
	}
	fl.onoffs = make([]source.OnOff, sources[SourceOnOff])
	fl.rngs = make([]sim.Rand, sources[SourceOnOff])
	fl.cbrs = make([]source.CBR, sources[SourceCBR])
	fl.tcps = source.TCPs(int(sources[SourceTCP]))
	fl.shapers = source.Shapers(int(regulators[RegulatorShaper]))
	fl.meters = make([]source.Meter, regulators[RegulatorMeter])
	return fl
}

// flowStart and flowStop are a flow's start and stop actions as event
// receivers over its element, so scheduling one costs no closure.
type (
	flowStart Flow
	flowStop  Flow
)

func (f *flowStart) Fire() { (*Flow)(f).start() }

func (f *flowStop) Fire() {
	if f.src != nil {
		f.src.Stop()
	}
}

// Start returns flow i's start action: schedule it with AtHandler, or
// Fire it to start the flow now.
func (fl *Flows) Start(i int) sim.Handler { return (*flowStart)(&fl.flows[i]) }

// Stop returns flow i's stop action, a no-op before the flow starts.
func (fl *Flows) Stop(i int) sim.Handler { return (*flowStop)(&fl.flows[i]) }

// start initializes the flow's regulator and source in their slab
// elements and starts the source. A flow without a source stays idle.
func (f *Flow) start() {
	fl, i := f.flows, int(f.id)
	entry := f.Entry
	switch f.Regulator {
	case RegulatorShaper:
		entry = fl.shapers[f.reg].Init(f.Sim, f.Spec, entry)
	case RegulatorMeter:
		entry = fl.meters[f.reg].Init(f.Sim, f.Spec, entry)
	}
	switch f.Source {
	case SourceOnOff:
		f.src = fl.onoffs[f.slot].Init(f.Sim, fl.rngs[f.slot].Init(sim.DeriveSeed(fl.seed, i)), source.OnOffConfig{
			Flow:       i,
			PacketSize: f.PacketSize,
			PeakRate:   f.Spec.PeakRate,
			AvgRate:    f.Rate,
			MeanBurst:  f.MeanBurst,
		}, entry)
	case SourceCBR:
		f.src = fl.cbrs[f.slot].Init(f.Sim, i, f.PacketSize, f.Rate, entry)
	case SourceTCP:
		f.src = fl.tcps[f.slot].Init(f.Sim, source.TCPConfig{
			Flow:        i,
			SegmentSize: f.PacketSize,
			PaceRate:    f.Rate,
		}, entry)
	default:
		return
	}
	f.src.Start()
}

// TCP returns flow i's sender, or nil when the flow has no TCP source.
// A sender that never started reports zero counts.
func (fl *Flows) TCP(i int) *source.TCP {
	if f := &fl.flows[i]; f.Source == SourceTCP {
		return &fl.tcps[f.slot]
	}
	return nil
}

// Feedback hands p — an acknowledgement, or a data packet a buffer
// manager dropped — to the sender of the flow p names, which releases
// it. For a flow without a sender (see TCP) it releases p on the flow's
// kernel. Bound once, it is the handler of every feedback event and a
// closed-loop link's OnDrop hook.
func (fl *Flows) Feedback(p *packet.Packet) {
	tcp := fl.TCP(p.Flow)
	switch {
	case tcp == nil:
		fl.flows[p.Flow].Sim.Release(p)
	case p.Ack:
		tcp.OnAck(p)
	default:
		tcp.OnDrop(p)
	}
}
