package scheme

import (
	"fmt"

	"bufqos/internal/buffer"
	"bufqos/internal/sched"
	"bufqos/internal/units"
)

// This file builds the combined queue/manager schemes that bring their
// own admission policy: the paper's protective pushout FIFO and the
// class policies of the competitive-analysis models, all from
// internal/buffer. Each builder returns the same object as both manager
// and scheduler — preemption removes already-queued packets, which the
// manager/scheduler split cannot express.

// buildPushout assembles buffer.PushoutFIFO: shares from the paper's
// σᵢ + ρᵢB/R thresholds, or a flat fraction of B per flow when the
// "share" parameter is set.
func buildPushout(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	if cfg.Buffer <= 0 {
		return nil, nil, fmt.Errorf("scheme %s: needs a positive buffer, got %v", s.Spec(), cfg.Buffer)
	}
	share := s.params.get(s.sched.params, "share")
	if share < 0 || share > 1 {
		return nil, nil, fmt.Errorf("scheme %s: share %v outside [0,1]", s.Spec(), share)
	}
	var shares []units.Bytes
	if share == 0 {
		th, err := thresholds(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("scheme %s: %w", s.Spec(), err)
		}
		shares = th
	} else {
		shares = make([]units.Bytes, len(cfg.Specs))
		for i := range shares {
			shares[i] = units.Bytes(share * float64(cfg.Buffer))
		}
	}
	po := buffer.NewPushoutFIFO(cfg.Buffer, shares)
	return po, po, nil
}

// onlineClasses resolves the class count and flow→class map of a
// class-aware online scheme.
func onlineClasses(cfg Config, s *Scheme) (int, []int, error) {
	if cfg.Buffer <= 0 {
		return 0, nil, fmt.Errorf("scheme %s: needs a positive buffer, got %v", s.Spec(), cfg.Buffer)
	}
	v := s.params.get(s.sched.params, "classes")
	n := int(v)
	if float64(n) != v || n < 1 {
		return 0, nil, fmt.Errorf("scheme %s: classes must be a positive integer, got %v", s.Spec(), v)
	}
	if cfg.Classes == nil {
		// Invert the RPQ delay classification: smooth low-burst flows
		// (telephony-like, class 0 there) are the most valuable here.
		classOf := delayClasses(cfg.Specs, n)
		for i, c := range classOf {
			classOf[i] = n - 1 - c
		}
		return n, classOf, nil
	}
	if len(cfg.Classes) != len(cfg.Specs) {
		return 0, nil, fmt.Errorf("scheme %s: %d classes for %d flows", s.Spec(), len(cfg.Classes), len(cfg.Specs))
	}
	for i, c := range cfg.Classes {
		if c < 0 || c >= n {
			return 0, nil, fmt.Errorf("scheme %s: flow %d class %d outside [0,%d)", s.Spec(), i, c, n)
		}
	}
	return n, append([]int(nil), cfg.Classes...), nil
}

func buildClassGreedy(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	n, classOf, err := onlineClasses(cfg, s)
	if err != nil {
		return nil, nil, err
	}
	g := buffer.NewClassGreedy(cfg.Buffer, classOf, n)
	return g, g, nil
}

func buildClassSeg(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	n, classOf, err := onlineClasses(cfg, s)
	if err != nil {
		return nil, nil, err
	}
	cs := buffer.NewClassSeg(cfg.Buffer, classOf, n)
	return cs, cs, nil
}

func buildLQF(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	n, classOf, err := onlineClasses(cfg, s)
	if err != nil {
		return nil, nil, err
	}
	m := buffer.NewMultiQueue(cfg.Buffer, classOf, n, false)
	return m, m, nil
}

func buildSemiGreedy(cfg Config, s *Scheme) (buffer.Manager, sched.Scheduler, error) {
	n, classOf, err := onlineClasses(cfg, s)
	if err != nil {
		return nil, nil, err
	}
	m := buffer.NewMultiQueue(cfg.Buffer, classOf, n, true)
	return m, m, nil
}
