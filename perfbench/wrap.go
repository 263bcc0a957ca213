package main

import (
	"fmt"
	"time"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/telemetry"
	"mccmesh/internal/traffic"
)

// The traced simulation run wraps the mcc information model, its providers
// and the traffic pattern in the types below. Each wrapper implements exactly
// the interfaces of the value it wraps, so the engine takes the same
// CandidateMaskID path it takes on the bare model, and times every call it
// forwards into the layers.

// simLedger accumulates one traced trial's per-call timings. clock is the
// cost of one interval measurement, subtracted from every timed call.
type simLedger struct {
	clock int64
	tel   *telemetry.Sink

	hits, builds       int64 // CandidateMaskID calls classified by the decision_hits delta
	hitNs, buildNs     int64
	hitHist, buildHist logHist
	dests, destNs      int64 // Pattern.Dest calls

	// Churn calls are few (hundreds per trial), so each is kept as a span.
	spans             *spanLog
	parent            int
	id                string
	apply, repairs    int64
	applyNs, repairNs int64
}

// elapsed returns the nanoseconds since t0 less the clock cost.
func (l *simLedger) elapsed(t0 time.Time) int64 {
	ns := int64(time.Since(t0)) - l.clock
	if ns < 0 {
		return 0
	}
	return ns
}

// mccInfoModel is the full interface set of the mcc information model.
type mccInfoModel interface {
	traffic.InfoModel
	traffic.FaultApplier
	traffic.FaultRepairer
	telemetry.Instrumentable
}

// mccProvider is the full interface set of an mcc provider.
type mccProvider interface {
	routing.DecisionProvider
	routing.CacheInvalidator
	telemetry.Instrumentable
}

// tracedModel wraps the mcc information model.
type tracedModel struct {
	inner mccInfoModel
	led   *simLedger
	provs [8]*tracedProvider
}

// newTracedModel wraps im, which must carry the mcc model's interface set.
func newTracedModel(im traffic.InfoModel, led *simLedger) (*tracedModel, error) {
	inner, ok := im.(mccInfoModel)
	if !ok {
		return nil, fmt.Errorf("model %s lacks the mcc interface set", im.Name())
	}
	return &tracedModel{inner: inner, led: led}, nil
}

func (m *tracedModel) Name() string { return m.inner.Name() }

// Provider implements traffic.InfoModel: it wraps the inner provider and
// reuses the wrapper for as long as the inner model hands out the same one.
func (m *tracedModel) Provider(o grid.Orientation) routing.Provider {
	p := m.inner.Provider(o)
	i := o.Index()
	if w := m.provs[i]; w != nil && routing.Provider(w.inner) == p {
		return w
	}
	inner, ok := p.(mccProvider)
	if !ok {
		panic(fmt.Sprintf("perfbench: provider %s lacks the mcc interface set", p.Name()))
	}
	m.provs[i] = &tracedProvider{inner: inner, led: m.led}
	return m.provs[i]
}

func (m *tracedModel) Invalidate() { m.inner.Invalidate() }

// SetTelemetry implements telemetry.Instrumentable; the ledger reads the
// same sink to classify decisions.
func (m *tracedModel) SetTelemetry(s *telemetry.Sink) {
	m.led.tel = s
	m.inner.SetTelemetry(s)
}

// ApplyFaults implements traffic.FaultApplier, timed as a core.apply span.
func (m *tracedModel) ApplyFaults(pts []grid.Point) {
	l := m.led
	start := l.spans.now()
	t0 := time.Now()
	m.inner.ApplyFaults(pts)
	l.applyNs += l.elapsed(t0)
	l.apply++
	l.spans.add("core.apply", l.id, l.parent, start, l.spans.now())
}

// RepairFaults implements traffic.FaultRepairer, timed as a core.repair span.
func (m *tracedModel) RepairFaults(pts []grid.Point) {
	l := m.led
	start := l.spans.now()
	t0 := time.Now()
	m.inner.RepairFaults(pts)
	l.repairNs += l.elapsed(t0)
	l.repairs++
	l.spans.add("core.repair", l.id, l.parent, start, l.spans.now())
}

// tracedProvider wraps one mcc provider.
type tracedProvider struct {
	inner mccProvider
	led   *simLedger
}

func (p *tracedProvider) Name() string                    { return p.inner.Name() }
func (p *tracedProvider) Allowed(u, v, d grid.Point) bool { return p.inner.Allowed(u, v, d) }
func (p *tracedProvider) AllowedID(u, v, d int32) bool    { return p.inner.AllowedID(u, v, d) }
func (p *tracedProvider) InvalidateCache()                { p.inner.InvalidateCache() }
func (p *tracedProvider) SetTelemetry(s *telemetry.Sink)  { p.inner.SetTelemetry(s) }

// CandidateMaskID implements routing.DecisionProvider. A call that raised
// routing.decision_hits was answered from the memoised field (a hit); any
// other call built or rebuilt a field.
func (p *tracedProvider) CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	l := p.led
	h0 := l.tel.Get(telemetry.DecisionHits)
	t0 := time.Now()
	mk := p.inner.CandidateMaskID(m, u, uPt, d, dPt)
	ns := l.elapsed(t0)
	if l.tel.Get(telemetry.DecisionHits) > h0 {
		l.hits++
		l.hitNs += ns
		l.hitHist.add(ns)
	} else {
		l.builds++
		l.buildNs += ns
		l.buildHist.add(ns)
	}
	return mk
}

// tracedPattern wraps the traffic pattern and times Dest.
type tracedPattern struct {
	inner traffic.Pattern
	led   *simLedger
}

func (p *tracedPattern) Name() string { return p.inner.Name() }

func (p *tracedPattern) Dest(r *rng.Rand, m *mesh.Mesh, src grid.Point) (grid.Point, bool) {
	t0 := time.Now()
	d, ok := p.inner.Dest(r, m, src)
	p.led.destNs += p.led.elapsed(t0)
	p.led.dests++
	return d, ok
}
