package main

import (
	"fmt"
	"time"

	"mccmesh/internal/block"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/scenario"
	"mccmesh/internal/stats"
)

// The traced serve run replays each cold job's E2 loop — the paper's
// per-pair feasibility check plus adaptive minimal routing — by calling the
// layers directly, with a span around each call. The loop mirrors the
// scenario package's success measure draw for draw, so a replay must
// reproduce the served report's success rates exactly.

// e2Layers totals one replayed job's time per layer.
type e2Layers struct {
	labeling, region, theorem, groundTruth, route, block time.Duration
	routeCalls                                           int
}

// e2Replay runs one replay. With sp nil nothing is timed: that bare replay is
// the untraced side of the tracing overhead.
type e2Replay struct {
	sp     *spanLog
	id     string
	layers e2Layers
}

// call runs f, timing it as a span named name under parent when tracing.
func (x *e2Replay) call(name string, parent int, total *time.Duration, f func()) {
	if x.sp == nil {
		f()
		return
	}
	start := x.sp.now()
	t0 := time.Now()
	f()
	*total += time.Since(t0)
	x.sp.add(name, x.id, parent, start, x.sp.now())
}

// begin starts a parent span; end closes it.
func (x *e2Replay) begin(name string, parent int) int {
	if x.sp == nil {
		return -1
	}
	now := x.sp.now()
	return x.sp.add(name, x.id, parent, now, now)
}

func (x *e2Replay) end(i int) {
	if x.sp != nil {
		x.sp.spans[i].End = x.sp.now()
	}
}

// run replays spec's first (only) fault count and returns the success rates
// keyed as the report's cell values.
func (x *e2Replay) run(spec scenario.Spec) (map[string]float64, error) {
	if len(spec.Faults.Counts) != 1 {
		return nil, fmt.Errorf("replay: want one fault count, got %d", len(spec.Faults.Counts))
	}
	inj, err := spec.Faults.Injector(spec.Faults.Counts[0])
	if err != nil {
		return nil, err
	}
	job := x.begin("job", -1)
	defer x.end(job)
	L := &x.layers
	r := rng.New(spec.Seed)
	var mcc, rfb, rule, labelsOnly, greedy, optimal stats.Summary
	for t := 0; t < spec.Trials; t++ {
		tr := x.begin("trial", job)
		m := spec.Mesh.New()
		inj.Inject(m, r)
		var bb, cr *block.Regions
		x.call("block.build", tr, &L.block, func() { bb = block.Build(m, block.BoundingBox) })
		x.call("block.build", tr, &L.block, func() { cr = block.Build(m, block.ConvexityRule) })
		for p := 0; p < spec.Measure.Pairs; p++ {
			pair := x.begin("pair", tr)
			s, d, l, ok := x.samplePair(r, m, spec.Measure.MinDistance, pair)
			if !ok {
				x.end(pair)
				continue
			}
			var cs *region.ComponentSet
			x.call("region.find", pair, &L.region, func() { cs = region.FindMCCs(l) })
			var feasible, theorem bool
			x.call("feasibility.groundtruth", pair, &L.groundTruth, func() { feasible = feasibility.GroundTruth(cs, s, d) })
			optimal.AddBool(feasible)
			x.call("feasibility.theorem", pair, &L.theorem, func() { theorem = feasibility.Theorem(cs, s, d) })
			if theorem {
				mcc.AddBool(x.route(m, &routing.MCC{Set: cs}, s, d, pair))
			} else {
				mcc.AddBool(false)
			}
			rfb.AddBool(!bb.Contains(s) && !bb.Contains(d) && !bb.BlockedByUnion(s, d))
			rule.AddBool(!cr.Contains(s) && !cr.Contains(d) && !cr.BlockedByUnion(s, d))
			labelsOnly.AddBool(x.route(m, &routing.Labeled{Labeling: l}, s, d, pair))
			greedy.AddBool(x.route(m, routing.LocalGreedy{}, s, d, pair))
			x.end(pair)
		}
		x.end(tr)
	}
	return map[string]float64{
		"mcc": mcc.Mean(), "rfb": rfb.Mean(), "fb_rule": rule.Mean(),
		"labels": labelsOnly.Mean(), "local": greedy.Mean(), "optimal": optimal.Mean(),
	}, nil
}

// route runs Router.Route with the default policy and reports success.
func (x *e2Replay) route(m *mesh.Mesh, p routing.Provider, s, d grid.Point, parent int) bool {
	var ok bool
	x.layers.routeCalls++
	x.call("routing.route", parent, &x.layers.route, func() { ok = routing.New(m, p, nil).Route(s, d).Succeeded() })
	return ok
}

// samplePair draws a healthy pair at the minimum distance whose endpoints are
// safe under the pair's labelling, exactly as the success measure does.
func (x *e2Replay) samplePair(r *rng.Rand, m *mesh.Mesh, minDist, parent int) (grid.Point, grid.Point, *labeling.Labeling, bool) {
	for attempt := 0; attempt < 500; attempt++ {
		s := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if grid.Manhattan(s, d) < minDist || m.IsFaulty(s) || m.IsFaulty(d) {
			continue
		}
		var l *labeling.Labeling
		x.call("labeling.compute", parent, &x.layers.labeling, func() { l = labeling.Compute(m, grid.OrientationOf(s, d)) })
		if l.Safe(s) && l.Safe(d) {
			return s, d, l, true
		}
	}
	return grid.Point{}, grid.Point{}, nil, false
}
