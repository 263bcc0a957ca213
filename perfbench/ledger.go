package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run: a call into a layer, made
// from the benchmark's own code. Aggregate spans stand for many short calls
// (one per routing decision) that are too numerous to keep one by one: they
// carry the call count and the summed busy time instead of an interval.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"` // the trial or job the span belongs to
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// duration is the time the span covers: its interval, or for an aggregate
// span the summed busy time of its calls.
func (s *span) duration() int64 {
	if s.Count > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// spanLog keeps the spans of one run in memory; write puts them out when the
// run ends. Times are nanoseconds since the log's origin.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// now returns the log clock.
func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

// add records an interval span and returns its index (the parent handle of
// its children). A nil log records nothing and returns -1.
func (l *spanLog) add(name, id string, parent int, start, end int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

// addAggregate records count calls totalling busy nanoseconds.
func (l *spanLog) addAggregate(name, id string, parent int, count, busy int64) {
	if l == nil || count == 0 {
		return
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Count: count, Busy: busy})
}

// selfTimes returns, per span name, the summed self time in nanoseconds: each
// span's duration minus the time its direct children cover. Children of one
// parent never overlap here (every layer call is synchronous), so covered
// time is the sum of their durations.
func (l *spanLog) selfTimes() map[string]int64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.duration()
		}
	}
	self := make(map[string]int64)
	for i := range l.spans {
		self[l.spans[i].Name] += l.spans[i].duration() - child[i]
	}
	return self
}

// write puts the spans out as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// logHist is a log-linear histogram of nanosecond durations: 16 buckets per
// power of two, so a quantile read from it is within about 4.5% of the exact
// value. It lets the traced run keep the distribution of millions of
// routing-decision timings in a few kilobytes.
type logHist struct {
	counts [64 * 16]int64
	n      int64
}

func (h *logHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(float64(ns)) * 16)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
}

// quantile returns the geometric centre of the bucket holding the q-quantile.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Exp2((float64(b) + 0.5) / 16)
		}
	}
	return math.Exp2(float64(len(h.counts)) / 16)
}

// clockCost measures the cost of one interval measurement — two monotonic
// clock reads — as the median of many back-to-back pairs. Timed calls
// subtract it so the ledger reports the layer's time, not the timer's.
func clockCost() int64 {
	const n = 20001
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0))
	}
	return int64(median(xs))
}

// mustJSON renders v for the detail file; the types it sees always encode.
func mustJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode detail: %v", err))
	}
	return b
}
