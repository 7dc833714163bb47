package main

import (
	"slices"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op; a
// root span has Parent -1. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the run writes them out when it ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].End = t.now()
}

// layerStat aggregates one span name: calls and total duration, each
// weighted.
type layerStat struct {
	Calls  float64
	TotalS float64
}

// closure is the stage-closure check: over the ops kept, the spans named
// Whole must be covered by the layer spans named in Parts, which never
// overlap one another (every traced call is made from one goroutine). Gap
// is the share of Whole the parts leave uncovered; the check passes when it
// lies in [Min, Max].
type closure struct {
	Whole  string   `json:"whole"`
	Parts  []string `json:"parts"`
	Ops    int      `json:"ops"`
	WholeS float64  `json:"whole_s"`
	PartsS float64  `json:"parts_s"`
	Gap    float64  `json:"gap_frac"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Pass   bool     `json:"pass"`
}

// checkClosure sums the durations of the spans named whole and of those
// named in parts, over the ops keep accepts, and checks the gap.
func checkClosure(spans []span, whole string, parts []string, min, max float64, keep func(op int64) bool) closure {
	c := closure{Whole: whole, Parts: parts, Min: min, Max: max}
	ops := map[int64]bool{}
	for _, s := range spans {
		if !keep(s.Op) {
			continue
		}
		d := float64(s.dur()) / 1e9
		switch {
		case s.Name == whole:
			c.WholeS += d
			ops[s.Op] = true
		case slices.Contains(parts, s.Name):
			c.PartsS += d
		}
	}
	c.Ops = len(ops)
	if c.WholeS > 0 {
		c.Gap = (c.WholeS - c.PartsS) / c.WholeS
	}
	c.Pass = c.Ops > 0 && c.Gap >= min && c.Gap <= max
	return c
}

// layerStats folds spans by name, each span weighted by weight(op); spans of
// weight 0 are left out.
func layerStats(spans []span, weight func(op int64) float64) map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range spans {
		w := weight(s.Op)
		if w == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Calls += w
		st.TotalS += w * float64(s.dur()) / 1e9
	}
	return out
}
