package deploy

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Observer wires an engine into the telemetry layer: per-layer latency
// histograms, inference and fault counters, a gather-add work counter, the
// scratch-arena high-water gauge, and engine→layer trace spans.
//
// An engine with a nil observer pays one pointer comparison per pipeline
// stage — inferArena runs the same executor calls either way — so disabled
// telemetry keeps InferInt at 0 allocs/op (pinned by TestEngineInferZeroAllocs
// and the ci.sh bench gate).
type Observer struct {
	Infers     *telemetry.Counter   // completed sparse inferences
	Faults     *telemetry.Counter   // InferSafe/InferBatch per-frame failures
	InferNs    *telemetry.Histogram // whole-pipeline latency
	LayerNs    []*telemetry.Histogram
	LayerNames []string           // conv0..convN-1, "pool", "tree"
	Gathers    *telemetry.Counter // gather-add visits (compiled nonzero work)
	ArenaBytes *telemetry.Gauge   // high-water scratch bytes across all arenas

	// Incremental hop-path accounting (hop.go). HopColumns is the number of
	// conv output positions actually recomputed — against Infers·(total
	// positions) it quantifies what temporal caching saves.
	HopInfers  *telemetry.Counter // InferHopInt calls completed
	HopFull    *telemetry.Counter // hops that fell back to a full recompute
	HopColumns *telemetry.Counter // conv output positions recomputed by hops

	// TwoPhaseRows counts conv rows whose gather and requantisation ran as
	// two passes through an int32 strip because the fused single-pass
	// kernel could not represent them (see twoPhaseRows), per single-frame
	// inference, whether from InferInt or a batch frame.
	TwoPhaseRows *telemetry.Counter

	tracer          *telemetry.Tracer
	gathersPerInfer int64
	twoPhaseFrame   [2]int64 // two-phase rows per inference, indexed by Policy
}

// EnableTelemetry compiles the engine's kernels and attaches an observer
// registered under the "engine." prefix in reg. tracer may be nil (metrics
// without spans). Call it before the engine starts serving: the observer
// pointer is read without synchronisation on the hot path.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Observer {
	e.ensureCompiled()
	o := &Observer{
		Infers:     reg.Counter("engine.infers"),
		Faults:     reg.Counter("engine.faults"),
		InferNs:    reg.LatencyHistogram("engine.infer.ns"),
		Gathers:    reg.Counter("engine.gather.visits"),
		ArenaBytes: reg.Gauge("engine.arena.bytes.highwater"),
		HopInfers:  reg.Counter("engine.hop.infers"),
		HopFull:    reg.Counter("engine.hop.full_recomputes"),
		HopColumns: reg.Counter("engine.hop.columns_computed"),

		TwoPhaseRows: reg.Counter("engine.requant.two_phase_rows"),
		tracer:       tracer,
	}
	h, w := int(e.Frames), int(e.Coeffs)
	for i, q := range e.Convs {
		kind := "std"
		if q.Kind == kindDepthwise {
			kind = "dw"
		}
		name := fmt.Sprintf("conv%d.%s", i, kind)
		o.LayerNames = append(o.LayerNames, name)
		o.LayerNs = append(o.LayerNs, reg.LatencyHistogram("engine."+name+".ns"))
		oh, ow := q.outSize(h, w)
		o.gathersPerInfer += q.gatherVisits(oh * ow)
		// The single-frame path feeds the first conv a dense image, so a
		// pointwise first conv gathers its hidden rows at stride h·w; its
		// depthwise convs take the fused single-unit walk where dwSparse
		// does.
		wbFused := i > 0 || !q.pointwise() || (h*w)&7 == 0
		dwFused := q.dwCol && q.R == 1 && h*w >= 8
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			o.twoPhaseFrame[pol] += q.twoPhaseRows(pol, wbFused, dwFused)
		}
		h, w = oh, ow
	}
	o.LayerNames = append(o.LayerNames, "pool", "tree")
	o.LayerNs = append(o.LayerNs,
		reg.LatencyHistogram("engine.pool.ns"),
		reg.LatencyHistogram("engine.tree.ns"))
	o.gathersPerInfer += e.Tree.gatherVisits()
	e.obs = o
	return o
}

// gatherVisits counts one inference's gather-add work through this conv:
// every compiled nonzero index is visited once per output position.
func (q *QConv) gatherVisits(nOut int) int64 {
	return int64(len(q.wbSp.idx)+len(q.wcSp.idx)) * int64(nOut)
}

// twoPhaseRows counts the rows of this conv that take the two-phase pair
// (gather into an int32 strip, then requantise) instead of the fused
// single-pass kernel at policy pol:
//   - standard convs: Wb rows past the chunkPlanes8 fold budget, with a
//     saturated hidden multiplier, or at an im2col stride off the SWAR width
//     (wbFused false); Wc rows past their fold budget (chunkPlanes16 on the
//     mixed policy's biased words, chunkPlanes8 on int8 planes) or with a
//     saturated output multiplier;
//   - depthwise convs on a path that takes the fused single-unit walk
//     (dwFused): channels whose hidden or output multiplier is saturated.
func (q *QConv) twoPhaseRows(pol Policy, wbFused, dwFused bool) int64 {
	hid, out, wcBudget := q.HidMul, q.OutMul, chunkPlanes16
	if pol == PolicyInt8 {
		hid, out, wcBudget = q.hidMul8, q.outMul8, chunkPlanes8
	}
	var n int64
	if q.Kind == kindDepthwise {
		if !dwFused {
			return 0
		}
		for ch := 0; ch < int(q.Cin); ch++ {
			if satMult(hid[ch]) || satMult(out[ch]) {
				n++
			}
		}
		return n
	}
	for i := 0; i < int(q.R); i++ {
		plus, minus := q.wbSp.row(i)
		if !wbFused || len(plus)+len(minus) > chunkPlanes8 || satMult(hid[i]) {
			n++
		}
	}
	for c := 0; c < int(q.Cout); c++ {
		plus, minus := q.wcSp.row(c)
		if len(plus)+len(minus) > wcBudget || satMult(out[c]) {
			n++
		}
	}
	return n
}

// gatherVisits counts the tree's per-inference gather work. The root-to-leaf
// walk is input-dependent, so W/V work is estimated as the mean per-node
// count times the path length — exact for Z and θ, which every input pays.
func (t *QTree) gatherVisits() int64 {
	visits := int64(len(t.Z.wbSp.idx) + len(t.Z.wcSp.idx))
	var wv int64
	for k := range t.W {
		wv += int64(len(t.W[k].wbSp.idx) + len(t.W[k].wcSp.idx))
		wv += int64(len(t.V[k].wbSp.idx) + len(t.V[k].wcSp.idx))
	}
	if n := int64(len(t.W)); n > 0 {
		visits += wv / n * int64(t.Depth+1)
	}
	visits += int64(t.numInternal()) * int64(t.ProjDim) // θ routing dots, upper bound
	return visits
}

// fault records one failed frame (nil-safe).
func (o *Observer) fault() {
	if o != nil {
		o.Faults.Inc()
	}
}

// noteArena records a freshly sized arena's total scratch footprint.
func (o *Observer) noteArena(a *arena) {
	if o == nil {
		return
	}
	o.ArenaBytes.SetMax(a.bytes())
}

// stage opens pipeline stage i's span (LayerNames[i]) under root and starts
// its clock. A nil observer returns zero values, so inferArena runs the same
// layer loop with and without telemetry.
func (o *Observer) stage(root telemetry.Span, i int) (telemetry.Span, time.Time) {
	if o == nil {
		return telemetry.Span{}, time.Time{}
	}
	return root.Child(o.LayerNames[i]), time.Now()
}

// endStage records stage i's latency and closes its span (nil-safe).
func (o *Observer) endStage(i int, sp telemetry.Span, t time.Time) {
	if o == nil {
		return
	}
	o.LayerNs[i].ObserveSince(t)
	sp.End()
}
