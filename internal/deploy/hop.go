package deploy

import "fmt"

// Incremental hop inference: temporal caching across overlapping streaming
// windows.
//
// A streaming detector re-classifies a sliding one-second window every hop,
// but consecutive windows share all rows except the hop stride: at the
// default 250 ms hop, ~75% of the 49×10 MFCC image — and therefore most of
// every convolution output — is the previous window's content shifted up.
// A HopState caches the quantised input image and every conv layer's output
// image between calls. Each hop it:
//
//  1. shifts every cached image up by the layer's row shift (the input
//     moves nNew rows, a stride-s conv's output moves nNew/s rows), and
//  2. recomputes only the output rows the shift cannot preserve — the
//     top band whose receptive field straddles the (moving) zero-pad
//     boundary and the bottom band that sees the new frames — before
//  3. re-running pooling and the tree head in full (they are ~2% of the
//     per-hop cost).
//
// Shift rule. Let [a, b) be the clean interval of a layer's input: the rows
// whose values equal the previous input shifted up by s rows. Output row j
// of a stride-st, height-kh, pad-p conv reads input rows [j·st−p, j·st−p+kh).
// The cached (shifted) output row is reusable iff that whole window lies in
// [a, b): no pad coordinate is read (the old computation read real rows
// there) and every row read is itself clean. Hence rows
//
//	aOut = ⌈(a+p)/st⌉ … bOut = ⌊(b+p−kh)/st⌋ + 1
//
// are kept, [0,aOut) and [bOut,outH) are recomputed, and [aOut,bOut)
// becomes the next layer's clean interval. A shift that is not a multiple
// of the conv stride (or an empty clean interval) degrades that layer and
// everything downstream to a full recompute — the band machinery runs the
// whole output as one segment, so the fallback shares every instruction
// with the incremental path.
//
// Exactness. Every layer runs through the conv executor (runBand in
// kernels.go) that single-frame inference runs as one whole-plane segment:
// the same compiled row kernels, fed a band-local im2col matrix at the
// padded stride pad8(nBand). Every kernel is position-wise exact — int32
// accumulation is associative mod 2³², and each output position's sum walks
// the same compiled nonzero indices in the same order regardless of which
// other positions share the dispatch — so a recomputed band row is
// bit-identical to the same row of a full-window InferInt, and a reused row
// is bit-identical by induction. Depthwise layers recompute their whole
// plane whenever any of their rows is dirty (the executor has no depthwise
// band kernel), which leaves the clean rows unchanged.
// TestInferHopMatchesFullStream and the property suite in hop_test.go pin
// this over long streams.
//
// A HopState holds only its cached images. Each hop borrows a scratch arena
// from the engine's free list (the one InferBatch chunks use) and returns it
// before the scores come back, so any number of HopStates may run
// concurrently on one engine — the same contract as InferBatch. A single
// HopState is not safe for concurrent use. Steady-state hops allocate
// nothing.

// HopStats counts a HopState's work since construction.
type HopStats struct {
	Hops            int64 // InferHopInt calls completed
	FullRecomputes  int64 // hops that ran the cold/invalid full path
	ColumnsComputed int64 // conv output positions recomputed across all layers
}

// HopState is the per-stream temporal cache for incremental hop inference.
// Obtain one with Engine.NewHopState, feed it consecutive windows through
// Engine.InferHopInt, and Release it when the stream closes. Invalidate
// discards the cache (the next hop recomputes in full) — callers must do
// that whenever the stream discontinues (gap concealment, seek, reset),
// since the caller contract is that each window's leading rows equal the
// previous window's trailing rows.
type HopState struct {
	e   *Engine
	pol Policy // activation policy the cached images were computed at

	// Cache: quantised input image plus one output image per conv, each at
	// its layer's channel stride (engine geometry).
	in    []int8
	imgs  [][]int8
	valid bool

	segs     [][2]int // recompute segments of the current layer
	out      []int32  // the last hop's scores
	lastFull bool
	stats    HopStats
}

// newHopState sizes the cached images from the engine's compiled shapes.
func newHopState(e *Engine) *HopState {
	hs := &HopState{
		e:    e,
		pol:  e.Policy,
		in:   make([]int8, int(e.Frames)*int(e.Coeffs)),
		segs: make([][2]int, 0, 2),
		out:  make([]int32, e.Tree.NumClasses),
	}
	for i, q := range e.Convs {
		hs.imgs = append(hs.imgs, make([]int8, int(q.Cout)*e.geom[i].outStride))
	}
	return hs
}

// Invalidate discards all cached temporal state. The next hop on this state
// recomputes the full window. Call on any stream discontinuity.
func (hs *HopState) Invalidate() { hs.valid = false }

// LastFull reports whether the most recent hop fell back to a full-window
// recompute (cold cache, invalidation, policy change, or nNew ≥ Frames).
func (hs *HopState) LastFull() bool { return hs.lastFull }

// Stats returns the state's work counters.
func (hs *HopState) Stats() HopStats { return hs.stats }

// NewHopState returns a hop state for incremental streaming inference on
// this engine, reusing a released one when available. States may be used
// concurrently with each other and with InferBatch; a single state must not
// be shared between goroutines.
func (e *Engine) NewHopState() *HopState {
	e.ensureCompiled()
	if v := e.hopStates.Get(); v != nil {
		hs := v.(*HopState)
		hs.Invalidate()
		return hs
	}
	return newHopState(e)
}

// Release invalidates the state and returns it to the engine's pool.
func (hs *HopState) Release() {
	hs.Invalidate()
	hs.e.hopStates.Put(hs)
}

// InferHopInt classifies one hop of a sliding window through the integer
// path at the engine's current policy, bit-exact with a full-window InferInt
// on the same window at a fraction of the work. x is the full current window
// (Frames × Coeffs); nNew is how many trailing frame rows are new since the
// previous call — the caller guarantees x's leading Frames−nNew rows equal
// the previous window's trailing rows. The scores slice is state-owned,
// valid until the next hop on hs.
func (e *Engine) InferHopInt(hs *HopState, x []float32, nNew int) ([]int32, int) {
	if hs.e != e {
		panic("deploy: HopState used with a different engine")
	}
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	return hs.inferInt(x, nNew)
}

// bandSegs assembles the recompute segments for one layer: the pad-touching
// top band [0,aOut) and the new-data bottom band [bOut,outH). An empty
// reusable interval (aOut = bOut = 0) yields the whole plane.
func (hs *HopState) bandSegs(aOut, bOut, outH int) [][2]int {
	segs := hs.segs[:0]
	if aOut > 0 {
		segs = append(segs, [2]int{0, aOut})
	}
	if bOut < outH {
		segs = append(segs, [2]int{bOut, outH})
	}
	return segs
}

// cleanOut propagates a clean input interval [aIn,bIn) whose rows moved up
// by shift through one conv, returning the reusable output interval and the
// output shift. All three are zero when nothing is reusable, so the layer
// and everything downstream recompute in full.
func cleanOut(q *QConv, g convGeom, aIn, bIn, shift int) (aOut, bOut, sOut int) {
	st, kh, padH := int(q.Stride), int(q.KH), int(q.PadH)
	if bIn <= aIn || shift%st != 0 {
		return 0, 0, 0
	}
	sOut = shift / st
	aOut = (aIn + padH + st - 1) / st
	bOut = min((bIn+padH-kh)/st+1, g.oh)
	if bOut <= aOut {
		return 0, 0, 0
	}
	return aOut, bOut, sOut
}

// inferInt runs one integer hop. See the package comment for the algorithm.
func (hs *HopState) inferInt(x []float32, nNew int) ([]int32, int) {
	e := hs.e
	a := e.getArena()
	// The borrowed arena fixes the policy this hop runs at; cached
	// activations are policy-specific, so a flip forces a full recompute.
	if a.pol != hs.pol {
		hs.pol = a.pol
		hs.valid = false
	}
	h0, w0 := int(e.Frames), int(e.Coeffs)
	full := !hs.valid || nNew < 0 || nNew >= h0
	hs.valid = false // poisoned until the hop completes

	var colsComputed int64
	if full || nNew > 0 {
		// [aIn,bIn) is the clean interval of the current layer's input and
		// shift how far its rows moved; a full recompute starts with none.
		aIn, bIn, shift := 0, 0, 0
		if full {
			e.quantizeInto(hs.in, x)
		} else {
			// Shift the input cache up nNew rows and quantise the new tail.
			// The retained prefix is bit-identical to re-quantising x's
			// leading rows: quantisation is position-wise and the caller
			// guarantees the values match.
			n := h0 * w0
			copy(hs.in[:n-nNew*w0], hs.in[nNew*w0:])
			e.quantizeInto(hs.in[(h0-nNew)*w0:], x[(h0-nNew)*w0:])
			bIn, shift = h0-nNew, nNew
		}
		img := hs.in
		for i, q := range e.Convs {
			g := e.geom[i]
			out := hs.imgs[i]
			aOut, bOut, sOut := cleanOut(q, g, aIn, bIn, shift)
			segs := hs.bandSegs(aOut, bOut, g.oh)
			// A depthwise layer with any dirty row recomputes its whole
			// plane, so the shift it would overwrite is skipped.
			if sOut > 0 && (q.Kind != kindDepthwise || len(segs) == 0) {
				for c := 0; c < int(q.Cout); c++ {
					p := out[c*g.outStride:]
					copy(p[:(g.oh-sOut)*g.ow], p[sOut*g.ow:g.oh*g.ow])
				}
			}
			colsComputed += int64(q.runBand(a, g, img, out, segs, hs.pol))
			aIn, bIn, shift = aOut, bOut, sOut
			img = out
		}
	}

	last := len(e.Convs) - 1
	sc := e.Tree.forwardInto(a, e.pool(a, hs.imgs[last]))
	hs.out = append(hs.out[:0], sc...)
	e.putArena(a)
	hs.valid = true
	hs.noteHop(full, colsComputed)
	return hs.out, argmax(hs.out)
}

// noteHop updates the state's counters and, when telemetry is attached, the
// engine's hop counters. The hop kernels themselves are identical with and
// without an observer — these are plain atomic adds after the fact — so
// telemetry cannot perturb hop results.
func (hs *HopState) noteHop(full bool, colsComputed int64) {
	hs.lastFull = full
	hs.stats.Hops++
	hs.stats.ColumnsComputed += colsComputed
	if full {
		hs.stats.FullRecomputes++
	}
	if o := hs.e.obs; o != nil {
		o.HopInfers.Inc()
		o.HopColumns.Add(colsComputed)
		if full {
			o.HopFull.Inc()
		}
	}
}
