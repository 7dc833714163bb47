package deploy

// arena holds every buffer one inference needs, sized once from the
// engine's compiled shapes so the steady-state hot path performs zero heap
// allocations. An arena is owned by exactly one goroutine at a time:
// Engine.InferInt uses the engine's resident arena; InferBatch chunks and
// incremental hops check one out of the engine's free list.
type arena struct {
	pol        Policy   // activation policy this arena was sized for
	imgA, imgB []int8   // ping-pong activation planes (max c·h·w over the chain); a hop's band staging
	cols       []int8   // im2col scratch (max over non-pointwise standard convs)
	hidW       []uint64 // standard-conv hidden planes, mixed policy (biased two-lane words)
	hidden8    []int8   // standard-conv hidden planes, PolicyInt8
	acc        []int32  // accumulator strips: one nOut strip standard, two depthwise
	pooled     []int8   // average-pool output feeding the tree
	z16        []int16  // tree projection at 16 bit
	z8         []int8   // requantised projection ẑ
	wv         []int16  // per-node W and V outputs (2·L)
	scores     []int64  // class score accumulators
	out        []int32  // returned score slice
	denseHid   []int16  // QDense hidden scratch (max R over tree denses)
	xPad       []byte   // QDense bitplane staging (max ⌈In/64⌉·64 over tree denses)
}

// newArena sizes every buffer from the engine's compiled conv geometry.
func newArena(e *Engine) *arena {
	maxImg := int(e.Frames) * int(e.Coeffs)
	var maxCols, maxHidden, maxAcc int
	for i, q := range e.Convs {
		// Buffers are sized at the column-lane padded stride pad8(nOut)
		// (collane.go): activation channels, im2col planes, hidden planes
		// and accumulator strips all live at it on the hot path.
		pa := e.geom[i].outStride
		// Only standard convs with a real window lower through im2col:
		// pointwise reads the image (or, in a hop band, a copy staged in
		// imgA) and depthwise gathers off it directly.
		if q.Kind == kindStandard && !q.pointwise() {
			if cols := int(q.Cin) * int(q.KH) * int(q.KW) * pa; cols > maxCols {
				maxCols = cols
			}
		}
		if out := int(q.Cout) * pa; out > maxImg {
			maxImg = out
		}
		// Rows run serially, so a standard conv needs one accumulator strip
		// (the fused kernels' two-phase fallback scratch) and a depthwise
		// conv two: the channel sum and the per-unit tap sum side by side.
		switch q.Kind {
		case kindStandard:
			if hid := int(q.R) * pa; hid > maxHidden {
				maxHidden = hid
			}
			if pa > maxAcc {
				maxAcc = pa
			}
		case kindDepthwise:
			if acc := 2 * pa; acc > maxAcc {
				maxAcc = acc
			}
		}
	}
	g := e.geom[len(e.geom)-1]
	h, w := g.oh, g.ow
	ph := (h-int(e.PoolK))/int(e.PoolS) + 1
	pw := (w-int(e.PoolK))/int(e.PoolS) + 1
	cLast := int(e.Convs[len(e.Convs)-1].Cout)

	t := e.Tree
	L := int(t.NumClasses)
	maxR := int(t.Z.R)
	maxIn := int(t.Z.In)
	for k := range t.W {
		if r := int(t.W[k].R); r > maxR {
			maxR = r
		}
		if r := int(t.V[k].R); r > maxR {
			maxR = r
		}
		if in := int(t.W[k].In); in > maxIn {
			maxIn = in
		}
		if in := int(t.V[k].In); in > maxIn {
			maxIn = in
		}
	}

	a := &arena{
		pol:      e.Policy,
		imgA:     make([]int8, maxImg),
		imgB:     make([]int8, maxImg),
		cols:     make([]int8, maxCols),
		acc:      make([]int32, maxAcc),
		pooled:   make([]int8, cLast*ph*pw),
		z16:      make([]int16, int(t.Z.Out)),
		z8:       make([]int8, int(t.Z.Out)),
		wv:       make([]int16, 2*L),
		scores:   make([]int64, L),
		out:      make([]int32, L),
		denseHid: make([]int16, maxR),
		xPad:     make([]byte, (maxIn+63)&^63),
	}
	// The hidden planes are the policy-dependent buffer: int16 values in
	// 32-bit biased lanes under the mixed policy (two columns per word, so
	// the Wc combine adds two columns at once), int8 under PolicyInt8 — a
	// quarter of the bytes for the dominant buffer.
	if e.Policy == PolicyInt8 {
		a.hidden8 = make([]int8, maxHidden)
	} else {
		a.hidW = make([]uint64, maxHidden>>1)
	}
	return a
}

// bytes reports the arena's total scratch footprint — the steady-state
// activation memory of the integer path, surfaced through
// Engine.ScratchBytes and the telemetry ArenaBytes gauge.
func (a *arena) bytes() int64 {
	n := len(a.imgA) + len(a.imgB) + len(a.cols) + len(a.hidden8) +
		len(a.pooled) + len(a.z8) + len(a.xPad)
	n += 2 * (len(a.z16) + len(a.wv) + len(a.denseHid))
	n += 4 * (len(a.acc) + len(a.out))
	n += 8 * (len(a.scores) + len(a.hidW))
	return int64(n)
}
