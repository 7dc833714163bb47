package dsp

// Frontend is the incremental MFCC featuriser for streaming inference: it
// consumes audio samples as they arrive and computes MFCC features only for
// each newly completed analysis frame, instead of re-featurising a whole
// sliding window every hop. At the paper's 40 ms/20 ms framing a 240 ms hop
// completes 12 frames, so the frontend does ~4x less FFT/mel/DCT work than
// the batch path. Each frame runs the same table-driven kernel, over the
// same shared per-configuration plan, as MFCC.Compute
// (BenchmarkFrontendPush measures one hop).
//
// Frames are anchored to the absolute stream position: frame k covers
// samples [k·stride, k·stride+frameLen). A batch MFCC.Compute over a window
// whose start is a multiple of the stride produces exactly these frames, so
// the frontend's feature ring is bit-identical to batch featurisation for
// stride-aligned windows (TestFrontendMatchesBatch pins this over random
// chunkings). Callers that hop on a non-stride-aligned cadence would sample
// a different frame grid; the streaming Detector therefore snaps its hop to
// the stride grid in incremental mode.
//
// A Frontend is single-stream state and not safe for concurrent use.
// Steady-state pushes allocate nothing.
type Frontend struct {
	p         *plan
	winFrames int

	ring       []float64 // last frameLen samples
	rpos       int       // next ring write index
	untilFrame int       // samples until the next frame completes

	feats []float32 // feature ring, winFrames × numCoeffs
	total int64     // frames completed since construction or Reset

	s *frameScratch
}

// NewFrontend builds an incremental featuriser whose feature ring holds
// winFrames frames — the classifier window (49 for the paper's one-second
// window).
func NewFrontend(cfg MFCCConfig, winFrames int) *Frontend {
	p := planFor(cfg)
	return &Frontend{
		p:          p,
		winFrames:  winFrames,
		ring:       make([]float64, p.frameLen),
		untilFrame: p.frameLen,
		feats:      make([]float32, winFrames*cfg.NumCoeffs),
		s:          p.newScratch(),
	}
}

// Config returns the frontend's MFCC configuration.
func (f *Frontend) Config() MFCCConfig { return f.p.cfg }

// WindowFrames returns the feature ring's capacity in frames.
func (f *Frontend) WindowFrames() int { return f.winFrames }

// PushSample consumes one sample and reports whether it completed a frame
// (whose features are now the newest ring entry).
func (f *Frontend) PushSample(s float64) bool {
	f.ring[f.rpos] = s
	f.rpos++
	if f.rpos == len(f.ring) {
		f.rpos = 0
	}
	f.untilFrame--
	if f.untilFrame > 0 {
		return false
	}
	f.untilFrame = f.p.stride
	f.completeFrame()
	return true
}

// Push consumes a chunk of samples and returns how many frames it completed.
func (f *Frontend) Push(samples []float64) int {
	n := 0
	for _, s := range samples {
		if f.PushSample(s) {
			n++
		}
	}
	return n
}

// TotalFrames returns the number of frames completed since construction or
// the last Reset. The difference between two calls is the nNew a hop should
// pass to the incremental engine path.
func (f *Frontend) TotalFrames() int64 { return f.total }

// Window copies the most recent winFrames frames, oldest first, into dst
// (len winFrames·numCoeffs) — the classifier's input layout. It returns
// false while fewer than winFrames frames exist.
func (f *Frontend) Window(dst []float32) bool {
	if f.total < int64(f.winFrames) {
		return false
	}
	c := f.p.cfg.NumCoeffs
	for i := 0; i < f.winFrames; i++ {
		slot := int((f.total + int64(i)) % int64(f.winFrames))
		copy(dst[i*c:(i+1)*c], f.feats[slot*c:(slot+1)*c])
	}
	return true
}

// Reset discards all stream state: the next frame completes a full frameLen
// after the first post-reset sample, anchored at stream position zero.
func (f *Frontend) Reset() {
	f.rpos = 0
	f.untilFrame = len(f.ring)
	f.total = 0
	for i := range f.ring {
		f.ring[i] = 0
	}
}

// completeFrame featurises the frameLen samples ending at the current
// position into the next feature-ring slot, with the same frame kernel
// MFCC.Compute runs, so each frame is bit-identical to the batch pipeline's.
func (f *Frontend) completeFrame() {
	c := f.p.cfg.NumCoeffs
	slot := int(f.total % int64(f.winFrames))
	f.p.frame(f.feats[slot*c:(slot+1)*c], f.ring[f.rpos:], f.ring[:f.rpos], f.s)
	f.total++
}
