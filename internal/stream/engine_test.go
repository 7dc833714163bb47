package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
)

// TestEngineClassifierPosteriors: scores from the packed engine come back as
// a normalised distribution of the engine's class count.
func TestEngineClassifierPosteriors(t *testing.T) {
	e := deploy.SyntheticEngine(21, 0.35)
	c := NewEngineClassifier(e)
	if c.NumClasses() != int(e.Tree.NumClasses) {
		t.Fatalf("NumClasses=%d, want %d", c.NumClasses(), e.Tree.NumClasses)
	}
	rng := rand.New(rand.NewSource(22))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	probs := c.Classify(x)
	if len(probs) != c.NumClasses() {
		t.Fatalf("got %d posteriors, want %d", len(probs), c.NumClasses())
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || math.IsNaN(float64(p)) {
			t.Fatalf("bad posterior %g", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("posteriors sum to %g, want 1", sum)
	}
	// The argmax posterior must agree with the engine's integer argmax.
	_, wantCls := e.InferInt(x)
	best, bestP := 0, float32(-1)
	for i, p := range probs {
		if p > bestP {
			best, bestP = i, p
		}
	}
	if best != wantCls {
		t.Fatalf("posterior argmax %d, engine class %d", best, wantCls)
	}
}

// TestEngineClassifierRejectsBadFrame: a wrong-length frame yields nil,
// which the detector's safeClassify counts as a rejected hop.
func TestEngineClassifierRejectsBadFrame(t *testing.T) {
	c := NewEngineClassifier(deploy.SyntheticEngine(23, 0.35))
	if probs := c.Classify(make([]float32, 7)); probs != nil {
		t.Fatalf("bad frame produced posteriors %v", probs)
	}
}

// TestEngineClassifierReusesOutput documents the reuse contract the Detector
// defends against: consecutive hops overwrite the same slice.
func TestEngineClassifierReusesOutput(t *testing.T) {
	e := deploy.SyntheticEngine(24, 0.35)
	c := NewEngineClassifier(e)
	x := make([]float32, e.Frames*e.Coeffs)
	p1 := c.Classify(x)
	p2 := c.Classify(x)
	if &p1[0] != &p2[0] {
		t.Fatal("expected the posterior slice to be reused across hops")
	}
}

// TestDetectorWithEngineClassifier runs the full streaming loop on top of
// the packed engine: the smoothing ring must hold independent copies even
// though the classifier reuses its output slice.
func TestDetectorWithEngineClassifier(t *testing.T) {
	const rate = 4000
	e := deploy.SyntheticEngine(25, 0.35)
	c := NewEngineClassifier(e)
	cfg := DefaultConfig(rate)
	cfg.Threshold = 2 // never fire: this test is about plumbing, not weights
	d := NewDetector(cfg, c, 0, 1)
	rng := rand.New(rand.NewSource(26))
	buf := make([]float64, rate/4)
	for hop := 0; hop < 12; hop++ {
		for i := range buf {
			buf[i] = rng.NormFloat64() * 0.1
		}
		d.Push(buf)
	}
	if st := d.Stats(); st.BadPosteriors != 0 {
		t.Fatalf("engine classifier produced %d bad posteriors", st.BadPosteriors)
	}
	if len(d.history) > cfg.SmoothWin {
		t.Fatalf("history grew to %d, cap is %d", len(d.history), cfg.SmoothWin)
	}
	// With random weights the posterior is frame-dependent; the ring entries
	// must not all alias the classifier's reused slice.
	if len(d.history) >= 2 && &d.history[0][0] == &d.history[1][0] {
		t.Fatal("smoothing ring entries alias the same storage")
	}
}
