package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func TestMFCCShapeMatchesPaper(t *testing.T) {
	// The paper: 1 s of audio, 40 ms frames, 20 ms stride → 49 frames × 10
	// coefficients, at any sample rate.
	for _, sr := range []int{4000, 8000, 16000} {
		cfg := DefaultMFCCConfig(sr)
		m := NewMFCC(cfg)
		wave := make([]float64, sr) // 1 second
		feat := m.Compute(wave)
		if feat.Dim(0) != 49 || feat.Dim(1) != 10 {
			t.Fatalf("sr=%d: MFCC shape %v, want [49 10]", sr, feat.Shape())
		}
	}
}

func TestNumFrames(t *testing.T) {
	cfg := DefaultMFCCConfig(4000)
	if got := cfg.NumFrames(4000); got != 49 {
		t.Fatalf("NumFrames(1s)=%d want 49", got)
	}
	if got := cfg.NumFrames(cfg.FrameLen() - 1); got != 0 {
		t.Fatalf("NumFrames(short)=%d want 0", got)
	}
	if got := cfg.NumFrames(cfg.FrameLen()); got != 1 {
		t.Fatalf("NumFrames(one frame)=%d want 1", got)
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{20, 100, 440, 1000, 4000, 7999} {
		back := melInv(melScale(hz))
		if math.Abs(back-hz) > 1e-6*hz {
			t.Fatalf("mel round trip %v -> %v", hz, back)
		}
	}
}

func TestMelFilterbankCoversSpectrum(t *testing.T) {
	cfg := DefaultMFCCConfig(4000)
	fb := MelFilterbank(cfg, 256)
	if len(fb) != cfg.NumMel {
		t.Fatalf("filterbank has %d rows, want %d", len(fb), cfg.NumMel)
	}
	// Every filter must have some mass, and weights must be in [0,1].
	for m, row := range fb {
		var sum float64
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("filter %d has weight %v outside [0,1]", m, v)
			}
			sum += v
		}
		if sum <= 0 {
			t.Fatalf("filter %d is empty", m)
		}
	}
}

// planDCT applies p's DCT-II table and scales to x in float64.
func planDCT(p *plan, x []float64) []float64 {
	out := make([]float64, len(p.dctScale))
	for k := range out {
		var s float64
		for i, v := range x {
			s += v * p.dct[k*len(x)+i]
		}
		out[k] = s * p.dctScale[k]
	}
	return out
}

func TestDCT2Orthonormality(t *testing.T) {
	// DCT of a constant signal puts all energy in coefficient 0.
	p := newPlan(DefaultMFCCConfig(4000))
	x := make([]float64, 40)
	for i := range x {
		x[i] = 1
	}
	c := planDCT(p, x)
	if math.Abs(c[0]-math.Sqrt(40)) > 1e-9 {
		t.Fatalf("DCT2 c0=%v, want sqrt(40)", c[0])
	}
	for k := 1; k < 10; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("DCT2 c%d=%v, want 0", k, c[k])
		}
	}
}

func TestDCT2ParsevalFullLength(t *testing.T) {
	// With all N coefficients the orthonormal DCT preserves energy.
	cfg := DefaultMFCCConfig(4000)
	cfg.NumMel, cfg.NumCoeffs = 16, 16
	p := newPlan(cfg)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 16)
	var xe float64
	for i := range x {
		x[i] = rng.NormFloat64()
		xe += x[i] * x[i]
	}
	var ce float64
	for _, v := range planDCT(p, x) {
		ce += v * v
	}
	if math.Abs(xe-ce) > 1e-9 {
		t.Fatalf("DCT2 energy %v != %v", ce, xe)
	}
}

func TestMFCCDistinguishesTones(t *testing.T) {
	// Two different tones must produce measurably different MFCC features —
	// the property the classifier depends on.
	const sr = 4000
	m := NewMFCC(DefaultMFCCConfig(sr))
	mk := func(freq float64) []float64 {
		w := make([]float64, sr)
		for i := range w {
			w[i] = math.Sin(2 * math.Pi * freq * float64(i) / sr)
		}
		return w
	}
	a := m.Compute(mk(300))
	b := m.Compute(mk(1200))
	var dist float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		dist += d * d
	}
	if dist < 1 {
		t.Fatalf("MFCC features of distinct tones too close: %v", dist)
	}
}

func TestMFCCDeterministic(t *testing.T) {
	const sr = 4000
	m := NewMFCC(DefaultMFCCConfig(sr))
	w := make([]float64, sr)
	rng := rand.New(rand.NewSource(3))
	for i := range w {
		w[i] = rng.NormFloat64() * 0.1
	}
	a := m.Compute(w)
	b := m.Compute(w)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("MFCC is not deterministic")
		}
	}
}

// referenceMFCC is the original MFCC pipeline — a complex radix-2 FFT of the
// zero-padded frame, a dense mel filterbank and a DCT-II evaluating math.Cos
// per term — kept as the oracle the table-driven kernel is tested against.
func referenceMFCC(cfg MFCCConfig, wave []float64) *tensor.Tensor {
	fl, st := cfg.FrameLen(), cfg.Stride()
	fftSize := NextPow2(fl)
	window := HannWindow(fl)
	fbank := MelFilterbank(cfg, fftSize)
	nFrames := cfg.NumFrames(len(wave))
	out := tensor.New(nFrames, cfg.NumCoeffs)
	frame := make([]float64, fl)
	melEnergies := make([]float64, cfg.NumMel)
	for f := 0; f < nFrames; f++ {
		start := f * st
		for i := 0; i < fl; i++ {
			frame[i] = wave[start+i] * window[i]
		}
		spec := refPowerSpectrum(frame, fftSize)
		for b, row := range fbank {
			var e float64
			for k, w := range row {
				if w != 0 {
					e += w * spec[k]
				}
			}
			melEnergies[b] = math.Log(e + 1e-10)
		}
		coeffs := refDCT2(melEnergies, cfg.NumCoeffs)
		for c, v := range coeffs {
			out.Set(float32(v), f, c)
		}
	}
	return out
}

// refFFT computes the in-place radix-2 Cooley-Tukey FFT of x. The length of
// x must be a power of two.
func refFFT(x []complex128) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// refIFFT computes the inverse FFT of x in place (normalised by 1/n).
func refIFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	refFFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// refPowerSpectrum returns the one-sided power spectrum |X[k]|² for
// k = 0..n/2 of the real signal frame, zero-padded to fftSize.
func refPowerSpectrum(frame []float64, fftSize int) []float64 {
	out := make([]float64, fftSize/2+1)
	buf := make([]complex128, fftSize)
	n := len(frame)
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = complex(frame[i], 0)
	}
	refFFT(buf)
	for k := range out {
		re, im := real(buf[k]), imag(buf[k])
		out[k] = re*re + im*im
	}
	return out
}

// refDCT2 computes the orthonormal DCT-II of x, keeping the first numCoeffs
// coefficients.
func refDCT2(x []float64, numCoeffs int) []float64 {
	n := len(x)
	out := make([]float64, numCoeffs)
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < numCoeffs; k++ {
		var s float64
		for i, v := range x {
			s += v * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		if k == 0 {
			out[k] = s * scale0
		} else {
			out[k] = s * scale
		}
	}
	return out
}

// mfccTolerance bounds |Δ| per coefficient between Compute and
// referenceMFCC. The two differ only in FFT rounding, which the float32
// output almost always hides; a flipped last bit of a coefficient near the
// silence floor (|c0| ≈ 146) is ~1.5e-5.
const mfccTolerance = 1e-4

// compareReference fails t unless got matches referenceMFCC within
// mfccTolerance, and returns how many values match exactly out of how many.
func compareReference(t testing.TB, cfg MFCCConfig, wave []float64, got *tensor.Tensor, label string) (exact, total int) {
	t.Helper()
	want := referenceMFCC(cfg, wave)
	if got.Dim(0) != want.Dim(0) || got.Dim(1) != want.Dim(1) {
		t.Fatalf("%s: shape %v, reference %v", label, got.Shape(), want.Shape())
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
			t.Fatalf("%s: value %d is %v", label, i, g)
		}
		if d := math.Abs(float64(g) - float64(w)); d > mfccTolerance {
			t.Fatalf("%s: frame %d coeff %d: %v, reference %v (|Δ| %.3g)", label, i/cfg.NumCoeffs, i%cfg.NumCoeffs, g, w, d)
		}
		if g == w {
			exact++
		}
	}
	return exact, len(want.Data)
}

// TestMFCCMatchesReference pins Compute against the original pipeline on
// noise, sines, silence and clipped input across sample rates and levels.
func TestMFCCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	total, exact := 0, 0
	for _, sr := range []int{4000, 8000, 16000} {
		cfg := DefaultMFCCConfig(sr)
		m := NewMFCC(cfg)
		for _, amp := range []float64{1e-4, 1e-2, 1} {
			noise := make([]float64, sr)
			sine := make([]float64, sr)
			clipped := make([]float64, sr)
			freq := 50 + rng.Float64()*float64(sr)/2.2
			for i := range noise {
				noise[i] = amp * rng.NormFloat64()
				sine[i] = amp * math.Sin(2*math.Pi*freq*float64(i)/float64(sr))
				clipped[i] = math.Max(-1, math.Min(1, 4*amp*rng.NormFloat64()+sine[i]))
			}
			for name, w := range map[string][]float64{"noise": noise, "sine": sine, "clipped": clipped} {
				e, n := compareReference(t, cfg, w, m.Compute(w), fmt.Sprintf("sr %d amp %g %s", sr, amp, name))
				exact, total = exact+e, total+n
			}
		}
		silence := make([]float64, sr+777)
		e, n := compareReference(t, cfg, silence, m.Compute(silence), fmt.Sprintf("sr %d silence", sr))
		exact, total = exact+e, total+n
	}
	t.Logf("%d of %d float32 features equal the reference exactly", exact, total)
}

// TestMFCCComputeAllocs pins Compute at the output tensor's allocations: the
// frame kernel itself allocates nothing.
func TestMFCCComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are meaningless")
	}
	m := NewMFCC(DefaultMFCCConfig(4000))
	wave := make([]float64, 4000)
	for i := range wave {
		wave[i] = math.Sin(float64(i))
	}
	m.Compute(wave)
	if allocs := testing.AllocsPerRun(20, func() { m.Compute(wave) }); allocs > 3 {
		t.Fatalf("Compute allocates %.1f/op, want ≤ 3", allocs)
	}
}

// TestPlanShared checks that extractors of one configuration share a plan,
// and that plans built concurrently from several goroutines resolve to one.
func TestPlanShared(t *testing.T) {
	cfg := DefaultMFCCConfig(4000)
	if a, b, c := NewMFCC(cfg).p, NewMFCC(cfg).p, NewFrontend(cfg, 49).p; a != b || a != c {
		t.Fatal("extractors of one configuration hold different plans")
	}
	if NewMFCC(DefaultMFCCConfig(8000)).p == NewMFCC(cfg).p {
		t.Fatal("different configurations share a plan")
	}

	fresh := DefaultMFCCConfig(12000)
	fresh.NumMel = 32
	wave := make([]float64, fresh.SampleRate)
	for i := range wave {
		wave[i] = math.Sin(float64(i) / 3)
	}
	const workers = 8
	got := make([]*plan, workers)
	feats := make([]*tensor.Tensor, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := NewMFCC(fresh)
			if g%2 == 0 {
				got[g] = NewFrontend(fresh, 49).p
			} else {
				got[g] = m.p
			}
			feats[g] = m.Compute(wave)
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d built its own plan", g)
		}
		for i, v := range feats[g].Data {
			if v != feats[0].Data[i] {
				t.Fatalf("goroutine %d: feature %d differs under concurrent Compute", g, i)
			}
		}
	}
}

// FuzzMFCC reads the input as little-endian int16 samples at one of the
// paper's sample rates and checks Compute's shape, finiteness and agreement
// with referenceMFCC.
func FuzzMFCC(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), make([]byte, 2*400))
	seed := make([]byte, 2*4000)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint8(0), seed)
	f.Add(uint8(2), seed)
	rates := []int{4000, 8000, 16000}
	f.Fuzz(func(t *testing.T, rate uint8, data []byte) {
		cfg := DefaultMFCCConfig(rates[int(rate)%len(rates)])
		wave := make([]float64, len(data)/2)
		for i := range wave {
			wave[i] = float64(int16(uint16(data[2*i])|uint16(data[2*i+1])<<8)) / 32768
		}
		got := NewMFCC(cfg).Compute(wave)
		if got.Dim(0) != cfg.NumFrames(len(wave)) || got.Dim(1) != cfg.NumCoeffs {
			t.Fatalf("shape %v for %d samples", got.Shape(), len(wave))
		}
		compareReference(t, cfg, wave, got, "fuzz")
	})
}

var benchFeat *tensor.Tensor

func BenchmarkMFCCCompute(b *testing.B) {
	m := NewMFCC(DefaultMFCCConfig(4000))
	rng := rand.New(rand.NewSource(5))
	wave := make([]float64, 4000)
	for i := range wave {
		wave[i] = rng.NormFloat64() * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFeat = m.Compute(wave)
	}
}
