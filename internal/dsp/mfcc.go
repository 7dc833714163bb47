package dsp

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// MFCCConfig describes the MFCC feature extraction pipeline. The defaults
// (DefaultMFCCConfig) match the keyword-spotting setup in the paper:
// a 40 ms analysis frame with a 20 ms stride over 1 s of audio, 40 mel
// filters, and 10 cepstral coefficients, yielding a 49×10 feature image.
type MFCCConfig struct {
	SampleRate int     // samples per second
	FrameMs    int     // analysis window length in milliseconds
	StrideMs   int     // hop between frames in milliseconds
	NumMel     int     // number of mel filterbank channels
	NumCoeffs  int     // number of cepstral coefficients kept
	LowFreqHz  float64 // filterbank lower edge
	HighFreqHz float64 // filterbank upper edge (0 = Nyquist)
}

// DefaultMFCCConfig returns the paper's configuration at the given sample
// rate. Any sample rate works; 49 frames × 10 coefficients is invariant to it
// because frame/stride are expressed in milliseconds.
func DefaultMFCCConfig(sampleRate int) MFCCConfig {
	return MFCCConfig{
		SampleRate: sampleRate,
		FrameMs:    40,
		StrideMs:   20,
		NumMel:     40,
		NumCoeffs:  10,
		LowFreqHz:  20,
		HighFreqHz: 0,
	}
}

// FrameLen returns the analysis frame length in samples.
func (c MFCCConfig) FrameLen() int { return c.SampleRate * c.FrameMs / 1000 }

// Stride returns the hop size in samples.
func (c MFCCConfig) Stride() int { return c.SampleRate * c.StrideMs / 1000 }

// NumFrames returns how many frames a signal of n samples produces.
func (c MFCCConfig) NumFrames(n int) int {
	fl, st := c.FrameLen(), c.Stride()
	if n < fl {
		return 0
	}
	return (n-fl)/st + 1
}

// melScale converts a frequency in Hz to mels.
func melScale(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// melInv converts mels back to Hz.
func melInv(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank builds a triangular mel filterbank matrix of shape
// [numMel][fftSize/2+1]. Each row integrates the power spectrum over one
// triangular mel band.
func MelFilterbank(cfg MFCCConfig, fftSize int) [][]float64 {
	high := cfg.HighFreqHz
	if high <= 0 {
		high = float64(cfg.SampleRate) / 2
	}
	nBins := fftSize/2 + 1
	lowMel, highMel := melScale(cfg.LowFreqHz), melScale(high)
	points := make([]float64, cfg.NumMel+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(cfg.NumMel+1)
		points[i] = melInv(mel) / float64(cfg.SampleRate) * float64(fftSize)
	}
	fb := make([][]float64, cfg.NumMel)
	for m := 0; m < cfg.NumMel; m++ {
		row := make([]float64, nBins)
		left, center, right := points[m], points[m+1], points[m+2]
		for k := 0; k < nBins; k++ {
			f := float64(k)
			switch {
			case f > left && f <= center && center > left:
				row[k] = (f - left) / (center - left)
			case f > center && f < right && right > center:
				row[k] = (right - f) / (right - center)
			}
		}
		fb[m] = row
	}
	return fb
}

// plan is the immutable per-configuration state of the MFCC frame kernel.
// Plans are memoised (see planFor), so every MFCC and Frontend of one
// configuration shares a single copy of the tables.
type plan struct {
	cfg      MFCCConfig
	frameLen int
	stride   int
	window   []float64
	fft      *realFFT
	mel      []melFilter
	dct      []float64 // [coeff][mel] DCT-II basis, row-major
	dctScale []float64 // per-coefficient orthonormal scale
	scratch  sync.Pool // *frameScratch, for MFCC.Compute
}

// melFilter is one triangular mel filter in sparse form: its non-zero
// weights w cover spectrum bins [lo, lo+len(w)).
type melFilter struct {
	lo int
	w  []float64
}

// frameScratch is the per-frame workspace of the kernel.
type frameScratch struct {
	x      []float64 // windowed frame; the tail past frameLen stays zero (FFT padding)
	zr, zi []float64 // packed complex FFT
	xr, xi []float64 // one-sided spectrum; xr then holds the power
	mel    []float64 // log mel energies
}

// plans memoises one plan per configuration. A program uses a handful of
// configurations, so the table is never pruned.
var plans sync.Map // MFCCConfig → *plan

// planFor returns the shared plan of cfg, building it on first use.
func planFor(cfg MFCCConfig) *plan {
	if p, ok := plans.Load(cfg); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(cfg, newPlan(cfg))
	return p.(*plan)
}

func newPlan(cfg MFCCConfig) *plan {
	fl := cfg.FrameLen()
	fftSize := NextPow2(fl)
	if fftSize < 2 {
		fftSize = 2
	}
	p := &plan{
		cfg:      cfg,
		frameLen: fl,
		stride:   cfg.Stride(),
		window:   HannWindow(fl),
		fft:      newRealFFT(fftSize),
		mel:      make([]melFilter, cfg.NumMel),
	}
	for m, row := range MelFilterbank(cfg, fftSize) {
		lo, hi := 0, 0
		for k, w := range row {
			if w != 0 {
				if hi == 0 {
					lo = k
				}
				hi = k + 1
			}
		}
		p.mel[m] = melFilter{lo: lo, w: append([]float64(nil), row[lo:hi]...)}
	}
	// The basis and scales are the ones the orthonormal DCT-II defines:
	// c[k] = s_k·Σ_i x[i]·cos(πk(i+½)/n), s_0 = √(1/n), s_k = √(2/n).
	n := cfg.NumMel
	p.dct = make([]float64, cfg.NumCoeffs*n)
	p.dctScale = make([]float64, cfg.NumCoeffs)
	for k := range p.dctScale {
		for i := 0; i < n; i++ {
			p.dct[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
		p.dctScale[k] = math.Sqrt(2 / float64(n))
		if k == 0 {
			p.dctScale[k] = math.Sqrt(1 / float64(n))
		}
	}
	p.scratch.New = func() any { return p.newScratch() }
	return p
}

func (p *plan) newScratch() *frameScratch {
	h := p.fft.n / 2
	return &frameScratch{
		x:   make([]float64, p.fft.n),
		zr:  make([]float64, h),
		zi:  make([]float64, h),
		xr:  make([]float64, h+1),
		xi:  make([]float64, h+1),
		mel: make([]float64, p.cfg.NumMel),
	}
}

// frame computes the MFCC of one analysis frame — the frameLen samples a
// followed by b — into dst (len NumCoeffs): Hann window, zero-padded real
// FFT power spectrum, sparse mel integration, log(e+1e-10), DCT-II.
func (p *plan) frame(dst []float32, a, b []float64, s *frameScratch) {
	w := p.window
	for i, v := range a {
		s.x[i] = v * w[i]
	}
	for i, v := range b {
		s.x[len(a)+i] = v * w[len(a)+i]
	}
	p.fft.transform(s.xr, s.xi, s.zr, s.zi, s.x)
	spec := s.xr
	for k, re := range spec {
		im := s.xi[k]
		spec[k] = re*re + im*im
	}
	for m, f := range p.mel {
		var e float64
		for k, wt := range f.w {
			e += wt * spec[f.lo+k]
		}
		s.mel[m] = math.Log(e + 1e-10)
	}
	n := len(s.mel)
	for k := range dst {
		row := p.dct[k*n : (k+1)*n]
		var sum float64
		for i, v := range s.mel {
			sum += v * row[i]
		}
		dst[k] = float32(sum * p.dctScale[k])
	}
}

// MFCC is a reusable MFCC extractor. Construct with NewMFCC; Compute converts
// a waveform into a [numFrames, numCoeffs] tensor. An MFCC is safe for
// concurrent use.
type MFCC struct {
	p *plan
}

// NewMFCC returns an extractor for the given configuration. Extractors of
// one configuration share its window, FFT, mel and DCT tables.
func NewMFCC(cfg MFCCConfig) *MFCC { return &MFCC{p: planFor(cfg)} }

// Config returns the extractor's configuration.
func (m *MFCC) Config() MFCCConfig { return m.p.cfg }

// Compute converts the waveform into MFCC features of shape
// [numFrames, numCoeffs]. Frames beyond the end of the signal are dropped.
func (m *MFCC) Compute(wave []float64) *tensor.Tensor {
	p := m.p
	nc := p.cfg.NumCoeffs
	nFrames := p.cfg.NumFrames(len(wave))
	out := tensor.New(nFrames, nc)
	s := p.scratch.Get().(*frameScratch)
	for f := 0; f < nFrames; f++ {
		start := f * p.stride
		p.frame(out.Data[f*nc:(f+1)*nc], wave[start:start+p.frameLen], nil, s)
	}
	p.scratch.Put(s)
	return out
}
