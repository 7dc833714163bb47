// Package dsp implements the signal-processing frontend used for
// keyword-spotting: the paper's 49×10 MFCC input (40 ms frames with a 20 ms
// stride, 40 mel filters, 10 cepstral coefficients) from 1-second waveforms.
//
// Every MFCCConfig resolves to one immutable, memoised plan: the Hann
// window, the tables of a real-input FFT (an N/2-point complex radix-2 FFT
// of the even/odd-packed frame plus a split pass), a sparse mel filterbank
// and the DCT-II table. One frame kernel over that plan serves both the
// batch MFCC.Compute and the streaming Frontend, so every extractor of one
// configuration shares the tables and the two paths cannot drift apart.
package dsp

import (
	"fmt"
	"math"
)

// realFFT holds the tables of an n-point FFT of real input. The frame is
// packed as z[m] = x[2m] + i·x[2m+1], transformed by an n/2-point complex
// FFT, and split into the n/2+1 bins of the one-sided spectrum.
type realFFT struct {
	n          int
	rev        []int32   // bit-reversal permutation of the n/2-point FFT
	twRe, twIm []float64 // per stage of size s ≥ 4, exp(-2πij/s) for j < s/2, from offset s/2-2
	spRe, spIm []float64 // exp(-2πik/n) for k ≤ n/2, the split twiddles
}

// newRealFFT builds the tables for an n-point real FFT. n must be a power of
// two and at least 2; sizes come from NextPow2, so anything else is a bug.
func newRealFFT(n int) *realFFT {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: real FFT length %d is not a power of two ≥ 2", n))
	}
	h := n / 2
	f := &realFFT{
		n:    n,
		rev:  make([]int32, h),
		twRe: make([]float64, max(h-2, 0)),
		twIm: make([]float64, max(h-2, 0)),
		spRe: make([]float64, h+1),
		spIm: make([]float64, h+1),
	}
	bits := 0
	for 1<<bits < h {
		bits++
	}
	for i := range f.rev {
		r := 0
		for b := 0; b < bits; b++ {
			r |= (i >> b & 1) << (bits - 1 - b)
		}
		f.rev[i] = int32(r)
	}
	for size := 4; size <= h; size <<= 1 {
		for j := 0; j < size/2; j++ {
			ang := 2 * math.Pi * float64(j) / float64(size)
			f.twRe[size/2-2+j], f.twIm[size/2-2+j] = math.Cos(ang), -math.Sin(ang)
		}
	}
	for k := range f.spRe {
		ang := 2 * math.Pi * float64(k) / float64(n)
		f.spRe[k], f.spIm[k] = math.Cos(ang), -math.Sin(ang)
	}
	return f
}

// transform writes the spectrum X[k], k = 0..n/2, of the real signal x
// (len n; callers zero-pad) into xr, xi (len n/2+1). zr, zi (len n/2) are
// the complex FFT's workspace.
func (f *realFFT) transform(xr, xi, zr, zi, x []float64) {
	h := f.n / 2
	for m, r := range f.rev {
		zr[m], zi[m] = x[2*r], x[2*r+1]
	}
	for m := 0; m+1 < h; m += 2 {
		ar, ai, br, bi := zr[m], zi[m], zr[m+1], zi[m+1]
		zr[m], zi[m], zr[m+1], zi[m+1] = ar+br, ai+bi, ar-br, ai-bi
	}
	for size := 4; size <= h; size <<= 1 {
		half := size / 2
		twr, twi := f.twRe[half-2:size-2], f.twIm[half-2:size-2]
		twi = twi[:len(twr)]
		for start := 0; start < h; start += size {
			a, b := zr[start:start+half], zi[start:start+half]
			c, d := zr[start+half:start+size], zi[start+half:start+size]
			for j, wr := range twr {
				wi := twi[j]
				tr := wr*c[j] - wi*d[j]
				ti := wr*d[j] + wi*c[j]
				c[j], d[j] = a[j]-tr, b[j]-ti
				a[j] += tr
				b[j] += ti
			}
		}
	}
	// Split: with Z[h] ≡ Z[0], E = (Z[k] + conj Z[h-k])/2 is the even
	// samples' spectrum, O = (Z[k] - conj Z[h-k])/2i the odd samples', and
	// X[k] = E + exp(-2πik/n)·O.
	for k := 0; k <= h; k++ {
		ar, ai := zr[k&(h-1)], zi[k&(h-1)]
		br, bi := zr[(h-k)&(h-1)], zi[(h-k)&(h-1)]
		er, ei := (ar+br)/2, (ai-bi)/2
		or, oi := (ai+bi)/2, (br-ar)/2
		wr, wi := f.spRe[k], f.spIm[k]
		xr[k] = er + wr*or - wi*oi
		xi[k] = ei + wr*oi + wi*or
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HannWindow returns an n-point periodic Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n))
	}
	return w
}
