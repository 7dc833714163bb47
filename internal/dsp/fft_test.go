package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is an O(n²) reference DFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// realSpectrum returns bins 0..n/2 of the real FFT of x (len n, a power of
// two ≥ 2).
func realSpectrum(x []float64) []complex128 {
	f := newRealFFT(len(x))
	h := len(x) / 2
	xr, xi := make([]float64, h+1), make([]float64, h+1)
	f.transform(xr, xi, make([]float64, h), make([]float64, h), x)
	out := make([]complex128, h+1)
	for k := range out {
		out[k] = complex(xr[k], xi[k])
	}
	return out
}

// TestFFTMatchesNaiveDFT checks the complex FFT inside referenceMFCC, the
// oracle the MFCC kernel is compared against.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		refFFT(got)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Fatalf("FFT mismatch at n=%d", n)
		}
	}
}

func TestRealFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 2; n <= 1024; n <<= 1 {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		want := naiveDFT(c)[:n/2+1]
		if got := realSpectrum(x); !complexClose(got, want, 1e-9*float64(n)) {
			t.Fatalf("real FFT mismatch at n=%d", n)
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newRealFFT(%d): expected panic", n)
				}
			}()
			newRealFFT(n)
		}()
	}
}

// Property: the one-sided real spectrum, completed by Hermitian symmetry and
// inverted, gives back x.
func TestQuickFFTInverseRoundTrip(t *testing.T) {
	f := func(re [16]int8) bool {
		x := make([]float64, 16)
		for i := range x {
			x[i] = float64(re[i]) / 16
		}
		half := realSpectrum(x)
		full := make([]complex128, len(x))
		for k := range full {
			if k < len(half) {
				full[k] = half[k]
			} else {
				full[k] = cmplx.Conj(half[len(x)-k])
			}
		}
		refIFFT(full)
		for i, v := range full {
			if math.Abs(real(v)-x[i]) > 1e-9 || math.Abs(imag(v)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval's theorem — sum |x|² == (1/n) sum |X|², where the
// one-sided spectrum counts bins 1..n/2-1 twice.
func TestQuickFFTParseval(t *testing.T) {
	f := func(re [32]int8) bool {
		x := make([]float64, 32)
		var timeE float64
		for i := range x {
			x[i] = float64(re[i]) / 32
			timeE += x[i] * x[i]
		}
		spec := realSpectrum(x)
		var freqE float64
		for k, v := range spec {
			p := real(v)*real(v) + imag(v)*imag(v)
			if k != 0 && k != len(spec)-1 {
				p *= 2
			}
			freqE += p
		}
		freqE /= float64(len(x))
		return math.Abs(timeE-freqE) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the real FFT is linear — F(a·x + y) == a·F(x) + F(y).
func TestQuickFFTLinearity(t *testing.T) {
	f := func(xb, yb [8]int8, ab int8) bool {
		a := float64(ab) / 16
		x := make([]float64, 8)
		y := make([]float64, 8)
		comb := make([]float64, 8)
		for i := range x {
			x[i] = float64(xb[i]) / 16
			y[i] = float64(yb[i]) / 16
			comb[i] = a*x[i] + y[i]
		}
		fx, fy := realSpectrum(x), realSpectrum(y)
		for k := range fx {
			fx[k] = complex(a, 0)*fx[k] + fy[k]
		}
		return complexClose(realSpectrum(comb), fx, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerSpectrumOfSine(t *testing.T) {
	// A pure sine at bin 8 of a 64-point FFT must concentrate its energy there.
	const n = 64
	frame := make([]float64, n)
	for i := range frame {
		frame[i] = math.Sin(2 * math.Pi * 8 * float64(i) / n)
	}
	spec := realSpectrum(frame)
	power := func(k int) float64 { return real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k]) }
	peak := 0
	for k := 1; k < len(spec); k++ {
		if power(k) > power(peak) {
			peak = k
		}
	}
	if peak != 8 {
		t.Fatalf("sine energy peaked at bin %d, want 8", peak)
	}
}

func TestHannWindowEndpoints(t *testing.T) {
	w := HannWindow(64)
	if w[0] != 0 {
		t.Fatalf("Hann[0]=%v, want 0", w[0])
	}
	if math.Abs(w[32]-1) > 1e-12 {
		t.Fatalf("Hann midpoint=%v, want 1", w[32])
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 160: 256, 640: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}
