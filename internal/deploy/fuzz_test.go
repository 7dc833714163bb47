package deploy

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
)

// FuzzReadEngine ensures the binary model loader rejects corrupt input with
// an error rather than panicking or over-allocating. The seed corpus covers
// raw garbage plus mutations of a *valid* serialized engine — bit flips and
// truncations of real artifacts, the corruptions flash actually produces.
func FuzzReadEngine(f *testing.F) {
	f.Add([]byte("THNT"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	var buf bytes.Buffer
	if _, err := makeTinyEngine().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	inj := faultinject.New(1)
	for i := 0; i < 8; i++ {
		f.Add(inj.FlipBits(valid, 1+i))
		f.Add(inj.TruncateAt(valid))
	}

	// A v3 artifact with a populated calibration table, plus mutations aimed
	// at its trailing v3 section (policy byte, site lengths, scale floats):
	// corrupt tables must come back ErrCorrupt/ErrChecksum, never a panic.
	calEng := makeTinyEngine()
	calEng.Calib = calEng.calibTable()
	calEng.Policy = PolicyInt8
	var cbuf bytes.Buffer
	if _, err := calEng.WriteTo(&cbuf); err != nil {
		f.Fatal(err)
	}
	withCalib := cbuf.Bytes()
	f.Add(append([]byte(nil), withCalib...))
	// The shared v2 body ends 9 bytes before the end of `valid` (whose v3
	// section is the 5-byte empty table), so the populated v3 section spans
	// [len(valid)-9, len(withCalib)-4).
	v3Start, v3End := len(valid)-9, len(withCalib)-4
	for i := 0; i < 8; i++ {
		f.Add(inj.FlipBits(withCalib, 1+i))
		f.Add(inj.TruncateAt(withCalib))
		// Target the v3 section directly: flip one byte at/after the policy.
		m := append([]byte(nil), withCalib...)
		m[v3Start+(i*13)%(v3End-v3Start)] ^= byte(1 << (i % 8))
		f.Add(m)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err == nil {
			if eng == nil {
				t.Fatal("nil engine without error")
			}
			// Anything the loader accepts must satisfy the structural
			// invariants — InferInt on it must not be able to panic.
			if verr := eng.Validate(); verr != nil {
				t.Fatalf("accepted engine fails validation: %v", verr)
			}
		}
	})
}

// FuzzUnpackTernary checks pack/unpack totality on arbitrary packed bytes.
func FuzzUnpackTernary(f *testing.F) {
	f.Add([]byte{0b01_10_00_01}, 4)
	f.Fuzz(func(t *testing.T, packed []byte, n int) {
		if n < 0 || n > 4*len(packed) {
			return
		}
		vals := UnpackTernary(packed, n)
		for _, v := range vals {
			if v < -1 || v > 1 {
				t.Fatalf("non-ternary value %d", v)
			}
		}
	})
}

// FuzzEnginePaths is the differential target over every inference path. The
// inputs pick a random small engine (randSmallEngine from seed), its
// starting policy (pol&1) and a hop schedule. Each schedule byte is one
// step: 0xFF invalidates the hop cache, 0xFE flips the policy, and any other
// byte b slides the window by b mod (Frames+3) fresh frames (0 repeats the
// window, Frames or more replaces it). After every step InferInt,
// InferBatchInto, InferHopInt, NaiveInt and InferFloat must return the same
// scores for the current window.
func FuzzEnginePaths(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{12, 4, 0xFE, 2, 0xFF, 7, 0, 30})
	f.Add(int64(2), uint8(1), []byte{1, 1, 1, 2, 3, 5, 8})
	f.Add(int64(3), uint8(0), []byte{0xFE, 0xFE, 6, 0xFF, 0xFF, 9, 9})
	f.Add(int64(4), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, pol uint8, sched []byte) {
		if len(sched) > 64 {
			sched = sched[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		e := randSmallEngine(rng)
		if err := e.Validate(); err != nil {
			t.Fatalf("random engine invalid: %v", err)
		}
		e.Policy = Policy(pol & 1)
		frames, coeffs := int(e.Frames), int(e.Coeffs)
		win := make([]float32, frames*coeffs)
		for i := range win {
			win[i] = float32(rng.NormFloat64())
		}
		hs := e.NewHopState()
		defer hs.Release()
		var dst []BatchResult
		// A fresh state is cold, so the first step is a full recompute
		// whatever it asks for.
		for step, b := range append([]byte{0}, sched...) {
			nNew := 0
			switch b {
			case 0xFF:
				hs.Invalidate()
			case 0xFE:
				e.Policy ^= 1
			default:
				nNew = int(b) % (frames + 3)
				shift := min(nNew, frames)
				copy(win, win[shift*coeffs:])
				for i := (frames - shift) * coeffs; i < len(win); i++ {
					win[i] = float32(rng.NormFloat64())
				}
			}
			want, wantCls := e.NaiveInt(win)
			check := func(path string, sc []int32, cls int) {
				t.Helper()
				if cls != wantCls {
					t.Fatalf("step %d (byte %#x, pol %v): %s class %d, NaiveInt %d", step, b, e.Policy, path, cls, wantCls)
				}
				for j := range want {
					if sc[j] != want[j] {
						t.Fatalf("step %d (byte %#x, pol %v): %s score[%d]=%d, NaiveInt %d", step, b, e.Policy, path, j, sc[j], want[j])
					}
				}
			}
			sc, cls := e.InferHopInt(hs, win, nNew)
			check("InferHopInt", sc, cls)
			sc, cls = e.InferInt(win)
			check("InferInt", sc, cls)
			sc, cls = e.InferFloat(win)
			check("InferFloat", sc, cls)
			dst = e.InferBatchInto(dst, [][]float32{win, win, win})
			for i, r := range dst {
				if r.Err != nil {
					t.Fatalf("step %d: batch frame %d: %v", step, i, r.Err)
				}
				check("InferBatchInto", r.Scores, r.Class)
			}
		}
	})
}
