package deploy

import (
	"bytes"
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
