package deploy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// oracleGather is the scalar reference for one ternary row over int8 planes
// at the given column stride: acc[j] = Σ₊ cols[p·stride+j] − Σ₋.
func oracleGather(cols []int8, plus, minus []int32, stride int) []int32 {
	acc := make([]int32, stride)
	for _, p := range plus {
		for j := 0; j < stride; j++ {
			acc[j] += int32(cols[int(p)*stride+j])
		}
	}
	for _, m := range minus {
		for j := 0; j < stride; j++ {
			acc[j] -= int32(cols[int(m)*stride+j])
		}
	}
	return acc
}

// ternaryRows draws a rows×taps ternary matrix at the given nonzero density
// (density 0 gives all-zero rows, 1 full ±1 rows).
func ternaryRows(rng *rand.Rand, rows, taps int, density float64) []int8 {
	w := make([]int8, rows*taps)
	for i := range w {
		if rng.Float64() < density {
			if rng.Intn(2) == 0 {
				w[i] = 1
			} else {
				w[i] = -1
			}
		}
	}
	return w
}

// TestGatherRowLayoutsProperty drives the index-list runs walk — the one
// row walk every conv row takes — over randomized shapes and densities and
// checks it against the scalar oracle on every column including the pads.
// The sweep deliberately crosses the edge cases: all-zero rows,
// full-density rows, tap counts past the 256-plane chunk budget, and ragged
// column counts that force a padded stride.
func TestGatherRowLayoutsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tapCases := []int{1, 3, 7, 31, 32, 33, 40, 64, 255, 256, 300}
	colCases := []int{1, 5, 7, 8, 9, 25, 96, 125}
	densities := []float64{0, 0.05, 0.35, 0.8, 1}
	for trial := 0; trial < 60; trial++ {
		taps := tapCases[rng.Intn(len(tapCases))]
		nOut := colCases[rng.Intn(len(colCases))]
		density := densities[rng.Intn(len(densities))]
		rows := 1 + rng.Intn(3)
		stride := pad8(nOut)

		w := ternaryRows(rng, rows, taps, density)
		sp := compileRows(w, rows, taps)

		cols := make([]int8, taps*stride)
		for i := range cols {
			cols[i] = int8(rng.Intn(256) - 128)
		}
		colsB := i8Bytes(cols)

		for r := 0; r < rows; r++ {
			plus, minus := sp.row(r)
			want := oracleGather(cols, plus, minus, stride)

			runs := make([]int32, stride)
			gatherPlanesI8W(runs, colsB, plus, minus, stride)

			for j := 0; j < stride; j++ {
				if runs[j] != want[j] {
					t.Fatalf("trial %d row %d (taps=%d cols=%d d=%.2f): runs[%d]=%d, want %d",
						trial, r, taps, nOut, density, j, runs[j], want[j])
				}
			}
		}
	}
}

// TestFusedRowKernelsMatchTwoPhase pins the fused gather+requant kernels
// against the two-phase pair they replace, across random multipliers,
// biases, ReLU cuts, dst lengths off the 32-column tile width, rows past one
// fold budget (which must take the fallback) and the saturated-multiplier
// guard.
func TestFusedRowKernelsMatchTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tapCases := []int{1, 12, 40, 300} // 300 > chunkPlanes8: denser rows take the fallback
	colCases := []int{5, 8, 29, 32, 96, 125, 128}
	for trial := 0; trial < 80; trial++ {
		taps := tapCases[rng.Intn(len(tapCases))]
		nOut := colCases[rng.Intn(len(colCases))]
		stride := pad8(nOut)
		w := ternaryRows(rng, 1, taps, 0.1+0.8*rng.Float64())
		sp := compileRows(w, 1, taps)
		plus, minus := sp.row(0)

		cols := make([]int8, taps*stride)
		for i := range cols {
			cols[i] = int8(rng.Intn(256) - 128)
		}
		colsB := i8Bytes(cols)

		m := NewMult(0.001 + rng.Float64()*0.9)
		if trial%17 == 0 {
			m = Mult{Mant: 1 << 30, Shift: 0} // saturated: must take the guard
		}
		b := int32(rng.Intn(81) - 40)
		relu := rng.Intn(2) == 0
		acc := make([]int32, stride)

		wantAcc := oracleGather(cols, plus, minus, stride)
		wantQ8 := make([]int8, nOut)
		requantRowI8(wantQ8, wantAcc, m, b, relu)

		gotR8 := make([]int8, nOut)
		gatherPlanesQ8(gotR8, acc, colsB, plus, minus, stride, m, b, relu)
		for j := range wantQ8 {
			if gotR8[j] != wantQ8[j] {
				t.Fatalf("trial %d (taps=%d cols=%d m=%+v b=%d relu=%v): runs q8[%d]=%d, want %d",
					trial, taps, nOut, m, b, relu, j, gotR8[j], wantQ8[j])
			}
		}
		// The mixed policy's Wb writer stores biased two-lane words over
		// the whole padded width, pad columns included.
		gotW := make([]uint64, stride>>1)
		gatherPlanesQ16(gotW, acc, colsB, plus, minus, stride, m)
		for j := 0; j < stride; j++ {
			want := uint32(int32(clampI16(m.Apply(wantAcc[j]))) + biasI16)
			if got := lane32(gotW, j); got != want {
				t.Fatalf("trial %d (taps=%d cols=%d m=%+v): biased q16[%d]=%d, want %d",
					trial, taps, nOut, m, j, got, want)
			}
		}
	}
}

// lane32 reads column j of a biased two-lane word row.
func lane32(words []uint64, j int) uint32 { return uint32(words[j>>1] >> (32 * (j & 1))) }

// repeatIdx lists plane p n times: index lists may repeat a plane, which
// drives a row to any plane count without materialising that many planes.
func repeatIdx(p int32, n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = p
	}
	return idx
}

// TestBiasedLaneWcMatchesOracle pins the mixed policy's biased two-lane
// kernels against a scalar int64 oracle: the fused Wc row (gatherWordsQ8)
// against int64 sums narrowed to int32 and requantised by requantRowI8, and
// the biased Wb writer (gatherPlanesQ16) against int64 sums through
// Mult.Apply and the int16 clamp. Hidden planes carry the extremes −32768
// and 32767; rows cover 0, 1 and many planes, rows that drive a lane to
// exactly 0 and to exactly (n₊+n₋)·65535 at the chunkPlanes16 bound, and a
// row past that bound (which must take the two-phase fallback); multipliers
// include the saturated and zero shapes; lane widths run from 8 to 1000
// columns. Both kernels must not allocate.
func TestBiasedLaneWcMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	sat := Mult{Mant: 1 << 30, Shift: 0}
	mults := []Mult{NewMult(0.0007), NewMult(0.013), NewMult(0.61), sat, {}}
	for _, laneW := range []int{8, 16, 24, 40, 128, 1000} {
		nW := laneW >> 1
		nOut := laneW - rng.Intn(8) // real columns; the rest are pads
		const nPlanes = 64
		// Plane 0 is all 32767, plane 1 all −32768; the rest are random
		// with the extremes sprinkled in.
		vals := make([]int16, nPlanes*laneW)
		for i := range vals {
			switch {
			case i < laneW:
				vals[i] = 32767
			case i < 2*laneW:
				vals[i] = -32768
			default:
				switch rng.Intn(8) {
				case 0:
					vals[i] = 32767
				case 1:
					vals[i] = -32768
				default:
					vals[i] = int16(rng.Intn(65536) - 32768)
				}
			}
		}
		hid := make([]uint64, nPlanes*nW)
		for i, v := range vals {
			hid[i>>1] |= uint64(int32(v)+biasI16) << (32 * (i & 1))
		}
		// The oracle folds repeated indices into per-plane multiplicities
		// first, so the bound rows cost one pass per distinct plane.
		oracle := func(plus, minus []int32) []int32 {
			var mult [nPlanes]int64
			for _, p := range plus {
				mult[p]++
			}
			for _, m := range minus {
				mult[m]--
			}
			acc := make([]int32, laneW)
			for j := range acc {
				var s int64
				for p, k := range mult {
					s += k * int64(vals[p*laneW+j])
				}
				acc[j] = int32(s)
			}
			return acc
		}
		randIdx := func(n int) []int32 {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(nPlanes))
			}
			return idx
		}
		type row struct {
			name        string
			plus, minus []int32
			all         bool // run every multiplier (small rows only)
		}
		rows := []row{
			{"empty", nil, nil, true},
			{"one-plus-max", []int32{0}, nil, true},
			{"one-minus-min", nil, []int32{1}, true},
			{"many", randIdx(1 + rng.Intn(40)), randIdx(1 + rng.Intn(40)), true},
			{"r48-random", randIdx(17), randIdx(16), true},
			{"bound-lane-max", repeatIdx(0, chunkPlanes16), nil, false},
			{"bound-lane-zero", nil, repeatIdx(0, chunkPlanes16), false},
			{"bound-mixed", repeatIdx(1, chunkPlanes16/2), repeatIdx(0, chunkPlanes16-chunkPlanes16/2), false},
			{"past-bound", repeatIdx(0, 40000), repeatIdx(1, 30000), false},
		}
		acc := make([]int32, laneW)
		got := make([]int8, nOut)
		want := make([]int8, nOut)
		for _, r := range rows {
			wantAcc := oracle(r.plus, r.minus)
			ms := mults
			if !r.all {
				ms = []Mult{mults[1], sat}
			}
			for _, m := range ms {
				b := int32(rng.Intn(81) - 40)
				relu := rng.Intn(2) == 0
				requantRowI8(want, wantAcc, m, b, relu)
				gatherWordsQ8(got, acc, hid, r.plus, r.minus, laneW, m, b, relu)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("laneW %d row %s m=%+v b=%d relu=%v: wc[%d]=%d, want %d",
							laneW, r.name, m, b, relu, j, got[j], want[j])
					}
				}
			}
		}

		// The Wb writer: int8 im2col planes with the extremes, rows
		// within and past the chunkPlanes8 fold budget.
		const nCols = 40
		cols := make([]int8, nCols*laneW)
		for i := range cols {
			switch rng.Intn(6) {
			case 0:
				cols[i] = 127
			case 1:
				cols[i] = -128
			default:
				cols[i] = int8(rng.Intn(256) - 128)
			}
		}
		colsB := i8Bytes(cols)
		gotW := make([]uint64, nW)
		for _, n := range []int{0, 1, 12, chunkPlanes8, chunkPlanes8 + 1} {
			plus := make([]int32, 0, n)
			minus := make([]int32, 0, n)
			for k := 0; k < n; k++ {
				if rng.Intn(2) == 0 {
					plus = append(plus, int32(rng.Intn(nCols)))
				} else {
					minus = append(minus, int32(rng.Intn(nCols)))
				}
			}
			for _, m := range append([]Mult{NewMult(0.9), NewMult(40)}, mults...) {
				gatherPlanesQ16(gotW, acc, colsB, plus, minus, laneW, m)
				for j := 0; j < laneW; j++ {
					var s int64
					for _, p := range plus {
						s += int64(cols[int(p)*laneW+j])
					}
					for _, q := range minus {
						s -= int64(cols[int(q)*laneW+j])
					}
					w := uint32(int32(clampI16(m.Apply(int32(s)))) + biasI16)
					if g := lane32(gotW, j); g != w {
						t.Fatalf("laneW %d wb n=%d m=%+v: lane[%d]=%d, want %d", laneW, n, m, j, g, w)
					}
				}
			}
		}

		if !raceEnabled {
			plus, minus := rows[4].plus, rows[4].minus
			allocs := testing.AllocsPerRun(10, func() {
				gatherWordsQ8(got, acc, hid, plus, minus, laneW, mults[1], 3, true)
				gatherWordsQ8(got, acc, hid, plus, minus, laneW, sat, 3, true)
				gatherPlanesQ16(gotW, acc, colsB, []int32{3, 7}, []int32{5}, laneW, mults[1])
			})
			if allocs != 0 {
				t.Fatalf("laneW %d: biased-lane kernels allocate %.1f times per run", laneW, allocs)
			}
		}
	}
}

// TestDWTapWord pins the edge-shifted depthwise load: for any offset —
// before the plane, inside it, straddling either end, or fully outside —
// byte lane l must read img[off+l] when that index is in bounds and zero
// otherwise.
func TestDWTapWord(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(57)
		img := make([]byte, n)
		rng.Read(img)
		off := rng.Intn(n+32) - 16
		got := dwTapWord(img, off)
		var want uint64
		for l := 0; l < 8; l++ {
			if s := off + l; s >= 0 && s < n {
				want |= uint64(img[s]) << (8 * l)
			}
		}
		if got != want {
			t.Fatalf("trial %d: dwTapWord(len=%d, off=%d) = %#x, want %#x", trial, n, off, got, want)
		}
	}
}

// TestBatchLanePathWithTelemetry: a batch on an engine with an observer
// attached, the serving shape with telemetry on, must stay bit-identical to
// the unobserved engine and the NaiveInt oracle. Each run forces one
// saturated output multiplier — on a standard conv's Wc row, or on a
// depthwise channel of the fused single-unit walk — and checks
// engine.requant.two_phase_rows exactly: every batch frame runs the
// single-frame kernels, so the counter grows by perFrame per frame and per
// InferInt.
func TestBatchLanePathWithTelemetry(t *testing.T) {
	sat := Mult{Mant: 1 << 30, Shift: 0}
	cases := []struct {
		name     string
		conv, ch int
		perFrame int64
	}{
		{"std-wc", 2, 5, 1},
		{"dw", 1, 7, 1},
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		for _, tc := range cases {
			build := func() *Engine {
				e := deployTestEngine(53)
				e.Policy = pol
				e.ensureCompiled()
				q := e.Convs[tc.conv]
				q.OutMul[tc.ch], q.outMul8[tc.ch] = sat, sat
				return e
			}
			e, plain := build(), build()
			reg := telemetry.NewRegistry()
			obs := e.EnableTelemetry(reg, nil)

			rng := rand.New(rand.NewSource(7))
			const n = 11 // uneven worker chunks at any GOMAXPROCS above 1
			xs := make([][]float32, n)
			for i := range xs {
				x := make([]float32, e.Frames*e.Coeffs)
				for j := range x {
					x[j] = float32(rng.NormFloat64())
				}
				xs[i] = x
			}

			got := e.InferBatch(xs)
			want := plain.InferBatch(xs)
			for i := range got {
				if got[i].Err != nil || want[i].Err != nil {
					t.Fatalf("pol %v %s frame %d: err %v / %v", pol, tc.name, i, got[i].Err, want[i].Err)
				}
				oracle, _ := plain.NaiveInt(xs[i])
				if got[i].Class != want[i].Class {
					t.Fatalf("pol %v %s frame %d: class %d, want %d", pol, tc.name, i, got[i].Class, want[i].Class)
				}
				for j := range got[i].Scores {
					if got[i].Scores[j] != want[i].Scores[j] || got[i].Scores[j] != oracle[j] {
						t.Fatalf("pol %v %s frame %d: scores diverge at %d", pol, tc.name, i, j)
					}
				}
			}

			wantRows := n * tc.perFrame
			if got := obs.TwoPhaseRows.Value(); got != wantRows {
				t.Fatalf("pol %v %s: %d two-phase rows after the batch, want %d", pol, tc.name, got, wantRows)
			}
			e.InferInt(xs[0])
			wantRows += tc.perFrame
			if got := reg.Counter("engine.requant.two_phase_rows").Value(); got != wantRows {
				t.Fatalf("pol %v %s: %d two-phase rows after InferInt, want %d", pol, tc.name, got, wantRows)
			}
		}
	}
}

// TestMixedSingleBatchConcurrent shares one engine between a single-frame
// caller (InferInt's documented single-goroutine contract) and concurrent
// InferBatch callers, validating under -race that the resident arena and
// the batch arenas never alias. Every caller checks its classes
// against a reference engine.
func TestMixedSingleBatchConcurrent(t *testing.T) {
	e := deployTestEngine(67)
	e.Policy = PolicyInt8
	ref := deployTestEngine(67)
	ref.Policy = PolicyInt8

	rng := rand.New(rand.NewSource(11))
	const nIn = 12
	ins := make([][]float32, nIn)
	wantClass := make([]int, nIn)
	for i := range ins {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		ins[i] = x
		_, wantClass[i] = ref.InferInt(x)
	}

	iters := 30
	if raceEnabled {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	// One single-frame caller on the resident arena...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			for i, x := range ins {
				if _, cls := e.InferInt(x); cls != wantClass[i] {
					select {
					case errs <- errMismatch(i, cls, wantClass[i]):
					default:
					}
					return
				}
			}
		}
	}()
	// ...and three concurrent batch callers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, r := range e.InferBatch(ins) {
					if r.Err != nil || r.Class != wantClass[i] {
						select {
						case errs <- errMismatch(i, r.Class, wantClass[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func errMismatch(i, got, want int) error {
	return fmt.Errorf("frame %d: class %d, want %d", i, got, want)
}
