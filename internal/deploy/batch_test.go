package deploy

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestInferBatchMatchesPerFrame is the batch-path exactness property: for
// randomized engine shapes and densities, every batch size from 1 to 23
// (so every split into worker chunks) and both activation policies,
// InferBatch must be bit-identical per frame to InferInt and to the int64
// scalar oracle.
func TestInferBatchMatchesPerFrame(t *testing.T) {
	var sizes []int
	for n := 1; n <= 23; n++ {
		sizes = append(sizes, n)
	}
	if testing.Short() {
		sizes = []int{1, 3, 7, 8, 23}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		e := randSmallEngine(rng)
		want := int(e.Frames * e.Coeffs)
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e.Policy = pol
			var dst []BatchResult
			for _, n := range sizes {
				xs := make([][]float32, n)
				for i := range xs {
					x := make([]float32, want)
					for j := range x {
						x[j] = float32(rng.NormFloat64())
					}
					xs[i] = x
				}
				dst = e.InferBatchInto(dst, xs)
				for i, r := range dst {
					if r.Err != nil {
						t.Fatalf("seed %d pol %v n=%d frame %d: %v", seed, pol, n, i, r.Err)
					}
					sc, cls := e.InferInt(xs[i])
					if r.Class != cls {
						t.Fatalf("seed %d pol %v n=%d frame %d: class %d, InferInt %d", seed, pol, n, i, r.Class, cls)
					}
					for j := range sc {
						if r.Scores[j] != sc[j] {
							t.Fatalf("seed %d pol %v n=%d frame %d: score[%d]=%d, InferInt %d",
								seed, pol, n, i, j, r.Scores[j], sc[j])
						}
					}
					nsc, ncls := e.NaiveInt(xs[i])
					if r.Class != ncls {
						t.Fatalf("seed %d pol %v n=%d frame %d: class %d, NaiveInt %d", seed, pol, n, i, r.Class, ncls)
					}
					for j := range nsc {
						if r.Scores[j] != nsc[j] {
							t.Fatalf("seed %d pol %v n=%d frame %d: score[%d]=%d, NaiveInt %d",
								seed, pol, n, i, j, r.Scores[j], nsc[j])
						}
					}
				}
			}
		}
	}
}

// TestInferBatchZeroAllocs is the batch counterpart of the single-frame
// 0-alloc gate: with a reused result slice, the serial batch path must run
// without heap allocation under both policies.
func TestInferBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	e := SyntheticEngine(3, 0.35)
	const batch = 16
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float32, batch)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e.Policy = pol
		var dst []BatchResult
		dst = e.InferBatchCappedInto(dst, xs, 1) // warm: arena free list + Scores storage
		allocs := testing.AllocsPerRun(10, func() {
			dst = e.InferBatchCappedInto(dst, xs, 1)
		})
		if allocs != 0 {
			t.Fatalf("policy %v: InferBatchCappedInto allocated %.1f times per run, want 0", pol, allocs)
		}
		for i, r := range dst {
			if r.Err != nil {
				t.Fatalf("policy %v frame %d: %v", pol, i, r.Err)
			}
		}
	}
}

// TestInferBatchZeroAllocsAcrossGC is the regression test for the flaky
// batch 0-alloc gate: the batch arenas must survive garbage collections.
// Two GCs empty a sync.Pool completely, so a pooled arena would be rebuilt
// on the next batch; the engine's bounded free list keeps it. The measured
// call is the first after the collections, with no warm-up in between, at
// the batch sizes serving produces (one frame per lane call) and larger.
//
// The one-worker case runs on one P, as in testing.AllocsPerRun, so no
// other goroutine's mallocs land in the window, and must make none. The
// two-worker case takes the dispatching path: the caller hands a chunk to
// the persistent pool and waits on a completion channel, which comes from a
// bounded free list as the arenas do. With a second P running, the
// runtime's own allocations can land in its window: when a goroutine parks
// on a channel after a GC has emptied the sudog cache, the runtime
// allocates one 96 B sudog (runtime.acquireSudog), and waking a P can build
// an M. So that case allows one malloc, at the best of three GC cycles.
// Storage the engine rebuilds after a GC shows on every cycle, and a
// completion channel alone costs more than one malloc.
func TestInferBatchZeroAllocsAcrossGC(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	e := SyntheticEngine(3, 0.35)
	rng := rand.New(rand.NewSource(78))
	xs := make([][]float32, 16)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		workers    int
		sizes      []int
		maxMallocs uint64
		cycles     int
	}{
		{1, []int{1, 4, 16}, 0, 1},
		{2, []int{2, 4, 16}, 1, 3},
	} {
		runtime.GOMAXPROCS(tc.workers)
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e.Policy = pol
			for _, n := range tc.sizes {
				// Warm: arenas, channels and Scores storage. Several calls,
				// so all chunks have once run at the same time and the free
				// list holds an arena for each.
				var dst []BatchResult
				for k := 0; k < 4; k++ {
					dst = e.InferBatchCappedInto(dst, xs[:n], tc.workers)
				}
				best, bytes := ^uint64(0), uint64(0)
				for c := 0; c < tc.cycles && best > tc.maxMallocs; c++ {
					runtime.GC()
					runtime.GC()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					dst = e.InferBatchCappedInto(dst, xs[:n], tc.workers)
					runtime.ReadMemStats(&after)
					if m := after.Mallocs - before.Mallocs; m < best {
						best, bytes = m, after.TotalAlloc-before.TotalAlloc
					}
				}
				if best > tc.maxMallocs {
					t.Fatalf("%d workers, policy %v, batch %d: InferBatchCappedInto after two GCs made %d mallocs (%d B), want at most %d",
						tc.workers, pol, n, best, bytes, tc.maxMallocs)
				}
				for i, r := range dst {
					if r.Err != nil {
						t.Fatalf("%d workers, policy %v, batch %d, frame %d: %v", tc.workers, pol, n, i, r.Err)
					}
				}
			}
		}
	}
}

// TestInferBatchLaneConcurrent drives one shared engine from several
// goroutines under -race, as serve's inference lanes do: concurrent
// InferBatchInto calls, each cut into uneven worker chunks, must stay
// bit-identical to the per-frame path.
func TestInferBatchLaneConcurrent(t *testing.T) {
	e := SyntheticEngine(5, 0.35)
	const n = 23
	rng := rand.New(rand.NewSource(55))
	xs := make([][]float32, n)
	exp := make([][]int32, n)
	expCls := make([]int, n)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
		sc, cls := e.InferInt(x)
		exp[i] = append([]int32(nil), sc...)
		expCls[i] = cls
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []BatchResult
			for it := 0; it < 3; it++ {
				dst = e.InferBatchInto(dst, xs)
				for i, r := range dst {
					if r.Err != nil {
						t.Errorf("frame %d: %v", i, r.Err)
						return
					}
					if r.Class != expCls[i] {
						t.Errorf("frame %d: class %d, want %d", i, r.Class, expCls[i])
						return
					}
					for j := range exp[i] {
						if r.Scores[j] != exp[i][j] {
							t.Errorf("frame %d: score[%d]=%d, want %d", i, j, r.Scores[j], exp[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
