package deploy

import (
	"fmt"
	"runtime"
)

// BatchResult is one frame's outcome from InferBatch.
type BatchResult struct {
	Scores []int32 // caller-owned copy of the class scores
	Class  int     // argmax class; -1 when Err is set
	Err    error   // wrong-length input or a recovered inference panic
}

// maxBatchWorkers caps the engine's persistent batch worker pool and its
// arena free list. The pool is fixed-size (started once, lazily) so
// GOMAXPROCS changes between calls never strand it undersized; the per-call
// worker cap bounds how many chunks are actually in flight.
const maxBatchWorkers = 16

// batchJob is one contiguous chunk of a batch, passed by value to the
// persistent worker pool; done is the caller's completion channel.
type batchJob struct {
	e    *Engine
	xs   [][]float32
	dst  []BatchResult
	done chan struct{}
}

func batchWorker(work chan batchJob) {
	for j := range work {
		j.e.runChunk(j.xs, j.dst)
		j.done <- struct{}{}
	}
}

// ensureBatchWorkers starts the persistent batch workers on first parallel
// batch. Workers hold only the channel (never the engine), so once the
// engine is garbage its finalizer closes work and the pool unwinds.
func (e *Engine) ensureBatchWorkers() {
	e.batchOnce.Do(func() {
		e.batchWork = make(chan batchJob, maxBatchWorkers)
		e.batchDone = make(chan chan struct{}, maxBatchWorkers)
		for i := 0; i < maxBatchWorkers; i++ {
			go batchWorker(e.batchWork)
		}
		runtime.SetFinalizer(e, func(e *Engine) { close(e.batchWork) })
	})
}

// InferBatch classifies many MFCC frames, amortising dispatch for streaming
// and serving callers. The batch is cut into one contiguous chunk per
// worker (up to GOMAXPROCS, from a persistent pool); each chunk runs the
// single-frame pipeline frame by frame on one arena checked out of the
// engine's free list. Per-frame faults (wrong input length, a recovered
// panic) land in that frame's Err instead of failing the batch. Unlike
// InferInt, the returned score slices are caller-owned copies.
//
// InferBatch is safe for concurrent use, including concurrently with other
// InferBatch calls on the same engine.
func (e *Engine) InferBatch(xs [][]float32) []BatchResult {
	return e.InferBatchCappedInto(nil, xs, 0)
}

// InferBatchInto is InferBatch writing into caller-owned results: dst (and
// each slot's Scores storage) is reused when its capacity suffices, so a
// caller that keeps its result slice across batches runs the whole batch
// path at zero steady-state heap allocations.
func (e *Engine) InferBatchInto(dst []BatchResult, xs [][]float32) []BatchResult {
	return e.InferBatchCappedInto(dst, xs, 0)
}

// InferBatchCapped is InferBatch with an explicit ceiling on the workers
// used for this one call (maxWorkers <= 0 selects GOMAXPROCS). Serving
// callers that already run many batches concurrently — one per inference
// lane — cap per-call fan-out so L lanes × B frames never oversubscribe the
// host; the results are identical at any cap.
func (e *Engine) InferBatchCapped(xs [][]float32, maxWorkers int) []BatchResult {
	return e.InferBatchCappedInto(nil, xs, maxWorkers)
}

// InferBatchCappedInto combines InferBatchInto and InferBatchCapped: results
// go into the reused dst, and at most maxWorkers goroutines (including the
// caller) process the batch, as min(GOMAXPROCS, maxWorkers, len(xs))
// contiguous chunks. With one worker the whole batch runs on the calling
// goroutine with no dispatch at all; otherwise the caller hands every chunk
// but the first to the persistent worker pool and runs the first itself. A
// pool saturated by concurrent batches degrades to running the chunk inline
// instead of blocking.
func (e *Engine) InferBatchCappedInto(dst []BatchResult, xs [][]float32, maxWorkers int) []BatchResult {
	if cap(dst) >= len(xs) {
		dst = dst[:len(xs)]
	} else {
		grown := make([]BatchResult, len(xs))
		copy(grown, dst[:cap(dst)]) // carry reusable Scores storage forward
		dst = grown
	}
	if len(xs) == 0 {
		return dst
	}
	e.ensureCompiled()
	n := len(xs)
	workers := runtime.GOMAXPROCS(0)
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		e.runChunk(xs, dst)
		return dst
	}
	e.ensureBatchWorkers()
	var done chan struct{}
	select {
	case done = <-e.batchDone:
	default:
		done = make(chan struct{}, maxBatchWorkers)
	}
	inflight := 0
	for k := 1; k < workers; k++ {
		lo, hi := k*n/workers, (k+1)*n/workers
		select {
		case e.batchWork <- batchJob{e: e, xs: xs[lo:hi], dst: dst[lo:hi], done: done}:
			inflight++
		default:
			e.runChunk(xs[lo:hi], dst[lo:hi])
		}
	}
	first := n / workers
	e.runChunk(xs[:first], dst[:first])
	for ; inflight > 0; inflight-- {
		<-done
	}
	// Completion channels go back to a bounded free list, like the arenas
	// (see getArena): a sync.Pool would be emptied by two GCs.
	select {
	case e.batchDone <- done:
	default:
	}
	return dst
}

// runChunk classifies a contiguous run of frames into dst on one arena
// checked out of the engine's free list.
func (e *Engine) runChunk(xs [][]float32, dst []BatchResult) {
	a := e.getArena()
	for i, x := range xs {
		dst[i] = e.inferOne(a, x, dst[i].Scores)
	}
	e.putArena(a)
}

// inferOne classifies one frame on the given arena with InferSafe semantics:
// length-checked input, panics converted to errors. scratch is the previous
// result's Scores storage (nil is fine); it is overwritten and reused so
// steady-state callers allocate nothing.
func (e *Engine) inferOne(a *arena, x []float32, scratch []int32) (r BatchResult) {
	defer func() {
		if p := recover(); p != nil {
			e.obs.fault()
			r = BatchResult{Class: -1, Err: fmt.Errorf("deploy: inference panic: %v", p)}
		}
	}()
	if want := int(e.Frames) * int(e.Coeffs); len(x) != want {
		e.obs.fault()
		return BatchResult{Class: -1, Err: fmt.Errorf("%w: input length %d, want %d", ErrShapeMismatch, len(x), want)}
	}
	// Run at the arena's policy, not e.Policy: the kernels must match the
	// buffers the arena was sized with, even if Policy was flipped after this
	// worker checked its arena out.
	sc, cls := e.inferArena(a, x, a.pol)
	return BatchResult{Scores: append(scratch[:0], sc...), Class: cls}
}

// getArena checks a scratch arena out of the engine's free list, building
// one when the list is empty; arenas sized for a stale policy are dropped.
// Batch chunks and incremental hops (hop.go) share the list.
// The free list is a bounded channel rather than a sync.Pool: a pool is
// emptied by every second GC, and each miss rebuilds a whole arena, which
// broke the batch path's zero-allocation steady state. It holds at most
// maxBatchWorkers arenas — one per chunk that can be in flight — and
// neither end ever blocks.
func (e *Engine) getArena() *arena {
	select {
	case a := <-e.arenas:
		if a.pol == e.Policy {
			return a
		}
	default:
	}
	a := newArena(e)
	e.obs.noteArena(a)
	return a
}

func (e *Engine) putArena(a *arena) {
	select {
	case e.arenas <- a:
	default: // list full: drop the arena for the GC
	}
}
