package deploy

// Compile-time run-span coalescing for the frame-major lane tree projection
// (lane.go forwardLane, the tree's Z Wb rows). Conv rows keep the index-list
// runs walk on every path.
//
// The sparse row form (kernels.go) stores a ternary row as two sorted column
// index lists. Ternarised weights are frequently *clustered* — adjacent taps
// of one kernel window quantise to the same sign — so adjacent indices are
// common, and the lane gather can sweep a contiguous span of planes with one
// strided pointer walk instead of re-deriving a plane base per index. At
// engine-compile time each index run is coalesced into (start, length) spans
// and pre-split into chunks of at most chunkPlanes8 planes, with the bias
// correction 128·n₊ + 127·n₋ precomputed per chunk, so the lane gather's
// inner loop carries no budget arithmetic at all: it walks spans, folds once
// per chunk, and subtracts a constant.
//
// Exactness is inherited from the SWAR scheme in bitplane.go: a chunk holds
// ≤ 256 planes, each contributing ≤ 255 per 16-bit lane, and int32 addition
// commutes mod 2³², so any chunking of the same index set folds to identical
// accumulators.

// laneSpan is one contiguous run of ±1 plane indices: planes
// [start, start+n).
type laneSpan struct {
	start, n int32
}

// laneChunk is a fold unit of the lane gather: at most chunkPlanes8 planes
// across its +1 and −1 spans, with the chunk's bias correction precomputed.
type laneChunk struct {
	plus, minus []laneSpan
	corr        int32
}

// spanRows is the span-coalesced form of a compiled ternary matrix: per row,
// the chunk list the lane gather walks. Rows with no nonzeros have nil
// chunks.
type spanRows struct {
	chunks [][]laneChunk
}

// compileSpanRows coalesces every row of a compiled sparse matrix into
// chunked span form.
func compileSpanRows(s sparseRows, rows int) spanRows {
	sr := spanRows{chunks: make([][]laneChunk, rows)}
	for r := 0; r < rows; r++ {
		plus, minus := s.row(r)
		sr.chunks[r] = chunkLaneSpans(coalesceSpans(plus), coalesceSpans(minus))
	}
	return sr
}

// coalesceSpans merges a sorted index list into maximal contiguous spans.
func coalesceSpans(idx []int32) []laneSpan {
	var out []laneSpan
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		out = append(out, laneSpan{start: idx[i], n: int32(j - i)})
		i = j
	}
	return out
}

// chunkLaneSpans splits the +1 and −1 spans of one row into fold chunks of at
// most chunkPlanes8 planes each, precomputing each chunk's bias correction.
// Spans longer than the remaining chunk budget are split across chunks.
func chunkLaneSpans(plus, minus []laneSpan) []laneChunk {
	if len(plus)+len(minus) == 0 {
		return nil
	}
	var chunks []laneChunk
	var cur laneChunk
	budget := int32(chunkPlanes8)
	var pc, mc int32
	flush := func() {
		if pc+mc > 0 {
			cur.corr = 128*pc + 127*mc
			chunks = append(chunks, cur)
			cur = laneChunk{}
			pc, mc = 0, 0
			budget = chunkPlanes8
		}
	}
	add := func(sp laneSpan, isPlus bool) {
		for sp.n > 0 {
			if budget == 0 {
				flush()
			}
			take := sp.n
			if take > budget {
				take = budget
			}
			part := laneSpan{start: sp.start, n: take}
			if isPlus {
				cur.plus = append(cur.plus, part)
				pc += take
			} else {
				cur.minus = append(cur.minus, part)
				mc += take
			}
			budget -= take
			sp.start += take
			sp.n -= take
		}
	}
	for _, sp := range plus {
		add(sp, true)
	}
	for _, sp := range minus {
		add(sp, false)
	}
	flush()
	return chunks
}
