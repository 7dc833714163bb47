package deploy

// Precompiled sparse ternary kernels.
//
// TWN quantisation drives most ternary entries to zero, so iterating a dense
// ternary row wastes the majority of its loop trips on `t == 0` checks. At
// kernel-compilation time (ReadEngine / Compile / first InferInt) every ternary
// matrix row is converted into two index lists — the columns of its +1
// entries and the columns of its −1 entries — so the inner loops become
// gather-add / gather-sub over only the nonzeros. Integer addition is exact
// and commutative, so the sparse kernels are bit-identical to the naive
// dense reference retained in engine.go (NaiveInt).

// sparseRows is a compiled ternary matrix: one flat index array holding, per
// row, the run of +1 column indices followed by the run of −1 column
// indices. Row r's runs are idx[off[2r]:off[2r+1]] (plus) and
// idx[off[2r+1]:off[2r+2]] (minus). len(idx) is the matrix's nonzero count.
type sparseRows struct {
	idx []int32
	off []int32
}

// compileRows converts a dense ternary matrix [rows, cols] into its sparse
// row form.
func compileRows(w []int8, rows, cols int) sparseRows {
	nnz := 0
	for _, v := range w {
		if v != 0 {
			nnz++
		}
	}
	s := sparseRows{
		idx: make([]int32, 0, nnz),
		off: make([]int32, 2*rows+1),
	}
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > 0 {
				s.idx = append(s.idx, int32(c))
			}
		}
		s.off[2*r+1] = int32(len(s.idx))
		for c, v := range row {
			if v < 0 {
				s.idx = append(s.idx, int32(c))
			}
		}
		s.off[2*r+2] = int32(len(s.idx))
	}
	return s
}

// row returns the +1 and −1 column-index runs of row r.
func (s *sparseRows) row(r int) (plus, minus []int32) {
	return s.idx[s.off[2*r]:s.off[2*r+1]], s.idx[s.off[2*r+1]:s.off[2*r+2]]
}

// compileKernels unpacks the ternary matrices and builds their sparse row
// forms. Idempotent per engine via Engine.ensureCompiled.
func (q *QConv) compileKernels() {
	q.unpack()
	if q.Kind == kindDepthwise {
		// Wc is one scalar per hidden unit; only Wb needs row compilation.
		q.wbSp = compileRows(q.wb, int(q.Cin)*int(q.R), int(q.KH*q.KW))
		return
	}
	q.wbSp = compileRows(q.wb, int(q.R), int(q.Cin*q.KH*q.KW))
	q.wcSp = compileRows(q.wc, int(q.Cout), int(q.R))
}

func (q *QDense) compileKernels() {
	q.unpack()
	q.wbSp = compileRows(q.wb, int(q.R), int(q.In))
	q.wcSp = compileRows(q.wc, int(q.Out), int(q.R))
	// Wb reads int8 activations, so it also compiles to bitplane words for
	// the word-packed matvec (bitplane.go). Wc reads the int16 hidden
	// vector, which the matvec gathers by index.
	q.wbBits = compileBitRows(q.wb, int(q.R), int(q.In))
}

func (t *QTree) compileKernels() {
	t.Z.compileKernels()
	for k := range t.W {
		t.W[k].compileKernels()
		t.V[k].compileKernels()
	}
}

// colRuns computes the output-coordinate range [lo,hi) for one kernel tap k
// along a dimension of source size n: the positions o for which
// o·stride + k − pad lands inside [0, n). Everything outside the run reads
// padding and stays zero.
func colRuns(n, k, stride, pad, outN int) (lo, hi int) {
	// ceil((pad−k)/stride): the +stride−1 trick is exact for positive
	// numerators; a too-small result for negative ones is clamped to 0.
	lo = (pad - k + stride - 1) / stride
	if lo < 0 {
		lo = 0
	}
	top := n - 1 - k + pad
	if top < 0 {
		return 0, 0
	}
	hi = top/stride + 1
	if hi > outN {
		hi = outN
	}
	return lo, hi
}

// convGeom is one conv layer's spatial geometry and channel strides as the
// executor sees them: every image past the engine input lives at the
// column-lane padded stride pad8(oh·ow); the input image is dense.
type convGeom struct {
	h, w      int // input spatial size
	oh, ow    int // output spatial size
	inStride  int // input channel stride (dense h·w for the first layer)
	outStride int // output channel stride, pad8(oh·ow)
}

// convGeoms walks the conv chain from the engine's input image.
func (e *Engine) convGeoms() []convGeom {
	gs := make([]convGeom, len(e.Convs))
	h, w := int(e.Frames), int(e.Coeffs)
	inStride := h * w
	for i, q := range e.Convs {
		oh, ow := q.outSize(h, w)
		gs[i] = convGeom{h: h, w: w, oh: oh, ow: ow, inStride: inStride, outStride: pad8(oh * ow)}
		h, w, inStride = oh, ow, gs[i].outStride
	}
	return gs
}

// segN counts the output positions a segment list covers.
func segN(segs [][2]int, ow int) int {
	n := 0
	for _, s := range segs {
		n += (s[1] - s[0]) * ow
	}
	return n
}

// runBand is the conv executor, the one way every integer path runs a
// convolution. It recomputes the listed output-row segments of q from the
// input image x into the output image out and returns the number of output
// positions it computed. Single-frame inference passes one whole-plane
// segment; an incremental hop passes the rows its cache cannot keep.
//
// Standard convs share one kernel dispatch across all segments: the band
// im2col concatenates their rows into a band-local plane at stride
// pad8(nBand), the compiled row kernels run once over the nBand positions,
// and the requantised rows land in out directly when there is one segment,
// or are staged per channel and scattered back segment by segment. A
// pointwise conv's whole plane is its own im2col matrix, so it is read in
// place at the image's channel stride; a partial pointwise band is copied
// to the band stride instead, since a band slice at the image stride would
// let the full-word loads read past the plane.
//
// Depthwise convs always recompute their whole plane through dwSparse: its
// fused column-lane walk has no band form, and rows outside the segments
// come out bit-identical to what the caller cached.
//
// Partial bands stage through the arena's ping-pong planes (imgA for the
// pointwise copy, imgB for the per-channel rows), so x and out must not be
// those planes unless the segment covers the whole plane.
func (q *QConv) runBand(a *arena, g convGeom, x, out []int8, segs [][2]int, pol Policy) int {
	nBand := segN(segs, g.ow)
	if nBand == 0 {
		return 0
	}
	if q.Kind == kindDepthwise {
		q.dwSparse(a, g, x[:int(q.Cin)*g.inStride], out, pol)
		return g.oh * g.ow
	}
	cin, kh, kw := int(q.Cin), int(q.KH), int(q.KW)
	pb := pad8(nBand)
	var cols []int8
	ps := pb // im2col plane stride
	switch {
	case q.pointwise() && nBand == g.oh*g.ow:
		cols, ps = x[:cin*g.inStride], g.inStride
	case q.pointwise():
		// Each band plane is the input plane's segment rows, contiguous:
		// copy them straight across and zero the pad tail the full-word
		// kernels read past nBand.
		cols = a.imgA[:cin*pb]
		for ch := 0; ch < cin; ch++ {
			n := gatherRows(cols[ch*pb:], x[ch*g.inStride:], segs, g.ow)
			clear(cols[ch*pb+n : (ch+1)*pb])
		}
	default:
		cols = a.cols[:cin*kh*kw*pb]
		im2colBandI8(cols, x, cin, g.h, g.w, kh, kw, int(q.Stride),
			int(q.PadH), int(q.PadW), g.inStride, pb, g.ow, segs)
	}

	// Hidden rows: biased two-lane int16 words under the mixed policy, int8
	// planes under PolicyInt8, both at the band stride. Rows run serially
	// through one accumulator strip, the fused kernels' fallback scratch.
	colsB := i8Bytes(cols)
	acc := a.acc[:pb]
	act8 := pol == PolicyInt8
	var hidB []byte
	var hidW []uint64
	if act8 {
		hidden8 := a.hidden8[:int(q.R)*pb]
		for i := 0; i < int(q.R); i++ {
			q.hidRowQ8(i, hidden8[i*pb:][:nBand], acc, colsB, ps)
		}
		hidB = i8Bytes(hidden8)
	} else {
		hidW = a.hidW[:int(q.R)*pb>>1]
		for i := 0; i < int(q.R); i++ {
			q.hidRowQ16(i, hidW[i*pb>>1:][:pb>>1], acc, colsB, ps)
		}
	}

	// Output channels: only the real nBand columns are written.
	direct := len(segs) == 1
	base0 := segs[0][0] * g.ow
	row := a.imgB[:nBand]
	for c := 0; c < int(q.Cout); c++ {
		dst := row
		if direct {
			dst = out[c*g.outStride+base0:][:nBand]
		}
		if act8 {
			q.outRowQ8(c, dst, acc, hidB, pb)
		} else {
			q.outRowQ16(c, dst, acc, hidW, pb)
		}
		if !direct {
			scatterRows(out[c*g.outStride:], row, segs, g.ow)
		}
	}
	return nBand
}

// gatherRows copies one channel plane's segment rows into a band-local
// plane, returning the number of positions copied.
func gatherRows(band, plane []int8, segs [][2]int, ow int) int {
	base := 0
	for _, s := range segs {
		n := (s[1] - s[0]) * ow
		copy(band[base:base+n], plane[s[0]*ow:][:n])
		base += n
	}
	return base
}

// scatterRows copies a band-local row back into one channel plane's
// segments, the inverse of gatherRows.
func scatterRows(plane, band []int8, segs [][2]int, ow int) {
	base := 0
	for _, s := range segs {
		n := (s[1] - s[0]) * ow
		copy(plane[s[0]*ow:][:n], band[base:base+n])
		base += n
	}
}

// im2colBandI8 lowers the listed output-row segments of an int8 image
// [c,h,w] (channel stride srcCh) into band-local column storage: segment
// rows are concatenated, so position (oi,oj) of segment k lands at
// segBase(k)+(oi−seg.lo)·outW+oj of each kh·kw·c plane, and dstP is the
// band plane stride (pad8(nBand)). dst is zeroed, pad positions included.
// The valid run of each row is computed arithmetically, so the copy loops
// carry no per-element bounds branches and the common stride-1 case
// reduces to memmove.
func im2colBandI8(dst []int8, x []int8, c, h, w, kh, kw, stride, padH, padW, srcCh, dstP, outW int, segs [][2]int) {
	outH := (h+2*padH-kh)/stride + 1
	clear(dst)
	for ch := 0; ch < c; ch++ {
		img := x[ch*srcCh:][:h*w]
		for ki := 0; ki < kh; ki++ {
			oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
			for kj := 0; kj < kw; kj++ {
				ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
				if ojHi <= ojLo {
					continue
				}
				row := dst[((ch*kh+ki)*kw+kj)*dstP:]
				base := 0
				for _, seg := range segs {
					lo, hi := max(seg[0], oiLo), min(seg[1], oiHi)
					for oi := lo; oi < hi; oi++ {
						si := oi*stride + ki - padH
						sj := ojLo*stride + kj - padW
						drow := row[base+(oi-seg[0])*outW+ojLo : base+(oi-seg[0])*outW+ojHi]
						if stride == 1 {
							copy(drow, img[si*w+sj:])
						} else {
							src := img[si*w:]
							j := 0
							for ; j+1 < len(drow); j += 2 {
								drow[j] = src[sj]
								drow[j+1] = src[sj+stride]
								sj += 2 * stride
							}
							for ; j < len(drow); j++ {
								drow[j] = src[sj]
								sj += stride
							}
						}
					}
					base += (seg[1] - seg[0]) * outW
				}
			}
		}
	}
}

// dwGatherTap adds (sign +1) or subtracts (sign −1) one kernel tap's sliding
// window of img into hacc, reading the image directly: hacc[oi,oj] += img at
// (oi·stride+ki−padH, oj·stride+kj−padW), skipping padding positions (they
// contribute zero, exactly as the zero-filled im2col row would).
func dwGatherTap(hacc []int32, img []int8, ki, kj, h, w, outH, outW, stride, padH, padW int, sign int32) {
	oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
	ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
	if ojHi <= ojLo {
		return
	}
	for oi := oiLo; oi < oiHi; oi++ {
		si := oi*stride + ki - padH
		sj := ojLo*stride + kj - padW
		dst := hacc[oi*outW+ojLo : oi*outW+ojHi]
		if stride == 1 {
			src := img[si*w+sj:][:len(dst)]
			if sign > 0 {
				for j, v := range src {
					dst[j] += int32(v)
				}
			} else {
				for j, v := range src {
					dst[j] -= int32(v)
				}
			}
		} else {
			src := img[si*w:]
			for j := range dst {
				dst[j] += sign * int32(src[sj])
				sj += stride
			}
		}
	}
}

// dwSparse is the depthwise kernel. It skips im2col entirely — each Wb
// nonzero is one sliding-window tap gathered straight off the input image —
// and skips hidden units whose Wc entry is zero before their gathers run
// (the naive path computes them and then discards the result). Channels are
// processed serially: per-channel work is tiny and the standard-conv stages
// dominate.
func (q *QConv) dwSparse(a *arena, g convGeom, x, out []int8, pol Policy) {
	h, w, outH, outW := g.h, g.w, g.oh, g.ow
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	pa := pad8(nOut)
	r := int(q.R)
	acc := a.acc[:nOut]
	hacc := a.acc[pa:][:pa]
	act8 := pol == PolicyInt8
	// The column-lane walk (collane.go) serves every geometry that admits
	// it (dwCol); stride-2 and width-changing convs keep the scalar tap
	// gather. The edge-shifted loads of the fused path need one full word
	// per plane.
	fuse1 := q.dwCol && r == 1 && h*w >= 8
	for ch := 0; ch < int(q.Cin); ch++ {
		img := x[ch*g.inStride:]
		if fuse1 {
			// One hidden unit per channel: the whole chain fuses into a
			// single pass (dwColQ8/dwColQ16), no int32 round-trips.
			var hm, om Mult
			if act8 {
				hm, om = q.hidMul8[ch], q.outMul8[ch]
			} else {
				hm, om = q.HidMul[ch], q.OutMul[ch]
			}
			if !satMult(hm) && !satMult(om) {
				dst := out[ch*g.outStride:][:nOut]
				if wcv := q.wc[ch]; wcv == 0 {
					// The unit is pruned: the channel requantises a zero
					// accumulator, a constant.
					var lo int32 = -128
					if q.ReLU {
						lo = 0
					}
					half := int64(1) << (om.Shift - 1)
					v0 := q8(0, int64(om.Mant), half, om.Shift, q.OutBias[ch], lo)
					for j := range dst {
						dst[j] = v0
					}
				} else {
					s := int32(1)
					if wcv < 0 {
						s = -1
					}
					plus, minus := q.wbSp.row(ch)
					if act8 {
						q.dwColQ8(dst, i8Bytes(img), plus, minus, hm, s, om, q.OutBias[ch], q.ReLU)
					} else {
						q.dwColQ16(dst, i8Bytes(img), plus, minus, hm, s, om, q.OutBias[ch], q.ReLU)
					}
				}
				continue
			}
		}
		var imgB []byte
		if q.dwCol {
			imgB = i8Bytes(img)
		} else {
			img = img[:h*w]
		}
		for j := range acc {
			acc[j] = 0
		}
		for u := 0; u < r; u++ {
			hu := ch*r + u
			wcv := q.wc[hu]
			if wcv == 0 {
				continue
			}
			plus, minus := q.wbSp.row(hu)
			if q.dwCol {
				gLo, gHi := q.dwColUnit(hacc, imgB, plus, minus)
				for j := 0; j < gLo<<3 && j < nOut; j++ {
					hacc[j] = dwColScalarPos(img, plus, minus, h, w, outW, kw, padH, padW, j)
				}
				for j := gHi << 3; j < nOut; j++ {
					hacc[j] = dwColScalarPos(img, plus, minus, h, w, outW, kw, padH, padW, j)
				}
			} else {
				for j := 0; j < nOut; j++ {
					hacc[j] = 0
				}
				for _, p := range plus {
					dwGatherTap(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, 1)
				}
				for _, p := range minus {
					dwGatherTap(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, -1)
				}
			}
			s := int32(1)
			if wcv < 0 {
				s = -1
			}
			if act8 {
				foldRowI8(acc, hacc[:nOut], q.hidMul8[hu], s)
			} else {
				foldRowI16(acc, hacc[:nOut], q.HidMul[hu], s)
			}
		}
		if act8 {
			q.requantChannel8(out[ch*g.outStride:][:nOut], acc, ch)
		} else {
			q.requantChannel(out[ch*g.outStride:][:nOut], acc, ch)
		}
	}
}

// forwardInto is the word-packed, zero-allocation QDense forward: y and hid
// are caller-owned (y of length Out, hid of at least R), xp is the staging
// buffer for the bitplane matvec (at least ⌈In/64⌉·64 bytes). The int8
// input stage runs through the Wb bitplanes; the int16 hidden stage keeps
// the index gather.
func (q *QDense) forwardInto(x []int8, y []int16, hid []int16, xp []byte) {
	xb := stageBytes(xp, x)
	r := int(q.R)
	for i := 0; i < r; i++ {
		hid[i] = clampI16(q.HidMul[i].Apply(q.wbBits.matRow(i, xb)))
	}
	for c := 0; c < int(q.Out); c++ {
		var acc int32
		plus, minus := q.wcSp.row(c)
		for _, i := range plus {
			acc += int32(hid[i])
		}
		for _, i := range minus {
			acc -= int32(hid[i])
		}
		y[c] = clampI16(q.OutMul.Apply(acc))
	}
}

// forwardInto walks the tree through the sparse dense kernels using the
// arena's scratch buffers. The returned score slice is arena-owned.
func (t *QTree) forwardInto(a *arena, x []int8) []int32 {
	L := int(t.NumClasses)
	d := int(t.ProjDim)
	z16 := a.z16[:int(t.Z.Out)]
	t.Z.forwardInto(x, z16, a.denseHid, a.xPad)
	z := a.z8[:len(z16)]
	for i, v := range z16 {
		z[i] = clampI8(t.ZQ.Apply(int32(v)))
	}
	scores := a.scores[:L]
	for j := range scores {
		scores[j] = 0
	}
	wbuf := a.wv[:L]
	vbuf := a.wv[L : 2*L]
	nInt := t.numInternal()
	node := 1 // 1-based
	for {
		t.W[node-1].forwardInto(z, wbuf, a.denseHid, a.xPad)
		t.V[node-1].forwardInto(z, vbuf, a.denseHid, a.xPad)
		for j := 0; j < L; j++ {
			scores[j] += int64(wbuf[j]) * int64(t.lookupTanh(vbuf[j]))
		}
		if node > nInt {
			break // leaf reached
		}
		theta := t.Theta[(node-1)*d : node*d]
		var dot int64
		for i, th := range theta {
			dot += int64(th) * int64(z[i])
		}
		if dot > 0 {
			node = 2 * node
		} else {
			node = 2*node + 1
		}
	}
	out := a.out[:L]
	for j, s := range scores {
		out[j] = int32(s >> 15)
	}
	return out
}
