package tensor

// Cache-blocked matmul kernels. Each computes its whole output on the
// calling goroutine; callers that run at once (concurrent clients, the nn
// lane) each write their own output.
//
// Determinism contract: for every output element the reduction over k runs
// in one fixed order — ascending k, grouped 4-wide with a sequential tail
// (NN, TN), dotSplit2's (even + odd) + tail (NT) — that does not depend on
// the tile sizes, the operand sizes or the inner-loop path.
// equivalence_test.go locks this down across shapes, paths and concurrent
// callers.
//
// Blocking parameters. The NN kernel tiles the reduction dimension so a
// kTileNN x n panel of b stays cache-resident while it is reused by every
// output row. The NT kernel tiles b's rows so a jTileNT x k panel of b is
// reused across every output row. The TN kernel keeps the output itself hot
// (it is weight-gradient-shaped, i.e. small) and streams a and b exactly
// once. The transpose walks 32x32 tiles so both the source rows and the
// destination columns stay within a few cache lines.
const (
	kTileNN = 256 // k-rows of b per NN pass
	jTileNT = 64  // rows of b per NT pass
	trTile  = 32  // transpose tile edge
)

// simdLoops are data-parallel forms of the kernels' innermost "for every
// output column j" loops. Lanes run across columns, which never interact, and
// every multiply and add stays a separate IEEE-exact operation (no fused
// multiply-add), so each element sees exactly the roundings of the Go loop it
// replaces: the determinism contract holds bit for bit across kernel paths,
// and the Go loops are the oracle equivalence_test.go compares against.
// Tiling, row pairing, zero-group skips and k-tails stay in Go.
type simdLoops struct {
	name string // what KernelStats.Path reports
	// axpy4: o[j] += ((a0*b[j] + a1*b[n+j]) + a2*b[2n+j]) + a3*b[3n+j] for
	// j < n = len(o); b is four consecutive rows of n.
	axpy4 func(o, b []float64, a0, a1, a2, a3 float64)
	// axpy4x2 is axpy4 for two output rows in one pass over b: o takes the a
	// coefficients, o2 the c coefficients.
	axpy4x2 func(o, o2, b []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64)
	// dotCols: o[j] = dotSplit2(a, column j of bt) for j < len(o), a positive
	// multiple of 4; bt is a packed bᵀ whose rows are stride apart.
	dotCols func(o, a, bt []float64, stride int)
	// The step's per-element loops outside the products (rowops.go).
	simdRowOps
}

// simd is the inner-loop set in use; nil selects the pure-Go loops, the only
// path off amd64 or without AVX2. Set once at package init to the widest set
// the CPU reports (simd_amd64.go: avx512 or avx2) and never by configuration;
// tests swap it to run every path the host has.
var simd *simdLoops

// gemmNNPanel computes out = a * b (zeroing out first). The 4-wide k
// grouping halves traffic on the output row; an all-zero group (common for
// post-ReLU activations) is skipped entirely. Output rows are
// register-blocked in pairs so each loaded group of four b rows feeds two
// output rows; each row keeps its own skip decision and its own k-ascending
// accumulation expression, so the result is bit-identical to the unpaired
// walk (the determinism contract above).
func gemmNNPanel(out, a, b *Matrix) {
	n := b.Cols
	kDim := a.Cols
	rows := out.Rows
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	if n == 0 {
		return
	}
	for kk := 0; kk < kDim; kk += kTileNN {
		kEnd := kk + kTileNN
		if kEnd > kDim {
			kEnd = kDim
		}
		i := 0
		for ; i+1 < rows; i += 2 {
			// The [:kDim] / [:n] reslices pin lengths the prove pass can see,
			// eliminating bounds checks in the inner loops.
			arow := a.Row(i)[:kDim]
			arow2 := a.Row(i + 1)[:kDim]
			orow := out.Row(i)[:n]
			orow2 := out.Row(i + 1)[:n]
			k := kk
			for ; k+3 < kEnd; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				c0, c1, c2, c3 := arow2[k], arow2[k+1], arow2[k+2], arow2[k+3]
				zA := a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0
				zC := c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0
				if zA && zC {
					continue
				}
				if simd != nil {
					switch b4 := b.Data[k*n:][:4*n]; {
					case zA:
						simd.axpy4(orow2, b4, c0, c1, c2, c3)
					case zC:
						simd.axpy4(orow, b4, a0, a1, a2, a3)
					default:
						simd.axpy4x2(orow, orow2, b4, a0, a1, a2, a3, c0, c1, c2, c3)
					}
					continue
				}
				b0 := b.Data[k*n:][:n]
				b1 := b.Data[(k+1)*n:][:n]
				b2 := b.Data[(k+2)*n:][:n]
				b3 := b.Data[(k+3)*n:][:n]
				switch {
				case zA:
					for j, v0 := range b0 {
						orow2[j] += c0*v0 + c1*b1[j] + c2*b2[j] + c3*b3[j]
					}
				case zC:
					for j, v0 := range b0 {
						orow[j] += a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				default:
					for j, v0 := range b0 {
						v1, v2, v3 := b1[j], b2[j], b3[j]
						orow[j] += a0*v0 + a1*v1 + a2*v2 + a3*v3
						orow2[j] += c0*v0 + c1*v1 + c2*v2 + c3*v3
					}
				}
			}
			for ; k < kEnd; k++ {
				av, cv := arow[k], arow2[k]
				if av == 0 && cv == 0 {
					continue
				}
				brow := b.Data[k*n:][:n]
				switch {
				case av == 0:
					for j, bv := range brow {
						orow2[j] += cv * bv
					}
				case cv == 0:
					for j, bv := range brow {
						orow[j] += av * bv
					}
				default:
					for j, bv := range brow {
						orow[j] += av * bv
						orow2[j] += cv * bv
					}
				}
			}
		}
		for ; i < rows; i++ {
			arow := a.Row(i)[:kDim]
			orow := out.Row(i)[:n]
			k := kk
			for ; k+3 < kEnd; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				if simd != nil {
					simd.axpy4(orow, b.Data[k*n:][:4*n], a0, a1, a2, a3)
					continue
				}
				b0 := b.Data[k*n:][:n]
				b1 := b.Data[(k+1)*n:][:n]
				b2 := b.Data[(k+2)*n:][:n]
				b3 := b.Data[(k+3)*n:][:n]
				for j, v0 := range b0 {
					orow[j] += a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; k < kEnd; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Data[k*n:][:n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// gemmTNPanel computes out (+)= aᵀ*b. When acc is false out is zeroed
// first; when true the products accumulate into the existing contents
// (fused weight-gradient accumulation: Grad += xᵀ·dy without a temporary).
func gemmTNPanel(out, a, b *Matrix, acc bool) {
	n := b.Cols
	kDim := a.Rows
	m := a.Cols
	if !acc {
		for i := 0; i < m; i++ {
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
		}
	}
	if n == 0 {
		return
	}
	k := 0
	for ; k+3 < kDim; k += 4 {
		ar0 := a.Data[k*m:][:m]
		ar1 := a.Data[(k+1)*m:][:m]
		ar2 := a.Data[(k+2)*m:][:m]
		ar3 := a.Data[(k+3)*m:][:m]
		br0 := b.Data[k*n:][:n]
		br1 := b.Data[(k+1)*n:][:n]
		br2 := b.Data[(k+2)*n:][:n]
		br3 := b.Data[(k+3)*n:][:n]
		b4 := b.Data[k*n:][:4*n] // the same four rows, as the simd loops take them
		// Output rows in register-blocked pairs: one pass over the four b
		// rows feeds both. Skip decisions and accumulation expressions stay
		// per-row, so results are bit-identical to the unpaired walk.
		i := 0
		for ; i+1 < m; i += 2 {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			c0, c1, c2, c3 := ar0[i+1], ar1[i+1], ar2[i+1], ar3[i+1]
			zA := a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0
			zC := c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0
			if zA && zC {
				continue
			}
			orow := out.Row(i)[:n]
			orow2 := out.Row(i + 1)[:n]
			if simd != nil {
				switch {
				case zA:
					simd.axpy4(orow2, b4, c0, c1, c2, c3)
				case zC:
					simd.axpy4(orow, b4, a0, a1, a2, a3)
				default:
					simd.axpy4x2(orow, orow2, b4, a0, a1, a2, a3, c0, c1, c2, c3)
				}
				continue
			}
			switch {
			case zA:
				for j, v0 := range br0 {
					orow2[j] += c0*v0 + c1*br1[j] + c2*br2[j] + c3*br3[j]
				}
			case zC:
				for j, v0 := range br0 {
					orow[j] += a0*v0 + a1*br1[j] + a2*br2[j] + a3*br3[j]
				}
			default:
				for j, v0 := range br0 {
					v1, v2, v3 := br1[j], br2[j], br3[j]
					orow[j] += a0*v0 + a1*v1 + a2*v2 + a3*v3
					orow2[j] += c0*v0 + c1*v1 + c2*v2 + c3*v3
				}
			}
		}
		for ; i < m; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			orow := out.Row(i)[:n]
			if simd != nil {
				simd.axpy4(orow, b4, a0, a1, a2, a3)
				continue
			}
			for j, v0 := range br0 {
				orow[j] += a0*v0 + a1*br1[j] + a2*br2[j] + a3*br3[j]
			}
		}
	}
	for ; k < kDim; k++ {
		arow := a.Data[k*m:][:m]
		brow := b.Data[k*n:][:n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Row(i)[:n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// dotSplit2 is the NT kernels' per-element reduction: a dot product with a
// fixed 2-way accumulator split and a fixed combine order, (even + odd) +
// tail. Every NT code path — the 2x2 register-blocked core and all its
// remainder edges — computes elements with exactly this shape, so blocking
// never changes a result bit.
func dotSplit2(arow, brow []float64) float64 {
	brow = brow[:len(arow)] // pin equal lengths for bounds-check elimination
	var s0, s1 float64
	k := 0
	for ; k+1 < len(arow); k += 2 {
		s0 += arow[k] * brow[k]
		s1 += arow[k+1] * brow[k+1]
	}
	var tail float64
	for ; k < len(arow); k++ {
		tail += arow[k] * brow[k]
	}
	return (s0 + s1) + tail
}

// gemmNTPanel computes out = a * bᵀ. Each element is an independent dot
// product (see dotSplit2 for the fixed reduction shape).
// The core walks 2x2 blocks — two output rows against two rows of b — so
// each streamed pair of operand values feeds four dot products, doubling
// flops per load; the j tiling keeps a jTileNT x k panel of b resident
// across the output rows.
//
// With bt, a packed bᵀ (simd only; nil otherwise), each row's columns go
// through simd.dotCols in multiples of four, lanes across j, and only the
// up-to-three columns left in a tile fall to the Go loops below.
func gemmNTPanel(out, a, b, bt *Matrix) {
	kDim := a.Cols
	nOut := b.Rows
	rows := out.Rows
	for jj := 0; jj < nOut; jj += jTileNT {
		jEnd := jj + jTileNT
		if jEnd > nOut {
			jEnd = nOut
		}
		i := 0
		for ; i+1 < rows; i += 2 {
			arow := a.Row(i)[:kDim]
			arow2 := a.Row(i + 1)[:kDim]
			orow := out.Row(i)[:nOut]
			orow2 := out.Row(i + 1)[:nOut]
			j := jj
			if w := (jEnd - jj) &^ 3; bt != nil && w > 0 {
				simd.dotCols(orow[jj:jj+w], arow, bt.Data[jj:], nOut)
				simd.dotCols(orow2[jj:jj+w], arow2, bt.Data[jj:], nOut)
				j += w
			}
			for ; j+1 < jEnd; j += 2 {
				brow := b.Row(j)[:kDim]
				brow2 := b.Row(j + 1)[:kDim]
				var s00, s01, s10, s11, s20, s21, s30, s31 float64
				k := 0
				for ; k+1 < kDim; k += 2 {
					a0, a1 := arow[k], arow[k+1]
					c0, c1 := arow2[k], arow2[k+1]
					b0, b1 := brow[k], brow[k+1]
					d0, d1 := brow2[k], brow2[k+1]
					s00 += a0 * b0
					s01 += a1 * b1
					s10 += a0 * d0
					s11 += a1 * d1
					s20 += c0 * b0
					s21 += c1 * b1
					s30 += c0 * d0
					s31 += c1 * d1
				}
				var t0, t1, t2, t3 float64
				for ; k < kDim; k++ {
					t0 += arow[k] * brow[k]
					t1 += arow[k] * brow2[k]
					t2 += arow2[k] * brow[k]
					t3 += arow2[k] * brow2[k]
				}
				orow[j] = (s00 + s01) + t0
				orow[j+1] = (s10 + s11) + t1
				orow2[j] = (s20 + s21) + t2
				orow2[j+1] = (s30 + s31) + t3
			}
			for ; j < jEnd; j++ {
				brow := b.Row(j)[:kDim]
				orow[j] = dotSplit2(arow, brow)
				orow2[j] = dotSplit2(arow2, brow)
			}
		}
		for ; i < rows; i++ {
			arow := a.Row(i)[:kDim]
			orow := out.Row(i)[:nOut]
			j := jj
			if w := (jEnd - jj) &^ 3; bt != nil && w > 0 {
				simd.dotCols(orow[jj:jj+w], arow, bt.Data[jj:], nOut)
				j += w
			}
			for ; j < jEnd; j++ {
				orow[j] = dotSplit2(arow, b.Row(j)[:kDim])
			}
		}
	}
}

// transposePanel writes out = mᵀ in trTile x trTile blocks, replacing the
// seed's full-stride column walk that thrashed cache on tall matrices.
func transposePanel(out, m *Matrix) {
	for jj := 0; jj < m.Cols; jj += trTile {
		jEnd := jj + trTile
		if jEnd > m.Cols {
			jEnd = m.Cols
		}
		for ii := 0; ii < m.Rows; ii += trTile {
			iEnd := ii + trTile
			if iEnd > m.Rows {
				iEnd = m.Rows
			}
			for i := ii; i < iEnd; i++ {
				row := m.Row(i)
				for j := jj; j < jEnd; j++ {
					out.Data[j*m.Rows+i] = row[j]
				}
			}
		}
	}
}
