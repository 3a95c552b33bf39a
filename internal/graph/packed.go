package graph

import (
	"fmt"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// GhostOperand is the ghost half of a layer's aggregation input in hybrid
// form: each ghost row is either a float32 row (raw payloads, EC-selected
// rows, degraded fallbacks) or a row of a packed compress.Blocked — the
// wire format itself, never decoded. The packed SpMM kernels consume it
// directly, dequantising on register through the block LUTs.
//
// Bitwise contract: a kernel walking a GhostOperand reads, per element,
// exactly the float32 value a decode pass would have materialised (dense
// rows verbatim, packed rows via BucketValue-identical LUTs), in the same
// CSR storage order — so packed and decode-then-SpMM results are
// bit-for-bit equal by construction.
type GhostOperand struct {
	Rows, Cols int

	// dense, when non-nil, holds every row as one matrix — the decode
	// oracle's representation (and the -packed-spmm=false path).
	dense *tensor.Matrix

	// Hybrid representation: rowF[r] is row r's float data, or nil when
	// the row lives in rowB[r] at row rowIx[r] of the packed payload.
	rowF    [][]float32
	rowB    []*compress.Blocked
	rowIx   []int32
	nPacked int
}

// NewGhostDense wraps a fully decoded ghost matrix (nil passes through, a
// worker with no remote neighbours).
func NewGhostDense(m *tensor.Matrix) *GhostOperand {
	if m == nil {
		return nil
	}
	return &GhostOperand{Rows: m.Rows, Cols: m.Cols, dense: m}
}

// NewGhostHybrid returns an empty rows×cols operand to be filled row by
// row (SetRowDense) or payload by payload (SetRowsPacked).
func NewGhostHybrid(rows, cols int) *GhostOperand {
	return &GhostOperand{
		Rows: rows, Cols: cols,
		rowF:  make([][]float32, rows),
		rowB:  make([]*compress.Blocked, rows),
		rowIx: make([]int32, rows),
	}
}

// SetRowDense installs a float row at slot i by reference (not copied; the
// caller keeps it immutable while the operand is live).
func (g *GhostOperand) SetRowDense(i int, row []float32) {
	if len(row) != g.Cols {
		panic(fmt.Sprintf("graph: SetRowDense row length %d != cols %d", len(row), g.Cols))
	}
	if g.rowB[i] != nil {
		g.nPacked--
	}
	g.rowF[i] = row
	g.rowB[i] = nil
}

// SetRowPacked installs row srcRow of the packed payload b at slot i.
func (g *GhostOperand) SetRowPacked(i int, b *compress.Blocked, srcRow int) {
	if b.Cols != g.Cols {
		panic(fmt.Sprintf("graph: SetRowPacked payload cols %d != cols %d", b.Cols, g.Cols))
	}
	if g.rowB[i] == nil {
		g.nPacked++
	}
	g.rowF[i] = nil
	g.rowB[i] = b
	g.rowIx[i] = int32(srcRow)
}

// SetRowsPacked installs all of b's rows at slots base..base+b.Rows-1 —
// one peer's quantised payload landing at its ghostBase offset.
func (g *GhostOperand) SetRowsPacked(base int, b *compress.Blocked) {
	for r := 0; r < b.Rows; r++ {
		g.SetRowPacked(base+r, b, r)
	}
}

// NumPacked returns how many rows are in packed form (telemetry, tests).
func (g *GhostOperand) NumPacked() int { return g.nPacked }

// Dense returns the operand as one decoded float32 matrix: the wrapped
// matrix for dense operands (no copy), a fresh decode for hybrids — the
// -packed-spmm=false oracle path and cold consumers that need float rows.
// Unset hybrid slots stay zero.
func (g *GhostOperand) Dense() *tensor.Matrix {
	if g == nil {
		return nil
	}
	if g.dense != nil {
		return g.dense
	}
	out := tensor.New(g.Rows, g.Cols)
	for r := 0; r < g.Rows; r++ {
		if f := g.rowF[r]; f != nil {
			copy(out.Data[r*g.Cols:(r+1)*g.Cols], f)
		} else if b := g.rowB[r]; b != nil {
			b.DequantRowInto(int(g.rowIx[r]), out.Data[r*g.Cols:(r+1)*g.Cols])
		}
	}
	return out
}

// accumRow accumulates w times ghost row r into dst.
func (g *GhostOperand) accumRow(dst []float32, w float32, r int) {
	if g.dense != nil {
		hrow := g.dense.Data[r*g.Cols : (r+1)*g.Cols]
		for j, x := range hrow {
			dst[j] += w * x
		}
		return
	}
	if f := g.rowF[r]; f != nil {
		for j, x := range f {
			dst[j] += w * x
		}
		return
	}
	g.rowB[r].AccumRow(dst, w, int(g.rowIx[r]))
}

// SpMMRowsInto accumulates a subset of the product's rows into out: out
// row k += row rows[k] of A·[owned; ghost]. rows may repeat and may name
// rows without ghost columns. Each row accumulates as the split kernels
// do — owned entries in storage order, then ghost entries in ascending
// column order — so on a zeroed out, row k is bitwise row rows[k] of
// SpMMOwnedInto followed by the ghost half over the whole operand,
// independent of which other rows the subset holds.
//
// ghostRow maps every ghost slot (column − NOwned) to its row of ghost,
// so the operand need only hold the slots the subset reads. A negative
// entry marks a slot that could not be resolved: it contributes nothing.
// ghost may be nil when no listed row has ghost columns.
func (a *LocalCSR) SpMMRowsInto(rows []int32, owned *tensor.Matrix, ghost *GhostOperand, ghostRow []int32, out *tensor.Matrix) {
	if out.Rows != len(rows) || out.Cols != owned.Cols || (ghost != nil && ghost.Cols != owned.Cols) {
		panic(fmt.Sprintf("graph: SpMMRowsInto output %dx%d, want %dx%d",
			out.Rows, out.Cols, len(rows), owned.Cols))
	}
	work := 0
	if n := a.NumRows(); n > 0 {
		work = len(rows) * (len(a.Val)/n + 1) * owned.Cols
	}
	if tensor.InlineRows(len(rows), work) {
		a.rowsRange(rows, owned, ghost, ghostRow, out, 0, len(rows))
		return
	}
	tensor.ParallelRows(len(rows), work, func(lo, hi int) {
		a.rowsRange(rows, owned, ghost, ghostRow, out, lo, hi)
	})
}

// rowsRange accumulates subset entries [lo, hi) of SpMMRowsInto with
// SpMMOwnedInto's owned loop and ghostCompactRange's ghost loop, the latter
// through the slot map. The training kernels keep their own copies, so
// their hot loops carry neither the map nor the register spills a shared
// inlined helper caused in SpMMOwnedInto.
func (a *LocalCSR) rowsRange(rows []int32, owned *tensor.Matrix, ghost *GhostOperand, ghostRow []int32, out *tensor.Matrix, lo, hi int) {
	cols := owned.Cols
	for k := lo; k < hi; k++ {
		orow := out.Data[k*cols : (k+1)*cols]
		i := int(rows[k])
		for p := a.RowPtr[i]; p < a.ghostStart[i]; p++ {
			c, w := a.ColIdx[p], a.Val[p]
			hrow := owned.Data[int(c)*cols : (int(c)+1)*cols]
			for j, x := range hrow {
				orow[j] += w * x
			}
		}
		if ghost == nil {
			continue
		}
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			if r := ghostRow[int(a.ColIdx[p])-a.NOwned]; r >= 0 {
				ghost.accumRow(orow, a.Val[p], int(r))
			}
		}
	}
}

// SpMMGhostCompactPacked is SpMMGhostCompact over the hybrid operand:
// boundary-rows-only output, each row accumulated in CSR storage order so
// the result is bit-for-bit what decode-then-SpMMGhostCompact computes.
// The output comes from ar when non-nil (it must outlive the caller's use,
// not the call), and the kernel picks between direct register dequant and
// the strip-tiled schedule (tiles.go) by the operand's packed-row reuse.
func (a *LocalCSR) SpMMGhostCompactPacked(g *GhostOperand, ar *tensor.Arena) *tensor.Matrix {
	if g == nil || g.Rows == 0 || len(a.boundary) == 0 {
		return nil
	}
	cols := g.Cols
	var out *tensor.Matrix
	if ar != nil {
		out = ar.Matrix(len(a.boundary), cols)
	} else {
		out = tensor.New(len(a.boundary), cols)
	}
	if a.useTiled(g) {
		a.spmmGhostCompactTiled(g, out, ar)
		return out
	}
	a.spmmGhostCompactDirect(g, out)
	return out
}

// spmmGhostCompactDirect is the register-dequant schedule: one pass over
// the boundary rows, each packed element dequantised through the word
// kernels. The inline-sized case calls the range body directly — no
// closure, keeping the steady-state path at zero allocations.
func (a *LocalCSR) spmmGhostCompactDirect(g *GhostOperand, out *tensor.Matrix) {
	work := a.nnzGhost * g.Cols
	if tensor.InlineRows(len(a.boundary), work) {
		a.ghostCompactRange(g, out, 0, len(a.boundary))
		return
	}
	tensor.ParallelRows(len(a.boundary), work, func(lo, hi int) {
		a.ghostCompactRange(g, out, lo, hi)
	})
}

// ghostCompactRange accumulates boundary rows [lo, hi) of the compact
// ghost product.
func (a *LocalCSR) ghostCompactRange(g *GhostOperand, out *tensor.Matrix, lo, hi int) {
	cols := g.Cols
	for k := lo; k < hi; k++ {
		i := int(a.boundary[k])
		orow := out.Data[k*cols : (k+1)*cols]
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			g.accumRow(orow, a.Val[p], int(a.ColIdx[p])-a.NOwned)
		}
	}
}
