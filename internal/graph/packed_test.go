package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// packedFixture builds a nGhost×cols ghost operand the way the exchange
// layer does — a few per-peer payloads landing at their base offsets, some
// quantised (kept packed), some dense (installed by reference) — together
// with the decode oracle: the float matrix the old path would have
// materialised (Decompress output for packed peers, raw rows for dense
// ones). denseFrac is the probability a peer's payload stays dense;
// degenerate forces constant payloads so the lo==hi domain is covered.
func packedFixture(rng *rand.Rand, nGhost, cols, bits int, zc bool,
	denseFrac float64, degenerate bool) (*tensor.Matrix, *GhostOperand) {
	oracle := tensor.New(nGhost, cols)
	op := NewGhostHybrid(nGhost, cols)
	for base := 0; base < nGhost; {
		n := 1 + rng.Intn(nGhost-base)
		m := tensor.New(n, cols)
		if degenerate {
			m.Fill(rng.Float32()*4 - 2)
		} else {
			for i := range m.Data {
				m.Data[i] = rng.Float32()*2 - 1
			}
		}
		if rng.Float64() < denseFrac {
			copy(oracle.Data[base*cols:(base+n)*cols], m.Data)
			for r := 0; r < n; r++ {
				op.SetRowDense(base+r, oracle.Row(base+r))
			}
		} else {
			var q *compress.Quantized
			if zc {
				q = compress.CompressZeroCentered(m, bits)
			} else {
				q = compress.Compress(m, bits)
			}
			copy(oracle.Data[base*cols:(base+n)*cols], q.Decompress().Data)
			op.SetRowsPacked(base, q.Block())
		}
		base += n
	}
	return oracle, op
}

// packedBitwiseTrial asserts, for one random scenario, that every packed
// kernel schedule — full-output, row-subset, compact direct, compact tiled,
// with and without an arena — produces bit-identical float32 output to the
// decode oracle (Decompress + the dense kernels).
func packedBitwiseTrial(t testing.TB, rng *rand.Rand) {
	nOwned := 1 + rng.Intn(80)
	nGhost := rng.Intn(61)
	deg := 1 + rng.Intn(6)
	cols := 1 + rng.Intn(40)
	bits := compress.ValidBits[rng.Intn(len(compress.ValidBits))]
	zc := rng.Intn(2) == 0
	denseFrac := []float64{0, 0.35, 1}[rng.Intn(3)]
	degenerate := rng.Intn(10) == 0

	a := randomLocalCSR(rng, nOwned, nGhost, deg)
	var oracle *tensor.Matrix
	var op *GhostOperand
	if nGhost > 0 {
		oracle, op = packedFixture(rng, nGhost, cols, bits, zc, denseFrac, degenerate)
	} else {
		op = NewGhostHybrid(0, cols)
	}
	label := fmt.Sprintf("owned=%d ghost=%d deg=%d cols=%d bits=%d zc=%v dense=%v degen=%v",
		nOwned, nGhost, deg, cols, bits, zc, denseFrac, degenerate)

	// Full-output reference vs SpMMGhostInto.
	want := tensor.New(nOwned, cols)
	a.SpMMGhostInto(oracle, want)
	got := tensor.New(nOwned, cols)
	spmmGhostPacked(a, op, got)
	for i, w := range want.Data {
		if got.Data[i] != w {
			t.Fatalf("%s: spmmGhostPacked[%d]=%v want %v", label, i, got.Data[i], w)
		}
	}

	// Row-subset kernel vs the split kernels over every row: a random row
	// list with repeats, read through the hybrid operand, its dense
	// decode, and a compact operand holding only the slots the list reads.
	owned := randomMatrix(rng, nOwned, cols)
	full := tensor.New(nOwned, cols)
	a.SpMMOwnedInto(owned, full)
	spmmGhostPacked(a, op, full)
	rows := make([]int32, rng.Intn(2*nOwned+1))
	for k := range rows {
		rows[k] = int32(rng.Intn(nOwned))
	}
	identity := make([]int32, nGhost)
	for s := range identity {
		identity[s] = int32(s)
	}
	compact, ghostRow := compactOperand(a, rows, op)
	for _, arm := range []struct {
		name     string
		g        *GhostOperand
		ghostRow []int32
	}{
		{"hybrid", op, identity},
		{"dense", NewGhostDense(oracle), identity},
		{"compact", compact, ghostRow},
	} {
		got := tensor.New(len(rows), cols)
		a.SpMMRowsInto(rows, owned, arm.g, arm.ghostRow, got)
		for k, r := range rows {
			for j, w := range full.Row(int(r)) {
				if got.At(k, j) != w {
					t.Fatalf("%s: SpMMRowsInto %s row %d (of %d)[%d]=%v want %v",
						label, arm.name, k, r, j, got.At(k, j), w)
				}
			}
		}
	}

	// Compact kernel under every schedule vs SpMMGhostCompact.
	wantC := a.SpMMGhostCompact(oracle)
	defer func() { tileMode = 0 }()
	for _, mode := range []int{0, 1, 2} {
		tileMode = mode
		for _, ar := range []*tensor.Arena{nil, tensor.NewArena(16)} {
			gotC := a.SpMMGhostCompactPacked(op, ar)
			if (gotC == nil) != (wantC == nil) {
				t.Fatalf("%s mode=%d: compact nil mismatch: got %v want %v", label, mode, gotC == nil, wantC == nil)
			}
			if wantC == nil {
				continue
			}
			for i, w := range wantC.Data {
				if gotC.Data[i] != w {
					t.Fatalf("%s mode=%d arena=%v: compact[%d]=%v want %v",
						label, mode, ar != nil, i, gotC.Data[i], w)
				}
			}
		}
	}
}

// spmmGhostPacked is the full-output ghost product over a hybrid operand:
// out[i] += row i's ghost entries in storage order. It is the reference the
// compact and row-subset kernels are held to.
func spmmGhostPacked(a *LocalCSR, g *GhostOperand, out *tensor.Matrix) {
	for i := 0; i < a.NumRows(); i++ {
		orow := out.Row(i)
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			g.accumRow(orow, a.Val[p], int(a.ColIdx[p])-a.NOwned)
		}
	}
}

// compactOperand copies the ghost rows that the given operator rows read
// out of op into a fresh operand, in first-seen order, and returns it with
// the slot → operand-row map (-1 for slots the rows never read).
func compactOperand(a *LocalCSR, rows []int32, op *GhostOperand) (*GhostOperand, []int32) {
	ghostRow := make([]int32, op.Rows)
	for s := range ghostRow {
		ghostRow[s] = -1
	}
	var slots []int
	for _, r := range rows {
		for _, c := range a.GhostCols(int(r)) {
			if s := int(c) - a.NOwned; ghostRow[s] < 0 {
				ghostRow[s] = int32(len(slots))
				slots = append(slots, s)
			}
		}
	}
	out := NewGhostHybrid(len(slots), op.Cols)
	for k, s := range slots {
		if f := op.rowF[s]; f != nil {
			out.SetRowDense(k, f)
		} else {
			out.SetRowPacked(k, op.rowB[s], int(op.rowIx[s]))
		}
	}
	return out, ghostRow
}

// TestSpMMGhostPackedBitwise is the property test behind the packed-domain
// SpMM: across random bit widths, shapes, degenerate domains, zero-centred
// grids, and dense/packed peer mixes, computing on the wire format is
// bit-for-bit equal to decode-then-SpMM, and the row-subset kernel
// reproduces the split kernels' rows exactly.
func TestSpMMGhostPackedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20240803))
	for trial := 0; trial < 120; trial++ {
		packedBitwiseTrial(t, rng)
	}
}

// FuzzSpMMGhostPackedBitwise fuzzes the same property over arbitrary seeds;
// plain `go test` runs the seed corpus, `-fuzz` explores further.
func FuzzSpMMGhostPackedBitwise(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 4096, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		packedBitwiseTrial(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSpMMGhostDenseOperandMatchesKernel pins the oracle wrapper: a
// GhostOperand over a fully decoded matrix runs the exact dense loop of
// SpMMGhostCompact, so -packed-spmm=false stays the bitwise reference.
func TestSpMMGhostDenseOperandMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomLocalCSR(rng, 50, 30, 4)
	ghost := randomMatrix(rng, 30, 12)
	want := a.SpMMGhostCompact(ghost)
	got := a.SpMMGhostCompactPacked(NewGhostDense(ghost), nil)
	for i, w := range want.Data {
		if got.Data[i] != w {
			t.Fatalf("dense operand[%d]=%v want %v", i, got.Data[i], w)
		}
	}
	if NewGhostDense(nil) != nil {
		t.Fatalf("NewGhostDense(nil) must pass nil through")
	}
}

// steadyFixture builds an inline-path-sized scenario (scalar work below the
// ParallelRows crossover) with a fully packed operand and a warmed arena —
// the steady-state shape of the per-layer ghost aggregation.
func steadyFixture(rng *rand.Rand) (*LocalCSR, *GhostOperand, *tensor.Arena) {
	a := randomLocalCSR(rng, 96, 64, 3)
	m := randomMatrix(rng, 64, 8)
	q := compress.Compress(m, 4)
	op := NewGhostHybrid(64, 8)
	op.SetRowsPacked(0, q.Block())
	ar := tensor.NewArena(0)
	for i := 0; i < 2; i++ { // warm: grow-on-Reset reaches steady capacity
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar)
	}
	ar.Reset()
	return a, op, ar
}

// TestSpMMGhostPackedZeroAlloc is the allocation gate: once the arena is
// warm, the packed compact kernel performs zero heap allocations per call
// under both the direct and the tiled schedule.
func TestSpMMGhostPackedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting skipped under -race: instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(9))
	a, op, ar := steadyFixture(rng)
	defer func() { tileMode = 0 }()
	for _, mode := range []int{1, 2} {
		tileMode = mode
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar) // first call under this mode may grow the arena
		allocs := testing.AllocsPerRun(200, func() {
			ar.Reset()
			a.SpMMGhostCompactPacked(op, ar)
		})
		if allocs != 0 {
			t.Fatalf("tileMode=%d: %v allocs/op on the packed steady-state path, want 0", mode, allocs)
		}
	}
}
