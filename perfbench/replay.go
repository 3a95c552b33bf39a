package main

import (
	"fmt"
	"math/rand"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/tensor"
)

// kernel is one replayed kernel at a training workload's real shape.
type kernel struct {
	name   string // metric prefix, e.g. "tensor.matmul"
	shape  string
	ops    float64 // per call, computed from the shape: flops, or elements quantised
	opUnit string
	bytes  float64 // per call: operands read plus result written, computed from the shape
	nsCall float64 // measured
}

// replayKernels times the dense tensor kernels and the quantiser at the
// shapes worker 0 runs them with in one epoch: its owned rows of the first
// layer's aggregated features against W1 (MatMul forward, TMatMul for the
// weight gradient), the second layer's MatMulT that propagates G^2, and
// compress.Compress on the H^1 rows worker 1 ships to it. Operands are the
// real aggregated features and the trained model; gradients are seeded
// noise.
func replayKernels(d *datasets.Dataset, m *nn.Model, bits int, rng *rand.Rand) []kernel {
	adj := graph.Normalize(d.Graph)
	assign := partition.Hash{}.Partition(d.Graph, numWorkers)
	var owned, shipped []int
	for v := 0; v < d.Graph.N; v++ {
		if assign[v] == 0 {
			owned = append(owned, v)
			continue
		}
		if assign[v] != 1 {
			continue
		}
		for _, u := range d.Graph.Neighbors(v) {
			if assign[u] == 0 {
				shipped = append(shipped, v)
				break
			}
		}
	}
	ah := adj.SpMM(d.Features).GatherRows(owned)
	w1, w2 := m.Layers[0].W, m.Layers[1].W
	g1 := noise(rng, len(owned), w1.Cols)
	g2 := noise(rng, len(owned), w2.Cols)
	h1 := m.Forward(adj, d.Features).H[1].GatherRows(shipped)

	r, f, h, c := float64(len(owned)), float64(w1.Rows), float64(w1.Cols), float64(w2.Cols)
	qBytes := float64(h1.Rows*h1.Cols*bits+7) / 8
	ks := []kernel{
		{name: "tensor.matmul", shape: fmt.Sprintf("%dx%d · %dx%d", ah.Rows, ah.Cols, w1.Rows, w1.Cols),
			ops: 2 * r * f * h, opUnit: "flop", bytes: 4 * (r*f + f*h + r*h)},
		{name: "tensor.tmatmul", shape: fmt.Sprintf("(%dx%d)ᵀ · %dx%d", ah.Rows, ah.Cols, g1.Rows, g1.Cols),
			ops: 2 * r * f * h, opUnit: "flop", bytes: 4 * (r*f + r*h + f*h)},
		{name: "tensor.matmult", shape: fmt.Sprintf("%dx%d · (%dx%d)ᵀ", g2.Rows, g2.Cols, w2.Rows, w2.Cols),
			ops: 2 * r * c * h, opUnit: "flop", bytes: 4 * (r*c + h*c + r*h)},
		{name: "compress.compress", shape: fmt.Sprintf("%dx%d at %d bits", h1.Rows, h1.Cols, bits),
			ops: float64(h1.Rows * h1.Cols), opUnit: "elem", bytes: 4*float64(h1.Rows*h1.Cols) + qBytes},
	}
	calls := []func(){
		func() { ah.MatMul(w1) },
		func() { ah.TMatMul(g1) },
		func() { g2.MatMulT(w2) },
		func() { compress.Compress(h1, bits).Release() },
	}
	for i := range ks {
		ks[i].nsCall = timeCalls(calls[i])
	}
	return ks
}

func noise(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64()) * 1e-3
	}
	return m
}

// timeCalls returns the median nanoseconds per call over nine batches,
// each sized to take about 20 ms.
func timeCalls(f func()) float64 {
	f()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}
