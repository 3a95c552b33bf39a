package worker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/ps"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// runCluster wires nWorkers workers and one PS over a fresh in-proc network
// and runs the epoch loop, returning each worker's per-epoch loss sums and
// its final logits. Unlike miniCluster it parameterises the model kind and
// keeps the whole loss history — the overlap determinism tests compare the
// two epoch paths value-for-value.
func runCluster(t *testing.T, d *datasets.Dataset, kind nn.Kind, opts Options, nWorkers, epochs int) ([][]float64, []*tensor.Matrix) {
	t.Helper()
	adj := graph.Normalize(d.Graph)
	assign := make([]int, d.Graph.N)
	for v := range assign {
		assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, assign, nWorkers)
	net := transport.NewInProc(nWorkers + 1)

	dims := []int{d.NumFeatures(), 8, d.NumClasses}
	template := nn.NewModel(kind, dims, 1)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), 1)
	net.Register(nWorkers, ps.NewServer(flat, 0.01, nWorkers).Handler())

	nTrain := len(d.TrainIdx())
	workers := make([]*Worker, nWorkers)
	for i := range workers {
		workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
			NumTrainGlobal: nTrain,
			Model:          nn.NewModel(kind, dims, 1),
			PS:             ps.NewClient(net, i, []int{nWorkers}, ranges),
			Opts:           opts,
		})
		net.Register(i, workers[i].Handler())
	}
	for _, w := range workers {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
	}

	losses := make([][]float64, nWorkers)
	for i := range losses {
		losses[i] = make([]float64, epochs)
	}
	for e := 0; e < epochs; e++ {
		errs := make(chan error, nWorkers)
		for i, w := range workers {
			go func(i int, w *Worker) {
				rep, err := w.RunEpoch(e)
				losses[i][e] = rep.LocalLossSum
				errs <- err
			}(i, w)
		}
		for range workers {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	logits := make([]*tensor.Matrix, nWorkers)
	for i, w := range workers {
		_, logits[i] = w.Logits(epochs - 1)
	}
	return losses, logits
}

// TestOverlapMatchesSequentialBitwise is the overlap pipeline's core
// determinism guarantee at the worker level: with the exchange issued early
// and collected mid-layer, every per-epoch loss and every final logit must
// equal the sequential path bit-for-bit — both run the same shared layer
// functions, so any divergence means ghost data leaked into the
// ghost-independent window. Covered for GCN (no self-transform), SAGE
// (WSelf matmuls inside the window) and the EC compensation scheme (whose
// requester/responder state must see the same mutation order either way).
func TestOverlapMatchesSequentialBitwise(t *testing.T) {
	d := datasets.MustLoad("cora")
	cases := []struct {
		name string
		kind nn.Kind
		opts Options
	}{
		{"gcn-raw", nn.KindGCN, Options{}},
		{"sage-raw", nn.KindSAGE, Options{}},
		{"gcn-ec", nn.KindGCN, Options{FPScheme: SchemeEC, BPScheme: SchemeEC, FPBits: 2, BPBits: 2, Ttr: 4}},
	}
	const epochs = 6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqOpts, ovlOpts := tc.opts, tc.opts
			seqOpts.Overlap = false
			ovlOpts.Overlap = true
			seqLoss, seqLogits := runCluster(t, d, tc.kind, seqOpts, 3, epochs)
			ovlLoss, ovlLogits := runCluster(t, d, tc.kind, ovlOpts, 3, epochs)
			for i := range seqLoss {
				for e := range seqLoss[i] {
					if seqLoss[i][e] != ovlLoss[i][e] {
						t.Fatalf("worker %d epoch %d: overlap loss %v != sequential %v",
							i, e, ovlLoss[i][e], seqLoss[i][e])
					}
				}
			}
			for i := range seqLogits {
				for k := range seqLogits[i].Data {
					if seqLogits[i].Data[k] != ovlLogits[i].Data[k] {
						t.Fatalf("worker %d logit %d: overlap %v != sequential %v",
							i, k, ovlLogits[i].Data[k], seqLogits[i].Data[k])
					}
				}
			}
		})
	}
}

// gatedNet blocks every remote call of a chosen method until the gate
// opens, simulating a straggling responder while leaving the rest of the
// cluster instantaneous.
type gatedNet struct {
	transport.Network
	method string
	gate   chan struct{}
}

func (n *gatedNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && method == n.method {
		<-n.gate
	}
	return n.Network.Call(src, dst, method, req)
}

func (n *gatedNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// TestIssueDoesNotBlockOnStraggler pins the issue/collect contract: a
// straggling peer must delay only the collect, never the issue phase or
// the owned-partial compute between them.
func TestIssueDoesNotBlockOnStraggler(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	feats := tensor.New(6, 3)
	for i := range feats.Data {
		feats.Data[i] = float32(i) * 0.125
	}
	gate := make(chan struct{})
	net := &gatedNet{Network: transport.NewInProc(2), method: MethodGetH, gate: gate}

	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats:  feats,
			Labels: make([]int, 6), TrainMask: make([]bool, 6),
			Model: nn.NewModel(nn.KindGCN, []int{3, 4, 2}, 1),
		})
		net.Register(i, workers[i].Handler())
	}
	w0, w1 := workers[0], workers[1]

	// The peer has already published its layer-1 activations, so only the
	// gate stands between issue and response.
	peerH := tensor.New(3, 4)
	for i := range peerH.Data {
		peerH.Data[i] = float32(i + 1)
	}
	w1.hStore.Put(1, 0, peerH)

	// Issue must return with the gate still closed — the batch runs on a
	// background goroutine.
	pend := w0.ghostH.build(1, 0)
	pend.fire(w0)

	// The overlap window: owned-partial compute proceeds while the wire is
	// (artificially forever) busy.
	owned := tensor.New(3, 4)
	for i := range owned.Data {
		owned.Data[i] = 0.5
	}
	partial := tensor.New(3, 4)
	w0.adj.SpMMOwnedInto(owned, partial)

	// Collect, by contract, blocks until the straggler responds.
	var wg sync.WaitGroup
	wg.Add(1)
	var ghostOp *graph.GhostOperand
	var collectErr error
	collected := make(chan struct{})
	go func() {
		defer wg.Done()
		ghostOp, collectErr = w0.ghostH.collect(pend, 1, 0)
		close(collected)
	}()
	select {
	case <-collected:
		t.Fatal("collect returned while the straggler gate was still closed")
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	wg.Wait()
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	// Worker 0 ghosts are {1,3,5} = w1's owned rows {0,1,2}; raw scheme
	// ships them unmodified.
	ghost := ghostOp.Dense()
	if ghost.Rows != 3 || ghost.Cols != 4 {
		t.Fatalf("ghost shape %dx%d, want 3x4", ghost.Rows, ghost.Cols)
	}
	for i := range ghost.Data {
		if ghost.Data[i] != peerH.Data[i] {
			t.Fatalf("ghost element %d = %v, want %v", i, ghost.Data[i], peerH.Data[i])
		}
	}
}

// TestOverlapEpochsDoNotLeakGoroutines runs overlap epochs through a
// degraded epoch and one that fails hard past MaxStaleEpochs inside a
// collect, then requires the goroutine count to return to its pre-cluster
// baseline: every fired batch is joined or drains into its buffered
// channel, whichever way the epoch ends.
func TestOverlapEpochsDoNotLeakGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var faultEpoch atomic.Bool
	_, _, step := faultCluster(t, Options{Overlap: true, MaxStaleEpochs: 1}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatalf("clean epoch %d: %v", e, err)
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(2) {
		if err != nil {
			t.Fatalf("degraded epoch should survive: %v", err)
		}
	}
	failed := false
	for _, err := range step(3) {
		failed = failed || err != nil
	}
	if !failed {
		t.Fatal("epoch beyond the staleness bound did not fail")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines remain, %d before the cluster:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
