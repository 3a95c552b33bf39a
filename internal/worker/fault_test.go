package worker

import (
	"strings"
	"sync/atomic"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
)

// flakyNet wraps a Network and fails remote Calls whenever fail says so.
// Faults are injected at the requester, before the handler runs, matching
// the Chaos wrapper's semantics.
type flakyNet struct {
	transport.Network
	fail func(src, dst int, method string) bool
}

func (f *flakyNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && f.fail(src, dst, method) {
		return nil, transport.ErrInjected
	}
	return f.Network.Call(src, dst, method, req)
}

// CallMulti must route through the fake's own Call — the embedded
// network's batch path would silently bypass the fault injection.
func (f *flakyNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(f, src, calls)
}

// faultCluster is miniCluster with a fault-injectable network: it wires two
// workers and one PS over InProc behind a flakyNet and returns a step
// function running one epoch on both workers.
func faultCluster(t *testing.T, opts Options, fail func(src, dst int, method string) bool) ([]*Worker, []EpochReport, func(epoch int) []error) {
	t.Helper()
	d := datasets.MustLoad("cora")
	const nWorkers = 2
	adj := graph.Normalize(d.Graph)
	assign := make([]int, d.Graph.N)
	for v := range assign {
		assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, assign, nWorkers)
	net := &flakyNet{Network: transport.NewInProc(nWorkers + 1), fail: fail}

	dims := []int{d.NumFeatures(), 8, d.NumClasses}
	template := nn.NewModel(nn.KindGCN, dims, 1)
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
			Model:          nn.NewModel(nn.KindGCN, dims, 1),
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

	reports := make([]EpochReport, nWorkers)
	step := func(epoch int) []error {
		errs := make([]error, nWorkers)
		done := make(chan int, nWorkers)
		for i, w := range workers {
			go func(i int, w *Worker) {
				reports[i], errs[i] = w.RunEpoch(epoch)
				done <- i
			}(i, w)
		}
		for range workers {
			<-done
		}
		return errs
	}
	return workers, reports, step
}

// forEachDegradedArm runs body once per arm of the degraded-path matrix:
// raw rows through the dense fold and B=4 quantised payloads through the
// packed fold — whose last-good state is retained packed and materialised
// only by the first fallback — each under the sequential and the overlap
// epoch loop. base supplies the remaining options.
func forEachDegradedArm(t *testing.T, base Options, body func(t *testing.T, opts Options)) {
	wires := []struct {
		name string
		set  func(*Options)
	}{
		{"raw", func(o *Options) { o.FPScheme, o.BPScheme = SchemeRaw, SchemeRaw }},
		{"compress4-packed", func(o *Options) {
			o.FPScheme, o.BPScheme = SchemeCompress, SchemeCompress
			o.FPBits, o.BPBits = 4, 4
			o.PackedSpMM = true
		}},
	}
	for _, wire := range wires {
		for _, overlap := range []bool{false, true} {
			opts := base
			wire.set(&opts)
			opts.Overlap = overlap
			mode := "sequential"
			if overlap {
				mode = "overlap"
			}
			t.Run(wire.name+"/"+mode, func(t *testing.T) { body(t, opts) })
		}
	}
}

// TestWorkerDegradedFetchServesCache fails every ghost-embedding exchange
// for one epoch; within the staleness bound both workers must fall back to
// last-good rows, finish the epoch and report the degraded fetches.
func TestWorkerDegradedFetchServesCache(t *testing.T) {
	forEachDegradedArm(t, Options{}, func(t *testing.T, opts Options) {
		var faultEpoch atomic.Bool
		workers, reports, step := faultCluster(t, opts, func(src, dst int, method string) bool {
			return faultEpoch.Load() && method == MethodGetH
		})
		for e := 0; e < 3; e++ {
			for _, err := range step(e) {
				if err != nil {
					t.Fatalf("clean epoch %d: %v", e, err)
				}
			}
		}
		if reports[0].DegradedFetches != 0 {
			t.Fatalf("clean epochs reported %d degraded fetches", reports[0].DegradedFetches)
		}
		packed := opts.FPScheme == SchemeCompress
		for _, w := range workers {
			for _, j := range w.ghostOwner {
				if g := w.ghostH.last[1][j]; packed && (g.packed == nil || g.rows != nil) {
					t.Fatalf("worker %d: last-good H from %d not retained packed", w.id, j)
				}
			}
		}

		faultEpoch.Store(true)
		for _, err := range step(3) {
			if err != nil {
				t.Fatalf("degraded epoch should survive: %v", err)
			}
		}
		for i, r := range reports {
			if r.DegradedFetches == 0 {
				t.Fatalf("worker %d reported no degraded fetches through a faulted epoch", i)
			}
		}
		for _, w := range workers {
			for _, j := range w.ghostOwner {
				if w.ghostH.last[1][j].rows == nil {
					t.Fatalf("worker %d: fallback for %d served without materialised rows", w.id, j)
				}
			}
		}

		// Recovery: the next clean epoch must refresh the caches and report zero.
		faultEpoch.Store(false)
		for _, err := range step(4) {
			if err != nil {
				t.Fatalf("recovery epoch: %v", err)
			}
		}
		for i, r := range reports {
			if r.DegradedFetches != 0 {
				t.Fatalf("worker %d still degraded after recovery: %d", i, r.DegradedFetches)
			}
		}
	})
}

// TestWorkerGradientExchangeDegrades mirrors the embedding test on the
// backward path: failed getG exchanges serve last-good gradient rows.
func TestWorkerGradientExchangeDegrades(t *testing.T) {
	forEachDegradedArm(t, Options{}, func(t *testing.T, opts Options) {
		var faultEpoch atomic.Bool
		_, reports, step := faultCluster(t, opts, func(src, dst int, method string) bool {
			return faultEpoch.Load() && method == MethodGetG
		})
		for e := 0; e < 2; e++ {
			for _, err := range step(e) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		faultEpoch.Store(true)
		for _, err := range step(2) {
			if err != nil {
				t.Fatalf("degraded gradient epoch should survive: %v", err)
			}
		}
		for i, r := range reports {
			if r.DegradedFetches == 0 {
				t.Fatalf("worker %d reported no degraded gradient fetches", i)
			}
		}
	})
}

// TestWorkerStalenessBoundFailsHard keeps the fault on: with
// MaxStaleEpochs = 1, the first faulted epoch degrades and the second must
// fail hard instead of training on ever-staler rows.
func TestWorkerStalenessBoundFailsHard(t *testing.T) {
	forEachDegradedArm(t, Options{MaxStaleEpochs: 1}, func(t *testing.T, opts Options) {
		var faultEpoch atomic.Bool
		_, _, step := faultCluster(t, opts, func(src, dst int, method string) bool {
			return faultEpoch.Load() && method == MethodGetH
		})
		for e := 0; e < 2; e++ {
			for _, err := range step(e) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		faultEpoch.Store(true)
		for _, err := range step(2) {
			if err != nil {
				t.Fatalf("staleness 1 is within bound 1, epoch should survive: %v", err)
			}
		}
		sawHardFail := false
		for _, err := range step(3) {
			if err != nil {
				if !strings.Contains(err.Error(), "unrecoverable") {
					t.Fatalf("hard failure lacks staleness context: %v", err)
				}
				sawHardFail = true
			}
		}
		if !sawHardFail {
			t.Fatalf("epoch beyond the staleness bound did not fail")
		}
	})
}

// TestWorkerDegradedModeDisabled: a negative bound turns every exhausted
// fetch into an immediate hard failure.
func TestWorkerDegradedModeDisabled(t *testing.T) {
	var faultEpoch atomic.Bool
	_, _, step := faultCluster(t, Options{MaxStaleEpochs: -1}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for _, err := range step(0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	faultEpoch.Store(true)
	sawHardFail := false
	for _, err := range step(1) {
		if err != nil {
			sawHardFail = true
		}
	}
	if !sawHardFail {
		t.Fatalf("disabled degraded mode still survived a faulted fetch")
	}
}

// TestWorkerECPredictionFallback runs the EC scheme past a trend boundary so
// requesters hold a baseline, then faults an epoch: the degraded path serves
// the ReqEC-FP linear prediction and training continues.
func TestWorkerECPredictionFallback(t *testing.T) {
	var faultEpoch atomic.Bool
	workers, reports, step := faultCluster(t, Options{
		FPScheme: SchemeEC, FPBits: 2, BPScheme: SchemeEC, BPBits: 2, Ttr: 4,
	}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	// Epoch 3 is a trend boundary ((3+1)%4 == 0): baselines exist after it.
	for e := 0; e < 5; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range workers {
		for _, q := range w.ghostH.req[1] {
			if q == nil {
				continue
			}
			if _, ok := q.Predict(5); !ok {
				t.Fatalf("requester has no trend baseline after a boundary epoch")
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(5) {
		if err != nil {
			t.Fatalf("EC-predicted epoch should survive: %v", err)
		}
	}
	for i, r := range reports {
		if r.DegradedFetches == 0 {
			t.Fatalf("worker %d reported no degraded fetches on the EC path", i)
		}
	}
	faultEpoch.Store(false)
	for _, err := range step(6) {
		if err != nil {
			t.Fatalf("recovery after EC-predicted epoch: %v", err)
		}
	}
}

// TestWorkerDelayedModeDegrades exercises the delayed-aggregation refresh
// path: a faulted refresh round is skipped within the staleness bound.
func TestWorkerDelayedModeDegrades(t *testing.T) {
	var faultEpoch atomic.Bool
	_, reports, step := faultCluster(t, Options{DelayRounds: 2}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(2) {
		if err != nil {
			t.Fatalf("delayed degraded epoch should survive: %v", err)
		}
	}
	degraded := reports[0].DegradedFetches + reports[1].DegradedFetches
	if degraded == 0 {
		t.Fatalf("no degraded refreshes recorded in delayed mode")
	}
}
