package worker

import (
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
)

// handoffFixture trains a 3-worker cluster with ResEC-BP for a few epochs so
// embeddings and residual state exist, then returns everything needed to
// rebuild workers under a different assignment.
type handoffFixture struct {
	d      *datasets.Dataset
	adj    *graph.NormAdjacency
	dims   []int
	net    transport.Network
	old    []*Worker
	assign []int
	epochs int
}

func newHandoffFixture(t *testing.T) *handoffFixture {
	t.Helper()
	d := datasets.MustLoad("cora")
	const nWorkers = 3
	f := &handoffFixture{
		d: d, adj: graph.Normalize(d.Graph),
		dims:   []int{d.NumFeatures(), 8, d.NumClasses},
		epochs: 4,
		assign: make([]int, d.Graph.N),
	}
	for v := range f.assign {
		f.assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, f.assign, nWorkers)
	f.net = transport.NewInProc(nWorkers + 1)

	template := nn.NewModel(nn.KindGCN, f.dims, 1)
	flat := template.FlattenParams()
	f.net.Register(nWorkers, ps.NewServer(flat, 0.01, nWorkers).Handler())

	f.old = make([]*Worker, nWorkers)
	for i := range f.old {
		f.old[i] = f.newWorker(i, topo)
		f.net.Register(i, f.old[i].Handler())
	}
	for _, w := range f.old {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < f.epochs; e++ {
		errs := make(chan error, nWorkers)
		for _, w := range f.old {
			go func(w *Worker) { _, err := w.RunEpoch(e); errs <- err }(w)
		}
		for range f.old {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func (f *handoffFixture) newWorker(id int, topo *Topology) *Worker {
	return New(Config{
		ID: id, Net: f.net, Topo: topo, Adj: f.adj,
		Feats: f.d.Features, Labels: f.d.Labels, TrainMask: f.d.TrainMask,
		NumTrainGlobal: len(f.d.TrainIdx()),
		Model:          nn.NewModel(nn.KindGCN, f.dims, 1),
		PS:             ps.NewClient(f.net, id, []int{3}, ps.Ranges(len(nn.NewModel(nn.KindGCN, f.dims, 1).FlattenParams()), 1)),
		Opts:           Options{BPScheme: SchemeEC, BPBits: 4},
	})
}

// drainAssign moves every vertex of worker 2 alternately onto 0 and 1.
func (f *handoffFixture) drainAssign() []int {
	next := append([]int(nil), f.assign...)
	alt := 0
	for v, w := range next {
		if w == 2 {
			next[v] = alt
			alt = 1 - alt
		}
	}
	return next
}

func movedTo(oldAssign, newAssign []int, from, to int) []int32 {
	var out []int32
	for v := range newAssign {
		if oldAssign[v] == from && newAssign[v] == to {
			out = append(out, int32(v))
		}
	}
	return out
}

// TestHandoffRoundTrip: embeddings and residual rows survive an
// export/import bitwise, features land in the new owned slice, and residual
// rows whose (layer, requester) pair still exists under the new view are
// re-seeded at the right position.
func TestHandoffRoundTrip(t *testing.T) {
	f := newHandoffFixture(t)
	src := f.old[2]
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)

	for dst := 0; dst < 2; dst++ {
		moved := movedTo(f.assign, newAssign, 2, dst)
		if len(moved) == 0 {
			t.Fatalf("drain moved nothing to %d", dst)
		}
		payload := src.ExportHandoff(dst, moved)
		nw := f.newWorker(dst, newTopo)
		n, err := nw.ImportHandoff(payload)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(moved) {
			t.Fatalf("imported %d of %d vertices", n, len(moved))
		}

		for _, v := range moved {
			oldPos := int(src.ownedPos[v])
			newPos := int(nw.ownedPos[v])
			for c := 0; c < nw.x.Cols; c++ {
				if nw.x.Row(newPos)[c] != f.d.Features.Row(int(v))[c] {
					t.Fatalf("feature row of %d corrupted in transit", v)
				}
			}
			for l := 1; l <= 2; l++ {
				got := nw.handoffH[l][v]
				want := src.ownH[l].Row(oldPos)
				if len(got) != len(want) {
					t.Fatalf("H^%d row of %d: %d values, want %d", l, v, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("H^%d row of %d differs at col %d", l, v, c)
					}
				}
			}
		}

		// Residual continuity: every pair that survives the view change
		// carries its δ row bitwise; pairs that dissolved dropped theirs.
		reseeded := 0
		for req := 0; req < 3; req++ {
			oldList := src.topo.Needs[req][2]
			newList := newTopo.Needs[req][dst]
			for _, v := range moved {
				oi, ni := needsIndex(oldList, v), needsIndex(newList, v)
				if oi < 0 || ni < 0 {
					continue
				}
				want := src.bpResp[2][req].ResidualRow(oi)
				if want == nil {
					continue
				}
				got := nw.bpResp[2][req].ResidualRow(ni)
				if got == nil {
					t.Fatalf("residual (req %d, vertex %d) not reseeded", req, v)
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("residual (req %d, vertex %d) differs at col %d", req, v, c)
					}
				}
				reseeded++
			}
		}
		if reseeded == 0 {
			t.Fatal("no residual rows crossed the handoff; fixture too small to exercise it")
		}
	}
}

// TestHandoffDoubleMove: a vertex moved A→B and again B→C before B ever ran
// an epoch re-exports the handoff-cached H rows bitwise.
func TestHandoffDoubleMove(t *testing.T) {
	f := newHandoffFixture(t)
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)
	moved := movedTo(f.assign, newAssign, 2, 0)
	vv := moved[0]

	mid := f.newWorker(0, newTopo)
	if _, err := mid.ImportHandoff(f.old[2].ExportHandoff(0, moved)); err != nil {
		t.Fatal(err)
	}

	// Second transition: vv moves on from 0 to 1 with no epoch in between.
	thirdAssign := append([]int(nil), newAssign...)
	thirdAssign[vv] = 1
	thirdTopo := BuildTopology(f.d.Graph, thirdAssign, 3)
	final := f.newWorker(1, thirdTopo)
	if _, err := final.ImportHandoff(mid.ExportHandoff(1, []int32{vv})); err != nil {
		t.Fatal(err)
	}
	oldPos := int(f.old[2].ownedPos[vv])
	for l := 1; l <= 2; l++ {
		got := final.handoffH[l][vv]
		want := f.old[2].ownH[l].Row(oldPos)
		if len(got) != len(want) {
			t.Fatalf("double-moved H^%d row lost (%d values, want %d)", l, len(got), len(want))
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("double-moved H^%d row differs at col %d", l, c)
			}
		}
	}
}

// TestSeedDegradedCaches: a rebuilt worker's last-good ghost caches are
// populated from the previous view's workers, with the group's staleness
// tag set, so degraded serving works from the first post-transition epoch.
func TestSeedDegradedCaches(t *testing.T) {
	f := newHandoffFixture(t)
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)
	prev := map[int]*Worker{0: f.old[0], 1: f.old[1], 2: f.old[2]}

	nw := f.newWorker(0, newTopo)
	nw.SeedDegradedCaches(prev)
	if len(nw.ghostOwner) == 0 {
		t.Fatal("fixture has no ghosts; nothing exercised")
	}
	for _, j := range nw.ghostOwner {
		lst := newTopo.Needs[0][j]
		if nw.ghostH.last[1][j].rows == nil {
			t.Fatalf("H^1 group for owner %d not seeded", j)
		}
		if tag := nw.ghostH.last[1][j].epoch; tag < 0 || tag > f.epochs-1 {
			t.Fatalf("H^1 group for owner %d has staleness tag %d", j, tag)
		}
		for i, u := range lst {
			oldOwner := f.assign[u]
			want := f.old[oldOwner].ownH[1].Row(int(f.old[oldOwner].ownedPos[u]))
			got := nw.ghostH.last[1][j].rows.Row(i)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("seeded H^1 row for ghost %d differs at col %d", u, c)
				}
			}
		}
		// G^2 rows were published during the backward pass and must seed too.
		if nw.ghostG.last[2][j].rows == nil {
			t.Fatalf("G^2 group for owner %d not seeded", j)
		}
	}
}
