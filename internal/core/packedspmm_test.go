package core

import (
	"math"
	"testing"
	"time"

	"ecgraph/internal/graph"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// TestPackedSpMMMatchesDecodeOracle is the quantised-domain SpMM
// determinism e2e (DESIGN.md §15): training with -packed-spmm on — ghost
// aggregation computed directly on packed wire payloads — must produce
// bitwise-identical per-epoch losses, final parameters and final logits to
// the decode-first oracle, for every packed-eligible wire scheme. The
// chaos arm drops ghost exchanges so the degraded path runs too: fallback
// rows materialised from last-good state retained in packed form must fold
// identically under both kernels.
func TestPackedSpMMMatchesDecodeOracle(t *testing.T) {
	const epochs = 10

	cases := []struct {
		name  string
		opts  worker.Options
		chaos bool
	}{
		// Cp-fp/Cp-bp: both directions ship schemeCompress — every remote
		// payload stays packed end to end. Chaos exercises the packed
		// last-good fallback.
		{"compress-chaos", worker.Options{
			FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeCompress,
			FPBits: 4, BPBits: 4, Overlap: true,
		}, true},
		// ReqEC-FP/ResEC-BP: forward payloads decode dense (the requester
		// Parse maintains trend state), backward compensation ships
		// schemeCompress and stays packed — the mixed operand.
		{"resec", worker.Options{
			FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
			FPBits: 2, BPBits: 2, Ttr: 5, Overlap: true,
		}, false},
		// Top-K backward payloads are sparse (never packed); the packed
		// path must degenerate to the oracle without disturbing anything.
		{"topk", worker.Options{
			FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeTopK,
			FPBits: 4, BPBits: 4, Overlap: false,
		}, false},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(packed bool) *Result {
				cfg := coraConfig(epochs)
				cfg.Workers = 2
				cfg.Servers = 1
				cfg.Worker = tc.opts
				cfg.Worker.PackedSpMM = packed
				if tc.chaos {
					stack := transport.NewStack(
						transport.NewInProc(cfg.Workers+cfg.Servers),
						transport.WithChaos(transport.ChaosConfig{
							Seed:     7,
							DropRate: 0.30,
							Methods:  []string{worker.MethodGetH, worker.MethodGetG},
						}),
						transport.WithReliable(transport.ReliableConfig{
							Timeout:     5 * time.Second,
							MaxAttempts: 2,
							BaseBackoff: 50 * time.Microsecond,
							Seed:        7,
						}),
						transport.WithConcurrency(4),
					)
					defer stack.Close()
					cfg.Net = stack
				}
				res, err := Train(cfg)
				if err != nil {
					t.Fatalf("packed=%v: %v", packed, err)
				}
				return res
			}

			oracle := run(false)
			packed := run(true)

			var oracleDegraded, packedDegraded int
			for e := 0; e < epochs; e++ {
				oracleDegraded += oracle.Epochs[e].DegradedFetches
				packedDegraded += packed.Epochs[e].DegradedFetches
				if oracle.Epochs[e].Loss != packed.Epochs[e].Loss {
					t.Errorf("epoch %d: oracle loss %v != packed loss %v (diff %g)",
						e, oracle.Epochs[e].Loss, packed.Epochs[e].Loss,
						math.Abs(oracle.Epochs[e].Loss-packed.Epochs[e].Loss))
				}
			}
			if tc.chaos && oracleDegraded == 0 {
				t.Fatalf("no degraded fetches — the chaos arm went unexercised")
			}
			if oracleDegraded != packedDegraded {
				t.Errorf("degraded fetches diverged: oracle %d, packed %d", oracleDegraded, packedDegraded)
			}

			if len(oracle.FinalParams) != len(packed.FinalParams) {
				t.Fatalf("param lengths diverged: %d vs %d", len(oracle.FinalParams), len(packed.FinalParams))
			}
			for i := range oracle.FinalParams {
				if oracle.FinalParams[i] != packed.FinalParams[i] {
					t.Fatalf("final params diverge at %d: %v vs %v", i, oracle.FinalParams[i], packed.FinalParams[i])
				}
			}

			cfg := coraConfig(epochs)
			oModel, err := FinalModel(cfg, oracle)
			if err != nil {
				t.Fatal(err)
			}
			pModel, err := FinalModel(cfg, packed)
			if err != nil {
				t.Fatal(err)
			}
			d := cfg.Dataset
			adj := graph.Normalize(d.Graph)
			oLogits := oModel.Forward(adj, d.Features).H
			pLogits := pModel.Forward(adj, d.Features).H
			ol, pl := oLogits[len(oLogits)-1], pLogits[len(pLogits)-1]
			for i := range ol.Data {
				if ol.Data[i] != pl.Data[i] {
					t.Fatalf("final logits diverge at element %d: %v vs %v", i, ol.Data[i], pl.Data[i])
				}
			}
		})
	}
}
