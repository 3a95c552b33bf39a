package main

import (
	"math/rand"
	"runtime"
	"time"

	"ecgraph/internal/nn"
	"ecgraph/internal/worker"
)

// Worker span stages, as the worker names them ("fp2 collect"), and the
// metric each feeds.
var stages = []struct{ span, metric string }{
	{"fp1 owned", "worker.fp1.owned_s"},
	{"fp1 collect", "worker.fp1.collect_s"},
	{"fp1 fold", "worker.fp1.fold_s"},
	{"fp2 owned", "worker.fp2.owned_s"},
	{"fp2 collect", "worker.fp2.collect_s"},
	{"fp2 fold", "worker.fp2.fold_s"},
	{"bp2 owned", "worker.bp2.owned_s"},
	{"bp2 collect", "worker.bp2.collect_s"},
	{"bp2 fold", "worker.bp2.fold_s"},
	{"bp1 owned", "worker.bp1.owned_s"},
}

// epochLayers is one traced epoch's per-layer breakdown.
type epochLayers struct {
	wall, slowest float64 // epoch wall time; the slowest worker's summed spans
	stage         map[string]float64
	values        map[string]float64 // the other per-epoch metrics
}

// breakdown attributes traced epoch t (warmup ≤ t ≤ epochs-2) of a session.
func (ss *session) breakdown(t int) epochLayers {
	win := ss.windows[t+1]
	e := epochLayers{wall: ss.marks[t+1].Sub(ss.marks[t]).Seconds(), stage: map[string]float64{}}
	perWorker := map[int]float64{}
	for k, sec := range win.spans {
		perWorker[k.pid] += *sec
	}
	slowPid := -1
	for pid, sec := range perWorker {
		if slowPid < 0 || sec > e.slowest || (sec == e.slowest && pid < slowPid) {
			slowPid, e.slowest = pid, sec
		}
	}
	for _, st := range stages {
		if sec := win.spans[spanKey{slowPid, st.span}]; sec != nil {
			e.stage[st.metric] = *sec
		}
	}
	sec := func(m map[string]*tally, method string) float64 {
		if t := m[method]; t != nil {
			return t.seconds()
		}
		return 0
	}
	bytes := func(methods ...string) float64 {
		var b int64
		for _, m := range methods {
			if t := win.caller[m]; t != nil {
				b += t.bytes
			}
		}
		return float64(b)
	}
	calls := 0
	for _, t := range win.caller {
		calls += t.calls
	}
	e.values = map[string]float64{
		"core.unspanned_s":           e.wall - e.slowest,
		"core.eval_s":                sec(win.caller, worker.MethodLogits),
		"worker.getH.serve_s":        sec(win.handler, worker.MethodGetH),
		"worker.getG.serve_s":        sec(win.handler, worker.MethodGetG),
		"ps.pull_s":                  sec(win.handler, "ps.pull"),
		"ps.push_s":                  sec(win.handler, "ps.push"),
		"transport.getH.bytes":       bytes(worker.MethodGetH),
		"transport.getG.bytes":       bytes(worker.MethodGetG),
		"transport.ps.bytes":         bytes("ps.pull", "ps.push"),
		"transport.logits.bytes":     bytes(worker.MethodLogits),
		"transport.calls":            float64(calls),
		"core.allocs_per_epoch":      float64(ss.mallocs[t+1] - ss.mallocs[t]),
		"core.alloc_bytes_per_epoch": float64(ss.allocBytes[t+1] - ss.allocBytes[t]),
	}
	return e
}

// perEpochUnits gives each per-epoch metric's unit.
var perEpochUnits = map[string]string{
	"core.unspanned_s": "s", "core.eval_s": "s",
	"worker.getH.serve_s": "s", "worker.getG.serve_s": "s",
	"ps.pull_s": "s", "ps.push_s": "s",
	"transport.getH.bytes": "B", "transport.getG.bytes": "B",
	"transport.ps.bytes": "B", "transport.logits.bytes": "B",
	"transport.calls":       "count",
	"core.allocs_per_epoch": "count", "core.alloc_bytes_per_epoch": "B",
}

// tracedSessions runs pairs of sessions, one untraced and one traced, until
// the next pair would overrun budget; always at least one pair.
func tracedSessions(s trainSpec, budget time.Duration, p *probe) (plain, probed []*session) {
	start := time.Now()
	for {
		plain = append(plain, s.train(nil))
		probed = append(probed, s.train(p))
		perPair := time.Since(start) / time.Duration(len(plain))
		if time.Since(start)+perPair > budget {
			return plain, probed
		}
	}
}

// traced is the traced run: every per-layer metric, the tracing overhead,
// and the check that tracing leaves training bit for bit unchanged.
func traced(w workload, budget time.Duration, rng *rand.Rand, r *report) {
	s := w.train
	p := newProbe()
	plain, tr := tracedSessions(s, scale(budget, w.trainShare), p)
	checkSessions(s, append(append([]*session(nil), plain...), tr...), r)
	if len(r.problems) > 0 {
		return
	}

	var plainEpochs, tracedEpochs, loads, parts, others, cuts []float64
	for _, x := range plain {
		plainEpochs = append(plainEpochs, x.epochSeconds()...)
		loads = append(loads, x.load)
	}
	values := map[string][]float64{}
	var walls, spanned, unspanned []float64
	for _, x := range tr {
		tracedEpochs = append(tracedEpochs, x.epochSeconds()...)
		loads = append(loads, x.load)
		part := sum(x.part.seconds)
		parts = append(parts, part)
		others = append(others, x.setup-x.load-part)
		cuts = append(cuts, float64(x.res.PartitionStats.EdgeCut))
		for t := warmup; t+1 < len(x.marks)-1; t++ {
			e := x.breakdown(t)
			walls = append(walls, e.wall)
			spanned = append(spanned, e.slowest)
			unspanned = append(unspanned, e.wall-e.slowest)
			if e.wall-e.slowest < 0 {
				r.problem("traced epoch %d: slowest worker's spans (%.6fs) exceed the epoch (%.6fs)", t, e.slowest, e.wall)
			}
			for k, v := range e.stage {
				values[k] = append(values[k], v)
			}
			for k, v := range e.values {
				values[k] = append(values[k], v)
			}
		}
	}
	overhead := median(tracedEpochs) / median(plainEpochs)
	r.set("trace.overhead_ratio", "ratio", overhead, len(tracedEpochs)+len(plainEpochs))
	r.note("tracing overhead: traced epoch_s %.5fs / untraced epoch_s %.5fs = %.4f",
		median(tracedEpochs), median(plainEpochs), overhead)
	r.note("traced per-epoch loss equals untraced in all %d traced sessions", len(tr))
	r.note("additivity over %d traced epochs: mean slowest-worker spans %.6fs + mean core.unspanned_s %.6fs = %.6fs; mean epoch wall %.6fs",
		len(walls), mean(spanned), mean(unspanned), mean(spanned)+mean(unspanned), mean(walls))

	r.set("datasets.load_s", "s", median(loads), len(loads))
	r.set("partition.partition_s", "s", median(parts), len(parts))
	r.set("partition.edge_cut", "count", median(cuts), len(cuts))
	r.set("core.setup_other_s", "s", median(others), len(others))
	for _, st := range stages {
		r.set(st.metric, "s", median(values[st.metric]), len(values[st.metric]))
	}
	for name, unit := range perEpochUnits {
		r.set(name, unit, median(values[name]), len(values[name]))
	}

	last := tr[len(tr)-1]
	models, oracles, err := servedModels(last)
	if err != nil {
		r.problem("%v", err)
		return
	}
	tracedServing(w, last, models, oracles, budget, rng, p, r)

	for _, k := range replayKernels(last.d, models[0], 2, rng) {
		r.set(k.name+".ns", "ns", k.nsCall, 9)
		r.note("replay %-17s %-24s %10.0f ns/call %12.0f %s/call %12.0f B/call", k.name, k.shape, k.nsCall, k.ops, k.opUnit, k.bytes)
	}
}

// tracedServing deploys the trained model on a probed transport and runs
// the fixed-rate phase with hot swaps. The first install, made before any
// request, gives the ghost-row traffic of one version preparation, which
// is taken out of the request-time row counts.
func tracedServing(w workload, ss *session, models []*nn.Model, oracles []*answers, budget time.Duration, rng *rand.Rand, p *probe, r *report) {
	p.take()
	dep, err := deploy(ss.d, models, oracles, p)
	if err != nil {
		r.problem("serving set-up: %v", err)
		return
	}
	defer dep.close()
	prep := p.take()
	prepRows := prep.caller["sv.rows"]
	if prepRows == nil {
		prepRows = &tally{}
	}

	runtime.GC()
	ls := openLoop(dep, rng, w.serveRate, scale(budget, w.fixedShare), dep.alternate)
	win := p.take()
	r.countLoad("traced fixed-rate", ls, true)
	r.note("traced fixed-rate phase: %s, swaps=%d", ls, len(ls.swaps))
	batch, rows, preps := win.caller["sv.batch"], win.caller["sv.rows"], win.caller["sv.prep"]
	if batch == nil || len(batch.samples) == 0 || preps == nil || len(ls.swaps) == 0 {
		r.problem("traced serving saw no batches or no swaps")
		return
	}
	if rows == nil {
		rows = &tally{}
	}
	batches := float64(len(batch.samples))
	swaps := float64(len(ls.swaps) + ls.swapErrs)
	shard := win.handler["sv.batch"].samples
	r.set("serve.batch_vertices", "count", float64(ls.vertices)/batches, len(batch.samples))
	r.set("serve.shard_batch_s", "s", median(shard), len(shard))
	r.set("serve.wait_s", "s", mean(ls.call)-mean(batch.samples), len(ls.call))
	r.set("serve.rows_calls", "count", (float64(rows.calls)-swaps*float64(prepRows.calls))/batches, len(batch.samples))
	r.set("serve.rows_bytes", "B", (float64(rows.bytes)-swaps*float64(prepRows.bytes))/batches, len(batch.samples))
	r.set("serve.prep_s", "s", preps.seconds()/swaps, int(swaps))
	var p99s []float64
	for _, pd := range ls.periods() {
		p99s = append(p99s, pd.p99)
	}
	r.set("serve.p99_ms", "ms", 1e3*lowest(p99s), len(p99s))
}
