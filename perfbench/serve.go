package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/serve"
	"ecgraph/internal/transport"
)

const (
	numShards   = 2
	reqVertices = 4 // vertices per Predict request
	// tieMargin: a vertex whose two best oracle logits are closer than this
	// may legitimately flip class under the shards' reassociated sums, so
	// only its logits' drift is checked, not its class.
	tieMargin = 1e-4
	// maxDrift bounds how far a served logit may stray from the
	// single-machine one.
	maxDrift = 1e-3
)

// answers is the single-machine forward pass of one model: the class and
// logits every served result for that model version must match.
type answers struct {
	logits [][]float32
	class  []int
	margin []float32 // best minus second-best logit
}

func forward(d *datasets.Dataset, m *nn.Model) *answers {
	acts := m.Forward(graph.Normalize(d.Graph), d.Features)
	out := acts.H[len(acts.H)-1]
	a := &answers{class: out.ArgMaxRows(), margin: make([]float32, out.Rows), logits: make([][]float32, out.Rows)}
	for v := 0; v < out.Rows; v++ {
		row := out.Row(v)
		a.logits[v] = row
		best, second := row[a.class[v]], float32(-1e30)
		for j, x := range row {
			if j != a.class[v] && x > second {
				second = x
			}
		}
		a.margin[v] = best - second
	}
	return a
}

// servedModels returns the session's trained model and the untrained
// model it started from, with each one's single-machine answers. The
// fixed-rate phase hot-swaps between the two.
func servedModels(ss *session) ([]*nn.Model, []*answers, error) {
	trained, err := core.FinalModel(ss.cfg, ss.res)
	if err != nil {
		return nil, nil, fmt.Errorf("final model: %w", err)
	}
	initial := nn.NewModel(nn.KindGCN, trained.Dims, modelSeed)
	return []*nn.Model{trained, initial}, []*answers{forward(ss.d, trained), forward(ss.d, initial)}, nil
}

// deployment is one serving replica set plus the bookkeeping that checks
// its answers: which model each version number carries.
type deployment struct {
	svc     *serve.Service
	net     transport.Network // non-nil when the probe supplied it
	n       int               // vertices served
	models  []*nn.Model
	oracles []*answers
	setups  []float64 // seconds per serving set-up, when timed
	swaps   int       // swaps made by alternate

	mu       sync.RWMutex
	versions map[uint32]*answers
	next     uint32
}

// deploy builds the service and installs models[0]: the serving set-up
// that setup_s measures.
func deploy(d *datasets.Dataset, models []*nn.Model, oracles []*answers, p *probe) (*deployment, error) {
	cfg := serve.Config{Graph: d.Graph, Features: d.Features, Shards: numShards, WireBits: 32}
	dep := &deployment{n: d.Graph.N, models: models, oracles: oracles, versions: map[uint32]*answers{}, next: 1}
	if p != nil {
		dep.net = tappedNet{transport.NewStack(transport.NewInProc(numShards+1), transport.WithConcurrency(numShards)), p}
		cfg.Net = dep.net
	}
	svc, err := serve.New(cfg)
	if err != nil {
		if dep.net != nil {
			dep.net.Close()
		}
		return nil, err
	}
	dep.svc = svc
	if err := dep.install(0); err != nil {
		dep.close()
		return nil, err
	}
	return dep, nil
}

// install makes models[i] the next version. Versions are numbered by the
// order of SwapModel calls, and only one goroutine swaps at a time.
func (dep *deployment) install(i int) error {
	dep.mu.Lock()
	dep.versions[dep.next] = dep.oracles[i]
	dep.next++
	dep.mu.Unlock()
	return dep.svc.SwapModel(dep.models[i])
}

// alternate is the fixed-rate phase's hot swap: it installs the model not
// installed last — a write beside the reads.
func (dep *deployment) alternate() error {
	dep.swaps++
	return dep.install(dep.swaps % len(dep.models))
}

func (dep *deployment) close() {
	dep.svc.Close()
	if dep.net != nil {
		dep.net.Close()
	}
}

// wrong counts the results of one request whose class or logits disagree
// with the single-machine forward pass of the version that answered.
func (dep *deployment) wrong(res []serve.Result) int {
	bad := 0
	for _, r := range res {
		dep.mu.RLock()
		a := dep.versions[r.Version]
		dep.mu.RUnlock()
		if a == nil || len(r.Logits) != len(a.logits[r.Vertex]) {
			bad++
			continue
		}
		drift := float32(0)
		for j, x := range r.Logits {
			if d := x - a.logits[r.Vertex][j]; d > drift {
				drift = d
			} else if -d > drift {
				drift = -d
			}
		}
		if drift > maxDrift || (r.Class != a.class[r.Vertex] && a.margin[r.Vertex] > tieMargin) {
			bad++
		}
	}
	return bad
}

// loadStats is one open-loop phase's outcome.
type loadStats struct {
	rate                   float64
	attempted, ok          int
	failed, refused, wrong int
	latency                []float64 // seconds from due time to answer, per successful request, in due order
	byDue                  []float64 // the same per request, +Inf for a request not served
	lag                    []float64 // seconds the generator dispatched each request after its due time
	call                   []float64 // seconds inside Predict, per successful request
	swaps                  []float64 // seconds per SwapModel
	swapAt                 []float64 // when each of them started, seconds into the phase
	swapErrs               int
	vertices               int // vertices in successful requests
}

// openLoop offers requests of reqVertices seeded vertex ids at rate per
// second for dur. Request i is due at start + i/rate and is dispatched then,
// or at once if the generator is already late; no tick is dropped and no
// request waits for another to finish. Latency runs from the due time, so a
// stall also charges the requests queued behind it. When swap is non-nil it
// is called every swapEvery while the load runs.
func openLoop(dep *deployment, rng *rand.Rand, rate float64, dur time.Duration, swap func() error) *loadStats {
	total := int(rate * dur.Seconds())
	ls := &loadStats{rate: rate, attempted: total}
	latency := make([]float64, total)
	call := make([]float64, total)
	ls.lag = make([]float64, total)
	var failed, refused, wrong, vertices atomic.Int64

	start := time.Now()
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	if swap != nil {
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			tick := time.NewTicker(swapEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					t0 := time.Now()
					err := swap()
					d := time.Since(t0).Seconds()
					if err != nil {
						ls.swapErrs++
					} else {
						ls.swaps = append(ls.swaps, d)
						ls.swapAt = append(ls.swapAt, t0.Sub(start).Seconds())
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ls.lag[i] = time.Since(due).Seconds()
		ids := make([]int, reqVertices)
		for k := range ids {
			ids[k] = rng.Intn(dep.n)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			latency[i] = -1
			t0 := time.Now()
			res, err := dep.svc.Predict(ids)
			done := time.Now()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				refused.Add(1)
				return
			case err != nil:
				failed.Add(1)
				return
			}
			for _, r := range res {
				if !r.OK {
					failed.Add(1)
					return
				}
			}
			if w := dep.wrong(res); w > 0 {
				wrong.Add(int64(w))
			}
			vertices.Add(int64(len(ids)))
			latency[i] = done.Sub(due).Seconds()
			call[i] = done.Sub(t0).Seconds()
		}(i, due)
	}
	close(stop)
	swapWG.Wait()
	wg.Wait()

	ls.failed, ls.refused, ls.wrong = int(failed.Load()), int(refused.Load()), int(wrong.Load())
	ls.vertices = int(vertices.Load())
	ls.byDue = latency
	for i, l := range latency {
		if l >= 0 {
			ls.latency = append(ls.latency, l)
			ls.call = append(ls.call, call[i])
		} else {
			latency[i] = math.Inf(1)
		}
	}
	ls.ok = len(ls.latency)
	return ls
}

// sustained reports whether a ladder rung met the latency limit. The rung
// is cut by due time into quarters, and each quarter's p99 from the due
// time is taken with refused or failed requests counted as missing the
// limit. The rung meets the limit when at most one quarter misses it: a
// backlog that grows through the rung fails the later quarters, while one
// burst of outside contention fails one quarter only.
func (ls *loadStats) sustained(limit float64) bool {
	if ls.wrong > 0 || len(ls.byDue) < 4 {
		return false
	}
	misses, q := 0, len(ls.byDue)/4
	for k := 0; k < 4; k++ {
		if quantile(ls.byDue[k*q:(k+1)*q], 0.99) > limit {
			misses++
		}
	}
	return misses <= 1
}

// period is one periodLen of a fixed-rate phase: the p50 and p99 from the
// due time of the requests due in it, unserved requests counting as missing
// any limit, and the median duration of the swaps that started in it (NaN
// if none did).
type period struct{ p50, p99, swap float64 }

// periodLen holds at least 1000 requests at the fixed rates used, so each
// period's p99 has ten or more requests beyond it.
const periodLen = 500 * time.Millisecond

// periods cuts the phase into whole periods by due time; a phase shorter
// than one period is one.
func (ls *loadStats) periods() []period {
	size := int(ls.rate * periodLen.Seconds())
	if size > len(ls.byDue) {
		size = len(ls.byDue)
	}
	var out []period
	for k := 0; size > 0 && (k+1)*size <= len(ls.byDue); k++ {
		reqs := ls.byDue[k*size : (k+1)*size]
		var swaps []float64
		for i, at := range ls.swapAt {
			if int(at/periodLen.Seconds()) == k {
				swaps = append(swaps, ls.swaps[i])
			}
		}
		out = append(out, period{p50: quantile(reqs, 0.5), p99: quantile(reqs, 0.99), swap: median(swaps)})
	}
	return out
}

func (ls *loadStats) String() string {
	return fmt.Sprintf("rate=%.0f/s attempted=%d ok=%d failed=%d refused=%d wrong=%d p50=%.2fms p99=%.2fms lag_p99=%.3fms lag_max=%.3fms",
		ls.rate, ls.attempted, ls.ok, ls.failed, ls.refused, ls.wrong,
		1e3*quantile(ls.latency, 0.5), 1e3*quantile(ls.latency, 0.99),
		1e3*quantile(ls.lag, 0.99), 1e3*quantile(ls.lag, 1))
}
