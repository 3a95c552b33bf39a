// Command perfbench is EC-Graph's end-to-end benchmark. One run trains one
// workload's model through core.Train and serves it through serve.New,
// Predict and SwapModel under an open-loop request stream, checks that the
// outputs are right, and prints its metrics; the last line of standard
// output is the JSON result. Layers are measured from outside the program,
// through the seams it already exposes (see probe.go).
//
//	bash perfbench/run.sh --workload train-products-ec --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics with no instrumentation;
// --trace 1 is the traced run that reports the per-layer metrics.
// perfbench/README.md gives the workloads, the metrics and what each
// per-layer metric should move.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ecgraph/internal/worker"
)

// modelSeed fixes the model initialisation. The training inputs are the
// preset datasets, which datasets.Load generates identically every time, so
// each workload trains along one trajectory and time_to_target_s compares
// like with like; --seed drives the request stream and the replay operands.
const modelSeed = 1

// Serving load. The latency limit is generous because the load comes from
// the benchmark's own process: on a 2-CPU box a request can wait a
// scheduler quantum for the generator to run, so the knee the ladder finds
// is where the service starts refusing work or falling behind.
const (
	// swapEvery is the fixed-rate phase's hot-swap cadence. A swap stalls
	// the shards for 5-8 ms, so the stalls cover several percent of the
	// requests and the p99 sits inside them, not at their edge.
	swapEvery = 100 * time.Millisecond
	p99Limit  = 0.050 // seconds
	// ladderStep is the ratio between adjacent ladder rates; the ladder
	// stops after two consecutive rungs miss the limit.
	ladderStep = 1.15
	ladderMax  = 60000
)

// extraSetups is how many set-ups beyond the training sessions' own each
// run measures, for training and for serving.
const extraSetups = 5

// workload is one benchmark workload: a training shape, then its model
// served under load. The shares split --seconds between training, the
// fixed-rate serving phase and each rung of the rate ladder.
type workload struct {
	train      trainSpec
	serveRate  float64 // requests/s of the fixed-rate phase
	ladderFrom float64 // first rung of the rate ladder, requests/s
	trainShare float64
	fixedShare float64
	rungShare  float64
}

var products = trainSpec{preset: "ogbn-products", scheme: worker.SchemeEC, bits: 2,
	epochs: 60, target: 0.65, floor: 0.6}

var workloads = map[string]workload{
	"train-products-ec": {
		train: products, serveRate: 4000, ladderFrom: 14000,
		trainShare: 0.45, fixedShare: 0.3, rungShare: 1.0 / 90,
	},
	"train-reddit-raw": {
		train: trainSpec{preset: "reddit", scheme: worker.SchemeRaw, bits: 32,
			epochs: 60, target: 0.92, floor: 0.9},
		serveRate: 2000, ladderFrom: 9000,
		trainShare: 0.45, fixedShare: 0.3, rungShare: 1.0 / 90,
	},
	"serve-products": {
		train: products, serveRate: 4000, ladderFrom: 14000,
		trainShare: 0.3, fixedShare: 0.35, rungShare: 1.0 / 90,
	},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the request stream and replay operands")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &report{workload: *name, seed: *seed, trace: *trace, metrics: map[string]metric{}}
	r.steal0, r.ticks0 = cpuTicks()
	budget := time.Duration(*seconds) * time.Second
	rng := rand.New(rand.NewSource(*seed))
	if *trace == 0 {
		measure(w, budget, rng, r)
	} else {
		traced(w, budget, rng, r)
	}
	return r.print()
}

// checkSessions records every wrong output and counts epochs. All sessions
// train the same inputs from the same seed, so their per-epoch losses must
// agree bit for bit.
func checkSessions(s trainSpec, ss []*session, r *report) {
	for i, x := range ss {
		r.attempted += s.epochs
		r.failed += x.failedEpochs(s)
		if why := x.check(s); why != "" {
			r.problem("training session %d: %s", i, why)
		} else if !sameLosses(ss[0], x) {
			r.problem("training session %d: per-epoch loss differs from session 0", i)
		}
	}
}

// rounds is how many times an untraced run cycles through training,
// fixed-rate serving and a ladder pass. Spreading each phase over the run
// means a burst of contention from outside the program, which on a shared
// host can last several seconds, spoils part of each metric's samples
// rather than all of one metric's.
const rounds = 3

// measure is the untraced run: every end-to-end metric.
func measure(w workload, budget time.Duration, rng *rand.Rand, r *report) {
	s := w.train
	// Extra one-epoch sessions give set-up enough samples for a steady median.
	var setups []float64
	short := s
	short.epochs = 1
	for i := 0; i < extraSetups; i++ {
		x := short.train(nil)
		if x.err != nil {
			r.problem("set-up session: %v", x.err)
			return
		}
		setups = append(setups, x.setup)
	}

	var ss []*session
	var trained time.Duration
	var dep *deployment
	var fixed []*loadStats
	var maxes []float64
	for round := 0; round < rounds; round++ {
		// Train while this round's share of the training budget lasts,
		// at least one session in the first round.
		due := time.Duration(float64(scale(budget, w.trainShare)) * float64(round+1) / rounds)
		for len(ss) == 0 || trained+trained/time.Duration(2*len(ss)) <= due {
			t0 := time.Now()
			ss = append(ss, s.train(nil))
			trained += time.Since(t0)
			if ss[len(ss)-1].err != nil {
				checkSessions(s, ss, r)
				return
			}
		}
		if dep == nil {
			var err error
			if dep, err = serveSetup(ss[0]); err != nil {
				r.problem("%v", err)
				return
			}
			defer dep.close()
		}
		// Each load phase starts from a collected heap, so garbage left by
		// training or by the previous phase is not collected inside it.
		runtime.GC()
		ls := openLoop(dep, rng, w.serveRate, scale(budget, w.fixedShare/rounds), dep.alternate)
		r.countLoad("fixed-rate", ls, true)
		r.note("fixed-rate block %d: %s, swaps=%d swap_errors=%d", round, ls, len(ls.swaps), ls.swapErrs)
		if ls.swapErrs > 0 {
			r.problem("%d hot swaps failed", ls.swapErrs)
		}
		fixed = append(fixed, ls)
		maxes = append(maxes, climb(dep, w, scale(budget, w.rungShare), rng, r))
	}
	checkSessions(s, ss, r)

	// Each training figure is taken per session and the best session is
	// reported: contention from outside the program only ever adds time, so
	// the least disturbed session is the steadiest estimate (min over
	// rounds).
	var epochs, p90s, ttts, modelled []float64
	n := 0
	for _, x := range ss {
		setups = append(setups, x.setup)
		es := x.epochSeconds()
		n += len(es)
		epochs = append(epochs, median(es))
		p90s = append(p90s, quantile(es, 0.9))
		ttts = append(ttts, x.timeToTarget(s.target))
		modelled = append(modelled, median(x.modelledEpochSeconds()))
	}
	r.note("training: best of %d sessions, %d timed epochs", len(ss), n)
	r.set("epoch_s", "s", lowest(epochs), n)
	r.set("epoch_p90_s", "s", lowest(p90s), n)
	r.set("time_to_target_s", "s", lowest(ttts), len(ttts))
	r.set("wire_bytes_per_epoch", "B", ss[0].wireBytesPerEpoch(), s.epochs)
	r.set("modelled_epoch_s", "s", lowest(modelled), n)
	r.set("val_acc", "ratio", ss[0].valAcc(), len(ss))
	r.set("setup_s", "s", median(setups)+median(dep.setups), len(setups)+len(dep.setups))
	r.note("setup: training %.4fs (median of %d), serving %.4fs (median of %d)",
		median(setups), len(setups), median(dep.setups), len(dep.setups))

	// The fixed-rate figures are per period: the quietest period of the
	// run is the steadiest estimate.
	var p50s, p99s, swaps []float64
	for _, ls := range fixed {
		for _, p := range ls.periods() {
			p50s = append(p50s, p.p50)
			p99s = append(p99s, p.p99)
			swaps = append(swaps, p.swap)
		}
	}
	r.note("serving: fixed-rate figures are the best of %d periods of %v; serve_max_rps is the best of %d ladder passes", len(p50s), periodLen, rounds)
	r.note("period p50s (ms): %s", millis(p50s))
	r.note("period p99s (ms): %s", millis(p99s))
	r.note("period median swaps (ms): %s", millis(swaps))
	r.set("serve_p50_ms", "ms", 1e3*lowest(p50s), len(p50s))
	// The p99 is printed but not bounded: on a 2-vCPU host it moved by a
	// quarter between runs with where the hypervisor placed the vCPUs. The
	// traced run reports it as serve.p99_ms.
	r.extra("serve_p99_ms", "ms", 1e3*lowest(p99s), len(p99s))
	r.set("swap_s", "s", lowest(swaps), len(swaps))
	r.set("serve_max_rps", "1/s", highest(maxes), len(maxes))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("peak_heap_mb", "MB", float64(ms.HeapSys)/(1<<20), 1)
}

// serveSetup deploys the session's trained model extraSetups times,
// timing each, and keeps the last deployment for the load.
func serveSetup(ss *session) (*deployment, error) {
	models, oracles, err := servedModels(ss)
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		dep, err := deploy(ss.d, models, oracles, nil)
		if err != nil {
			return nil, fmt.Errorf("serving set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == extraSetups-1 {
			dep.setups = times
			return dep, nil
		}
		dep.close()
	}
}

// climb runs one pass of the rate ladder on the active model, without
// swaps, and returns the highest rung that met the latency limit. The rungs
// sit on the fixed grid ladderFrom·ladderStep^k. A pass climbs from
// ladderFrom and stops after two rungs in a row miss; if none met the
// limit, it walks down the grid, no lower than the fixed rate, to the first
// rung that does. NaN means even that failed.
func climb(dep *deployment, w workload, rung time.Duration, rng *rand.Rand, r *report) float64 {
	meets := func(rate float64) bool {
		ls := openLoop(dep, rng, rate, rung, nil)
		r.countLoad("ladder", ls, false)
		pass := ls.sustained(p99Limit)
		r.note("ladder rung: %s sustained=%v", ls, pass)
		return pass
	}
	rate := func(k int) float64 { return math.Round(w.ladderFrom * math.Pow(ladderStep, float64(k))) }
	best, misses := math.NaN(), 0
	for k := 0; rate(k) <= ladderMax && misses < 2; k++ {
		if meets(rate(k)) {
			best, misses = rate(k), 0
		} else {
			misses++
		}
	}
	for k := -1; math.IsNaN(best) && rate(k) >= w.serveRate; k-- {
		if meets(rate(k)) {
			best = rate(k)
		}
	}
	return best
}

func millis(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", 1e3*x)
	}
	return strings.Join(parts, " ")
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}
