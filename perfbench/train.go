package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// Cluster shape shared by every workload: a 2-layer GCN of hidden width 16
// on 4 workers and 2 parameter servers, hash-partitioned.
const (
	numWorkers = 4
	numServers = 2
	hidden     = 16
	ttr        = 10
	// warmup epochs at the start of each session are left out of the
	// per-epoch timings: the first epoch fills pools and caches.
	warmup = 2
)

// trainSpec is one workload's training shape.
type trainSpec struct {
	preset string
	scheme worker.Scheme // forward and backward
	bits   int
	epochs int     // per session, a whole number of T_tr cycles
	target float64 // validation accuracy time_to_target_s waits for
	floor  float64 // final validation accuracy below this fails the run
}

// session is one dataset generation plus one core.Train run.
type session struct {
	d     *datasets.Dataset
	cfg   core.Config
	res   *core.Result
	err   error
	load  float64     // datasets generation, seconds
	setup float64     // generation plus Train up to the first epoch
	marks []time.Time // EpochHook times, then Train's return

	// Traced sessions only: what the probe saw in each epoch, the
	// partitioner's time, and the allocator's counters at each mark.
	windows    []window
	part       *timedPartitioner
	mallocs    []uint64
	allocBytes []uint64
}

func (s trainSpec) options() worker.Options {
	return worker.Options{
		FPScheme: s.scheme, BPScheme: s.scheme,
		FPBits: s.bits, BPBits: s.bits, Ttr: ttr,
		Overlap: true, PackedSpMM: true,
	}
}

// train runs one session. A traced session wires the probe into the
// transport, the partitioner, the span sink and the epoch hook.
func (s trainSpec) train(p *probe) *session {
	// Start from a collected heap so one session's garbage is not
	// collected inside the next one's timings.
	runtime.GC()
	t0 := time.Now()
	d, err := datasets.Load(s.preset)
	if err != nil {
		panic(err) // the workload table names only known presets
	}
	ss := &session{d: d, load: time.Since(t0).Seconds()}
	ss.cfg = core.Config{
		Dataset: ss.d, Kind: nn.KindGCN, Hidden: []int{hidden},
		Workers: numWorkers, Servers: numServers, Partitioner: partition.Hash{},
		Worker: s.options(), Epochs: s.epochs, Seed: modelSeed,
	}
	var ms runtime.MemStats
	mark := func() {
		ss.marks = append(ss.marks, time.Now())
		if p != nil {
			ss.windows = append(ss.windows, p.take())
			runtime.ReadMemStats(&ms)
			ss.mallocs = append(ss.mallocs, ms.Mallocs)
			ss.allocBytes = append(ss.allocBytes, ms.TotalAlloc)
		}
	}
	ss.cfg.EpochHook = func(int) { mark() }
	if p != nil {
		net := tappedNet{transport.NewInProc(numWorkers + numServers), p}
		defer net.Close()
		ss.part = &timedPartitioner{Partitioner: partition.Hash{}}
		ss.cfg.Net = net
		ss.cfg.Partitioner = ss.part
		ss.cfg.Tracer = obs.NewTracer(p)
		p.take()
	}
	trainStart := time.Now()
	ss.res, ss.err = core.Train(ss.cfg)
	mark()
	if len(ss.marks) > 1 {
		ss.setup = ss.load + ss.marks[0].Sub(trainStart).Seconds()
	}
	return ss
}

// epochSeconds returns the hook-to-hook wall time of every epoch after
// warm-up. The last epoch is left out: it ends at Train's return, which
// also pulls the final parameters.
func (ss *session) epochSeconds() []float64 {
	var out []float64
	for t := warmup; t+1 < len(ss.marks)-1; t++ {
		out = append(out, ss.marks[t+1].Sub(ss.marks[t]).Seconds())
	}
	return out
}

// check reports why the session's outputs are wrong, or "" when they are
// right: Train succeeded, every epoch ran with a finite loss, and the final
// validation accuracy reaches the workload's floor.
func (ss *session) check(s trainSpec) string {
	if ss.err != nil {
		return fmt.Sprintf("core.Train: %v", ss.err)
	}
	if len(ss.res.Epochs) != s.epochs {
		return fmt.Sprintf("ran %d of %d epochs", len(ss.res.Epochs), s.epochs)
	}
	for t, e := range ss.res.Epochs {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			return fmt.Sprintf("epoch %d loss %v", t, e.Loss)
		}
	}
	if acc := ss.valAcc(); acc < s.floor {
		return fmt.Sprintf("final val_acc %.4f below floor %.4f", acc, s.floor)
	}
	if math.IsNaN(ss.timeToTarget(s.target)) {
		return fmt.Sprintf("val_acc never reached target %.4f", s.target)
	}
	return ""
}

// failedEpochs counts the epochs of the session that did not complete with
// a finite loss.
func (ss *session) failedEpochs(s trainSpec) int {
	if ss.err != nil || ss.res == nil {
		return s.epochs
	}
	bad := s.epochs - len(ss.res.Epochs)
	for _, e := range ss.res.Epochs {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			bad++
		}
	}
	return bad
}

func (ss *session) valAcc() float64 { return ss.res.Epochs[len(ss.res.Epochs)-1].ValAcc }

// timeToTarget is the wall time from the start of epoch 0 to the end of the
// first epoch whose validation accuracy reaches target; NaN if none does.
func (ss *session) timeToTarget(target float64) float64 {
	for t, e := range ss.res.Epochs {
		if e.ValAcc >= target && t+1 < len(ss.marks) {
			return ss.marks[t+1].Sub(ss.marks[0]).Seconds()
		}
	}
	return math.NaN()
}

// wireBytesPerEpoch is the mean bytes on the wire per epoch over whole
// T_tr cycles, so exact-sync and compressed epochs keep their proportion.
func (ss *session) wireBytesPerEpoch() float64 {
	n := len(ss.res.Epochs) / ttr * ttr
	var sum float64
	for _, e := range ss.res.Epochs[:n] {
		sum += float64(e.Bytes)
	}
	return sum / float64(n)
}

// modelledEpochSeconds returns the virtual-clock epoch times after warm-up:
// measured compute divided by the workers plus modelled 1 GbE wire time.
func (ss *session) modelledEpochSeconds() []float64 {
	var out []float64
	for _, e := range ss.res.Epochs[warmup:] {
		out = append(out, e.SimSeconds)
	}
	return out
}

// sameLosses reports whether two sessions' per-epoch losses are bitwise equal.
func sameLosses(a, b *session) bool {
	if a.res == nil || b.res == nil || len(a.res.Epochs) != len(b.res.Epochs) {
		return false
	}
	for t := range a.res.Epochs {
		if math.Float64bits(a.res.Epochs[t].Loss) != math.Float64bits(b.res.Epochs[t].Loss) {
			return false
		}
	}
	return true
}
