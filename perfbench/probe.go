package main

import (
	"sync"
	"time"

	"ecgraph/internal/graph"
	"ecgraph/internal/partition"
	"ecgraph/internal/transport"
)

// probe measures the program's layers from outside: it wraps the seams the
// program already exposes (the transport, the partitioner and the span
// sink) and adds up what crosses them until the next take. Handlers and
// span emitters run on many goroutines at once, hence the mutex.
type probe struct {
	mu      sync.Mutex
	handler map[string]*tally    // RPC method → time inside the responder's handler
	caller  map[string]*tally    // RPC method → caller-side time, calls and payload bytes
	spans   map[spanKey]*float64 // (worker, span name) → seconds
}

// tally accumulates one method's calls. samples holds each call's (or, for
// a CallMulti batch, each batch's) duration in seconds.
type tally struct {
	calls   int
	bytes   int64
	samples []float64
}

func (t *tally) seconds() float64 { return sum(t.samples) }

type spanKey struct {
	pid  int
	name string
}

// window is what the probe saw between two takes.
type window struct {
	handler map[string]*tally
	caller  map[string]*tally
	spans   map[spanKey]*float64
}

func newProbe() *probe {
	p := &probe{}
	p.take()
	return p
}

// take returns everything recorded since the previous take and starts a
// fresh window.
func (p *probe) take() window {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := window{handler: p.handler, caller: p.caller, spans: p.spans}
	p.handler = map[string]*tally{}
	p.caller = map[string]*tally{}
	p.spans = map[spanKey]*float64{}
	return w
}

func (p *probe) record(m map[string]*tally, method string, calls int, d time.Duration, bytes int) {
	t := m[method]
	if t == nil {
		t = &tally{}
		m[method] = t
	}
	t.calls += calls
	t.bytes += int64(bytes)
	t.samples = append(t.samples, d.Seconds())
}

func (p *probe) served(method string, d time.Duration) {
	p.mu.Lock()
	p.record(p.handler, method, 1, d, 0)
	p.mu.Unlock()
}

func (p *probe) called(method string, calls int, d time.Duration, bytes int) {
	p.mu.Lock()
	p.record(p.caller, method, calls, d, bytes)
	p.mu.Unlock()
}

// Add implements obs.SpanSink: the worker's fp{l}/bp{l} spans.
func (p *probe) Add(name, _ string, pid, _ int, _, durSec float64) {
	p.mu.Lock()
	k := spanKey{pid, name}
	s := p.spans[k]
	if s == nil {
		s = new(float64)
		p.spans[k] = s
	}
	*s += durSec
	p.mu.Unlock()
}

// AddInstant implements obs.SpanSink; instants carry no duration.
func (p *probe) AddInstant(string, string, int, int, float64, map[string]interface{}) {}

// tappedNet times every handler a node registers and every call made
// through it. Batches issued with CallMulti go to the inner network's own
// CallMulti, so each call is counted once.
type tappedNet struct {
	transport.Network
	p *probe
}

func (n tappedNet) Register(node int, h transport.Handler) {
	n.Network.Register(node, func(method string, req []byte) ([]byte, error) {
		t0 := time.Now()
		resp, err := h(method, req)
		n.p.served(method, time.Since(t0))
		return resp, err
	})
}

func (n tappedNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	t0 := time.Now()
	resp, err := n.Network.Call(src, dst, method, req)
	n.p.called(method, 1, time.Since(t0), len(req)+len(resp))
	return resp, err
}

func (n tappedNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	t0 := time.Now()
	res := n.Network.CallMulti(src, calls)
	d := time.Since(t0)
	if len(calls) == 0 {
		return res
	}
	bytes := 0
	for i, c := range calls {
		bytes += len(c.Req) + len(res[i].Resp)
	}
	n.p.called(calls[0].Method, len(calls), d, bytes)
	return res
}

// timedPartitioner records how long each Partition call takes.
type timedPartitioner struct {
	partition.Partitioner
	mu      sync.Mutex
	seconds []float64
}

func (t *timedPartitioner) Partition(g *graph.Graph, k int) []int {
	t0 := time.Now()
	a := t.Partitioner.Partition(g, k)
	d := time.Since(t0).Seconds()
	t.mu.Lock()
	t.seconds = append(t.seconds, d)
	t.mu.Unlock()
	return a
}
