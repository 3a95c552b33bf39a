package worker

import (
	"fmt"
	"runtime"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// peerTimeout returns the supervision layer's per-peer straggler deadline
// for calls to j; zero keeps the transport's default timeout. The deadline
// travels inside transport.Call so it applies whether the call runs
// sequentially or inside a concurrent fan-out.
func (w *Worker) peerTimeout(j int) time.Duration {
	if w.cfg.Health != nil {
		return w.cfg.Health.PeerDeadline(j)
	}
	return 0
}

// callPeer routes one ghost exchange with peer j through the transport's
// batch path, so per-peer straggler deadlines apply uniformly.
func (w *Worker) callPeer(j int, method string, req []byte) ([]byte, error) {
	res := w.cfg.Net.CallMulti(w.id, []transport.Call{{
		Dst: j, Method: method, Req: req, Timeout: w.peerTimeout(j),
	}})
	return res[0].Resp, res[0].Err
}

// ghostChannel is one direction of the ghost exchange: getH for the
// forward pass (Alg. 3 on the requesting end), getG for the backward pass
// (Alg. 5). Both directions move the same thing — the ghost rows of one
// layer from every owning peer — and differ only in the state the channel
// carries: the H channel holds the ReqEC-FP requester under SchemeEC and
// the DistGNN delayed caches, the G channel neither (ResEC-BP keeps its
// compensation on the responder).
//
// An exchange runs in two halves. issue resolves proactive skips, encodes
// one call per remaining peer and hands them to the transport's CallMulti
// in one batch; collect merges the results into the layer's ghost operand.
// Only the CallMulti itself ever leaves the epoch goroutine: decode, the EC
// requester state and the degraded bookkeeping run inside collect, walking
// ghostOwner order with rows landing at fixed ghostBase offsets, so the
// operand and every state mutation are the same whatever order the calls
// complete in and whichever epoch mode ran the batch.
//
// When an exchange fails even after the transport's own retries, the
// channel degrades gracefully instead of aborting the epoch: it serves the
// ReqEC-FP linear prediction when it keeps trend state, or the peer's last
// successfully fetched rows, subject to the MaxStaleEpochs bound. Peers
// the supervision layer flags suspect are skipped proactively — the same
// fallback, without waiting out retries — as long as the bound holds.
type ghostChannel struct {
	w      *Worker
	method string // MethodGetH or MethodGetG
	dir    byte   // 'H' or 'G', naming the exchange in errors and traces
	// subsetFlag marks getH's request layout, which carries a flag byte
	// for the delayed path's refresh subset.
	subsetFlag bool
	// req is the ReqEC-FP requester state per [layer][owner]; nil unless
	// this is the H channel under SchemeEC. Its Parse maintains the trend
	// the prediction fallback reads, so the payloads it decodes land dense.
	req [][]*ec.ForwardRequester
	// delayed holds the DistGNN delayed-aggregation cache per layer; nil
	// unless this is the H channel with DelayRounds ≥ 2. Such exchanges
	// are deferred: collect performs the whole refresh inline.
	delayed []*tensor.Matrix
	// last is the degraded-mode state per [layer][owner]; only the epoch
	// goroutine touches it.
	last [][]goodRows
}

// goodRows is the last successful exchange with one owner at one layer and
// the epoch it arrived, which bounds how stale a served fallback may be
// (-1: none yet). A payload that arrived packed is retained packed and
// materialised to rows by the first fallback that needs it. Retained
// payloads are never Released — a pooled reclaim could hand their words to
// a later payload while a degraded epoch still reads them.
type goodRows struct {
	rows   *tensor.Matrix
	packed *compress.Blocked
	epoch  int
}

func newGhostChannel(w *Worker, method string, dir byte, layers, peers int) *ghostChannel {
	c := &ghostChannel{w: w, method: method, dir: dir, last: make([][]goodRows, layers)}
	for l := range c.last {
		c.last[l] = make([]goodRows, peers)
	}
	c.reset()
	return c
}

// reset forgets every last-good payload and empties the delayed caches.
func (c *ghostChannel) reset() {
	for l := range c.last {
		for j := range c.last[l] {
			c.last[l][j] = goodRows{epoch: -1}
		}
	}
	for l := range c.delayed {
		c.delayed[l] = nil
	}
}

// pendingGhost is one issued exchange awaiting its collect.
type pendingGhost struct {
	// deferred marks an exchange with nothing to put on the wire early —
	// no ghosts at all, or the delayed-aggregation cache path — where
	// collect performs the whole fetch inline instead.
	deferred bool
	served   map[int]*tensor.Matrix // peer → skip fallback rows
	callIdx  map[int]int            // peer → index into calls/results
	calls    []transport.Call
	writers  []*transport.Writer
	results  []transport.Result      // set when the batch ran inline
	done     chan []transport.Result // set when the batch was fired
	// Overlap-window accounting: firedAt is stamped before the batch
	// goroutine launches, doneAt by that goroutine just before the channel
	// send (so the collector's read after the receive is race-free).
	firedAt time.Time
	doneAt  time.Time
}

// call performs the batch and releases the pooled request writers.
func (p *pendingGhost) call(w *Worker) []transport.Result {
	results := w.cfg.Net.CallMulti(w.id, p.calls)
	for _, wr := range p.writers {
		wr.Release()
	}
	return results
}

// fire launches the batch asynchronously. The buffered channel means the
// goroutine never blocks on the collector, so error paths that join late
// (or a test that joins much later) cannot leak it.
//
// The Gosched matters: the issuing goroutine is about to enter the overlap
// window's tight matmul/SpMM loops, which have no scheduling points, and
// Go's async preemption only fires after ~10ms — longer than a typical
// window. Without the yield, on a box with few spare Ps the batch goroutine
// (and the per-call fan-out under it) may not reach the wire until the
// collector blocks, serialising the round-trip after the compute it was
// supposed to hide. One yield lets the batch run to its first blocking
// point — each spawned goroutine executes until it parks on I/O or a timer
// — and costs microseconds when Ps are plentiful.
func (p *pendingGhost) fire(w *Worker) {
	if len(p.calls) == 0 {
		return
	}
	p.done = make(chan []transport.Result, 1)
	p.firedAt = time.Now()
	go func() {
		results := p.call(w)
		p.doneAt = time.Now()
		p.done <- results
	}()
	runtime.Gosched()
}

// encodeReq builds the request header common to both directions into a
// pooled writer; the caller must Release it after CallMulti returns.
func (c *ghostChannel) encodeReq(l, t int) *transport.Writer {
	req := transport.GetWriter(16)
	req.Byte(byte(l))
	req.Uint32(uint32(t))
	req.Int32(int32(c.w.id))
	return req
}

// build resolves proactive skips and encodes the (l, t) call per remaining
// peer. Epoch goroutine only: skip resolution reads EC trend state and
// increments the degraded counters.
func (c *ghostChannel) build(l, t int) *pendingGhost {
	w := c.w
	p := &pendingGhost{
		served:  make(map[int]*tensor.Matrix, len(w.ghostOwner)),
		callIdx: make(map[int]int, len(w.ghostOwner)),
	}
	for _, j := range w.ghostOwner {
		if skipped := c.skipFallback(l, t, j); skipped != nil {
			p.served[j] = skipped
			continue
		}
		req := c.encodeReq(l, t)
		if c.subsetFlag {
			req.Byte(0) // no subset
		}
		p.callIdx[j] = len(p.calls)
		p.calls = append(p.calls, transport.Call{
			Dst: j, Method: c.method, Req: req.Bytes(), Timeout: w.peerTimeout(j),
		})
		p.writers = append(p.writers, req)
	}
	return p
}

// issue starts the layer-l exchange of iteration t. With Opts.Overlap the
// batch is fired on a background goroutine, so its wire time hides behind
// the ghost-independent compute before collect; without it the batch runs
// inline here — a strict barrier. The caller must pair it with exactly one
// collect.
func (c *ghostChannel) issue(l, t int) *pendingGhost {
	w := c.w
	if len(w.ghostIDs) == 0 || c.delayed != nil {
		return &pendingGhost{deferred: true}
	}
	p := c.build(l, t)
	if !w.cfg.Opts.Overlap {
		w.callInlineTimed(p)
		return p
	}
	p.fire(w)
	if tr := w.obs.tracer; tr != nil {
		tr.Instant(fmt.Sprintf("issue get%c l%d", c.dir, l), "comm", 1+w.id, 0, time.Now(), nil)
	}
	return p
}

// collect joins an issued exchange and merges it into the layer's ghost
// operand (nil when the worker has no ghosts). A deferred exchange runs
// whole here.
func (c *ghostChannel) collect(p *pendingGhost, l, t int) (*graph.GhostOperand, error) {
	if !p.deferred {
		return c.merge(p, c.w.joinTimed(p), l, t)
	}
	if len(c.w.ghostIDs) == 0 {
		return nil, nil
	}
	m, err := c.fetchDelayed(l, t)
	if err != nil {
		return nil, err
	}
	return graph.NewGhostDense(m), nil
}

// merge decodes the batch results in ghostOwner order and assembles the
// ghost operand, applying the degraded fallback per failed peer. Epoch
// goroutine only. Purely quantised payloads keep their packed wire form
// inside the operand; everything else — raw/sparse payloads, EC trend
// decodes, skip and degraded fallbacks — lands as dense rows. The operand
// is the same under both PackedSpMM settings; only ghostFold differs.
func (c *ghostChannel) merge(p *pendingGhost, results []transport.Result, l, t int) (*graph.GhostOperand, error) {
	w := c.w
	op := graph.NewGhostHybrid(len(w.ghostIDs), w.cfg.Model.Dims[l])
	for _, j := range w.ghostOwner {
		base := w.ghostBase[j]
		if rows := p.served[j]; rows != nil {
			opSetDense(op, base, rows)
			continue
		}
		rows, blk, err := c.decode(l, t, j, results[p.callIdx[j]])
		if err != nil {
			if rows, err = c.degraded(l, t, j, err); err != nil {
				return nil, err
			}
			opSetDense(op, base, rows)
			continue
		}
		c.last[l][j] = goodRows{rows: rows, packed: blk, epoch: t}
		if blk != nil {
			op.SetRowsPacked(base, blk)
		} else {
			opSetDense(op, base, rows)
		}
	}
	return op, nil
}

// opSetDense installs all rows of a dense payload into the operand at its
// ghostBase offset, by reference.
func opSetDense(op *graph.GhostOperand, base int, rows *tensor.Matrix) {
	for r := 0; r < rows.Rows; r++ {
		op.SetRowDense(base+r, rows.Row(r))
	}
}

// decode turns one result from peer j into ghost rows: purely quantised
// payloads come back as a retained *compress.Blocked (rows nil), everything
// else as dense rows (blk nil). The EC requester's Parse always decodes
// dense. Runs on the epoch goroutine only — the per-(layer,owner) EC
// requester state is not goroutine-safe and must never be touched from the
// fan-out. Decode panics — e.g. an EC payload whose trend baseline this
// requester never received because the boundary message was lost — are
// converted to errors so the degraded path can take over.
func (c *ghostChannel) decode(l, t, j int, res transport.Result) (rows *tensor.Matrix, blk *compress.Blocked, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, blk = nil, nil
			err = fmt.Errorf("worker %d: decode get%c(l=%d,t=%d) from %d: %v", c.w.id, c.dir, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, nil, fmt.Errorf("worker %d: get%c(l=%d,t=%d) from %d: %w", c.w.id, c.dir, l, t, j, res.Err)
	}
	if c.req != nil {
		return c.req[l][j].Parse(res.Resp, t), nil, nil
	}
	rows, blk = ec.ParsePacked(res.Resp)
	return rows, blk, nil
}

// withinBound reports whether peer j's last good layer-l exchange is
// recent enough, at iteration t, to serve a fallback under MaxStaleEpochs.
func (c *ghostChannel) withinBound(l, t, j int) bool {
	bound := c.w.cfg.Opts.MaxStaleEpochs
	last := c.last[l][j].epoch
	return bound >= 0 && last >= 0 && t-last <= bound
}

// fallback counts one degraded fetch and returns its rows: the ReqEC-FP
// prediction when the channel keeps trend state and has a baseline, the
// last-good rows otherwise.
func (c *ghostChannel) fallback(l, t, j int) *tensor.Matrix {
	c.w.degraded++
	if c.req != nil {
		if pdt, ok := c.req[l][j].Predict(t); ok {
			return pdt
		}
	}
	return c.lastGood(l, j)
}

// skipFallback returns the degraded rows for peer j when the supervision
// layer flags it suspect and a fallback within the staleness bound exists;
// nil means "call the peer normally" (healthy, no supervision, or the bound
// would be exceeded — the call must then be attempted regardless).
func (c *ghostChannel) skipFallback(l, t, j int) *tensor.Matrix {
	h := c.w.cfg.Health
	if h == nil || !h.SkipPeer(j) || !c.withinBound(l, t, j) {
		return nil
	}
	c.w.skips++
	return c.fallback(l, t, j)
}

// degraded picks the fallback for a failed exchange with peer j, or fails
// the epoch once the staleness bound is exceeded.
func (c *ghostChannel) degraded(l, t, j int, cause error) (*tensor.Matrix, error) {
	if !c.withinBound(l, t, j) {
		return nil, fmt.Errorf("worker %d: ghost %c(l=%d) from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
			c.w.id, c.dir, l, j, t, c.last[l][j].epoch, c.w.cfg.Opts.MaxStaleEpochs, cause)
	}
	return c.fallback(l, t, j), nil
}

// lastGood returns peer j's last successfully fetched rows for layer l,
// materialising a retained packed payload on first use (fallbacks are cold
// paths; the dense form is cached back so repeated degraded epochs pay the
// decode once).
func (c *ghostChannel) lastGood(l, j int) *tensor.Matrix {
	g := &c.last[l][j]
	if g.rows == nil && g.packed != nil {
		g.rows = g.packed.Dense()
	}
	return g.rows
}

// lastGoodRow returns ghost vertex v's row of the layer-l last-good state
// and the epoch it reflects, or (nil, -1) when v is no ghost here or its
// owner group has nothing.
func (c *ghostChannel) lastGoodRow(l int, v int32) ([]float32, int) {
	w := c.w
	pos, ok := w.ghostPos[v]
	if !ok {
		return nil, -1
	}
	for _, j := range w.ghostOwner {
		base := w.ghostBase[j]
		if int(pos) >= base && int(pos) < base+len(w.topo.Needs[w.id][j]) {
			if m := c.lastGood(l, j); m != nil && c.last[l][j].epoch >= 0 {
				return m.Row(int(pos) - base), c.last[l][j].epoch
			}
			break
		}
	}
	return nil, -1
}

// refreshPositions returns, for peer j, the indices within Needs[w][j] that
// are refreshed at epoch t under delay r: vertex u refreshes when
// (u + t) mod r == 0, so each ghost refreshes once every r epochs and the
// refresh load spreads evenly. Epoch 0 refreshes everything (cold cache).
func (w *Worker) refreshPositions(j, t int) []int32 {
	lst := w.topo.Needs[w.id][j]
	if t == 0 {
		all := make([]int32, len(lst))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	r := w.cfg.Opts.DelayRounds
	var out []int32
	for i, u := range lst {
		if (int(u)+t)%r == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// fetchDelayed is the deferred DistGNN exchange: only the epoch's refresh
// subset travels, the rest of the layer-l ghost rows come from the stale
// cache. A suspect or failed peer skips its refresh round within the same
// staleness bound the batched path enforces.
func (c *ghostChannel) fetchDelayed(l, t int) (*tensor.Matrix, error) {
	w := c.w
	cold := c.delayed[l] == nil
	if cold {
		c.delayed[l] = tensor.New(len(w.ghostIDs), w.cfg.Model.Dims[l])
	}
	cache := c.delayed[l]
	for _, j := range w.ghostOwner {
		positions := w.refreshPositions(j, t)
		if cold {
			// First use of this layer's cache — e.g. a resumed run starting
			// at t > 0 — must refresh everything, not just t's subset.
			positions = w.refreshPositions(j, 0)
		}
		if len(positions) == 0 {
			continue
		}
		if w.cfg.Health != nil && w.cfg.Health.SkipPeer(j) && c.withinBound(l, t, j) {
			// Suspect peer: skip this refresh round and keep serving the
			// stale cache; beyond the bound the call is attempted regardless.
			w.degraded++
			w.skips++
			continue
		}
		req := c.encodeReq(l, t)
		req.Byte(1)
		req.Int32s(positions)
		resp, err := w.callPeer(j, c.method, req.Bytes())
		req.Release()
		if err != nil {
			// The cache is already stale-tolerant by design: skip this
			// refresh round and serve the cached rows.
			if !c.withinBound(l, t, j) {
				return nil, fmt.Errorf("worker %d: delayed get%c from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
					w.id, c.dir, j, t, c.last[l][j].epoch, w.cfg.Opts.MaxStaleEpochs, err)
			}
			w.degraded++
			continue
		}
		rows := ec.ParseMatrix(resp)
		base := w.ghostBase[j]
		for r, p := range positions {
			copy(cache.Row(base+int(p)), rows.Row(r))
		}
		c.last[l][j].epoch = t
	}
	return cache, nil
}

// Handler returns the transport handler serving this worker's RPCs. It runs
// on peer goroutines concurrently with RunEpoch; the matStore provides the
// synchronisation, and per-(layer,requester) EC state is guarded by ecMu —
// with pipelined transports one requester's abandoned and fresh attempts
// can overlap here.
func (w *Worker) Handler() transport.Handler {
	return func(method string, req []byte) (resp []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("worker %d: %s: %v", w.id, method, r)
			}
		}()
		r := transport.NewReader(req)
		switch method {
		case MethodGetX:
			requester := int(r.Int32())
			rows := w.pairRows[requester]
			if rows == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			return ec.RespondRaw(w.x.GatherRows(int32sToInts(rows))), nil

		case MethodGetH:
			l := int(r.Byte())
			t := int(r.Uint32())
			requester := int(r.Int32())
			var subset []int32
			if r.Byte() == 1 {
				subset = r.Int32s()
			}
			rows := w.pairRows[requester]
			if rows == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			h := w.hStore.Wait(l, t)
			sel := rows
			if subset != nil {
				sel = make([]int32, len(subset))
				for i, p := range subset {
					sel[i] = rows[p]
				}
			}
			m := h.GatherRows(int32sToInts(sel))
			switch w.cfg.Opts.FPScheme {
			case SchemeRaw:
				w.storeLayerBits(l, 32)
				return ec.RespondRaw(m), nil
			case SchemeCompress:
				bits := w.FPBits()
				w.storeLayerBits(l, bits)
				return ec.RespondCompressOnly(m, bits), nil
			case SchemeEC:
				// Under ecMu: a leaked handler goroutine from an abandoned
				// timed-out attempt may still be in here while supervised
				// recovery resets the responder state.
				w.ecMu.Lock()
				bits := w.fpBitsLocked()
				payload, stats := w.fpResp[l][requester].Respond(m, t, bits)
				w.ecMu.Unlock()
				w.storeLayerBits(l, bits)
				if !stats.Exact {
					w.totalRows.Add(int64(stats.Rows))
					w.predictedRows.Add(int64(stats.Predicted))
					w.obs.selPredicted.Add(float64(stats.Predicted))
					w.obs.selAverage.Add(float64(stats.Average))
					w.obs.selCompressed.Add(float64(stats.Rows - stats.Predicted - stats.Average))
				}
				return payload, nil
			default:
				return nil, fmt.Errorf("worker %d: bad FP scheme %v", w.id, w.cfg.Opts.FPScheme)
			}

		case MethodGetG:
			l := int(r.Byte())
			t := int(r.Uint32())
			requester := int(r.Int32())
			rows := w.pairRows[requester]
			if rows == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			g := w.gStore.Wait(l, t)
			m := g.GatherRows(int32sToInts(rows))
			switch w.cfg.Opts.BPScheme {
			case SchemeRaw:
				return ec.RespondRaw(m), nil
			case SchemeCompress:
				return ec.RespondCompressOnlyGrad(m, w.cfg.Opts.BPBits), nil
			case SchemeEC:
				w.ecMu.Lock()
				payload := w.bpResp[l][requester].Respond(m, w.cfg.Opts.BPBits)
				w.ecMu.Unlock()
				return payload, nil
			case SchemeTopK:
				w.ecMu.Lock()
				payload := w.topkResp[l][requester].Respond(m)
				w.ecMu.Unlock()
				return payload, nil
			default:
				return nil, fmt.Errorf("worker %d: bad BP scheme %v", w.id, w.cfg.Opts.BPScheme)
			}

		case MethodHandoff:
			n, err := w.ImportHandoff(req)
			if err != nil {
				return nil, err
			}
			out := transport.NewWriter(4)
			out.Int32(int32(n))
			return out.Bytes(), nil

		case MethodLogits:
			t := int(r.Uint32())
			ids, logits := w.Logits(t)
			out := transport.NewWriter(8 + len(ids)*4 + len(logits.Data)*4)
			out.Int32s(ids)
			out.Matrix(logits)
			return out.Bytes(), nil

		default:
			return nil, fmt.Errorf("worker %d: unknown method %q", w.id, method)
		}
	}
}

// ResidualNorms returns the current ResEC-BP residual norms per layer
// (summed over requesters); zero-valued when ResEC is off. Used by tests
// and the Theorem-1 diagnostics.
func (w *Worker) ResidualNorms() []float64 {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	L := w.cfg.Model.NumLayers()
	out := make([]float64, L+1)
	for l := 2; l <= L; l++ {
		if w.bpResp[l] == nil {
			continue
		}
		for _, r := range w.bpResp[l] {
			if r != nil {
				out[l] += r.ResidualNorm()
			}
		}
	}
	return out
}
