package serve

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// Shard protocol methods. The front coordinates version preparation with
// install/prep/drop; shards fetch each other's rows with rows; batch is
// the per-request inference call.
const (
	methodInstall = "sv.install"
	methodPrep    = "sv.prep"
	methodRows    = "sv.rows"
	methodBatch   = "sv.batch"
	methodDrop    = "sv.drop"
)

const (
	phaseTransform = byte(0)
	phaseAggregate = byte(1)
)

// prepReq encodes one sv.prep request.
func prepReq(version uint32, layer int, phase byte) []byte {
	w := transport.GetWriter(8)
	w.Uint32(version)
	w.Byte(byte(layer))
	w.Byte(phase)
	req := append([]byte(nil), w.Bytes()...)
	w.Release()
	return req
}

// versionState is one installed model version on one shard. h[l] holds the
// owned rows of the post-activation H^l (h[0] = owned features); s[l]
// (1-based) holds the owned rows of layer l's aggregation source — H^{l-1}W
// when the layer shrinks the dimension first, H^{l-1} otherwise, mirroring
// nn.Model.Forward's dim-order branch exactly. After preparation only s[L]
// (what request-time aggregation reads) and h[L-1] (the SAGE self term)
// remain; the rest is freed. ghosts caches the version's remote S^L rows
// by ghost slot and goes away with the version.
type versionState struct {
	model  *nn.Model
	h      []*tensor.Matrix // len L, owned rows
	s      []*tensor.Matrix // len L+1, s[0] unused
	ghosts ghostTable
}

// branchA reports whether layer l (1-based) transforms before aggregating
// (the §III-A message-aggregating optimisation: in-dim > out-dim).
func (st *versionState) branchA(l int) bool {
	return st.model.Dims[l-1] > st.model.Dims[l]
}

// notLocal marks, in shard.index, a vertex the shard neither owns nor
// aggregates from.
const notLocal = math.MinInt32

// shard is one serving replica: it owns a vertex partition, prepares
// per-version layer state under the front's barrier protocol, serves its
// owned rows to peers, and answers batch inference over its owned
// vertices.
type shard struct {
	id  int
	cfg Config
	net transport.Network

	owner []int32 // vertex → shard
	owned []int32 // owned global ids, ascending

	// index is the shard's view of every global id: a value ≥ 0 is the
	// vertex's row in the owned matrices, a value < 0 is ^slot of a ghost,
	// and notLocal marks every other vertex.
	index     []int32
	ownedFeat *tensor.Matrix // owned rows of the feature matrix

	// Ghost topology, fixed at construction: every remote vertex any
	// owned row aggregates from, with a dense slot numbering (ascending
	// global id) and per-peer need lists for the preparation exchange.
	ghostIDs []int32
	needs    map[int][]int32

	// prepCSR is the shard's slice of the global operator in compact
	// columns (owned rows local-indexed, ghosts NOwned+slot), built once
	// and reused by every layer of every version's preparation and by
	// every request-time batch.
	prepCSR *graph.LocalCSR

	// scratch pools the batch path's per-round ghost numbering.
	scratch sync.Pool

	cache   *ghostCache
	metrics *serveMetrics

	mu       sync.RWMutex
	versions map[uint32]*versionState
}

// batchScratch numbers one batch's ghost slots: opRow maps a shard ghost
// slot to its row of the batch's ghost operand (-1 at rest, and for a slot
// that could not be resolved), slots lists the numbered slots in operand
// order.
type batchScratch struct {
	opRow []int32
	slots []int32
}

func newShard(id int, cfg Config, adj *graph.NormAdjacency, owner []int32, net transport.Network) *shard {
	sh := &shard{
		id:       id,
		cfg:      cfg,
		net:      net,
		owner:    owner,
		index:    make([]int32, len(owner)),
		needs:    map[int][]int32{},
		cache:    newGhostCache(cfg.CacheTTL, cfg.CacheMaxStale, cfg.Clock),
		versions: map[uint32]*versionState{},
	}
	for v := range sh.index {
		sh.index[v] = notLocal
		if owner[v] == int32(id) {
			sh.index[v] = int32(len(sh.owned))
			sh.owned = append(sh.owned, int32(v))
		}
	}
	// Mark every remote neighbour, then number the marks in ascending
	// global id.
	const ghostMark = notLocal + 1
	for _, v := range sh.owned {
		for _, c := range adj.ColIdx[adj.RowPtr[v]:adj.RowPtr[v+1]] {
			if sh.index[c] == notLocal {
				sh.index[c] = ghostMark
			}
		}
	}
	for g, x := range sh.index {
		if x == ghostMark {
			sh.index[g] = ^int32(len(sh.ghostIDs))
			sh.ghostIDs = append(sh.ghostIDs, int32(g))
			peer := int(owner[g])
			sh.needs[peer] = append(sh.needs[peer], int32(g))
		}
	}

	nOwned := len(sh.owned)
	rowPtr := make([]int32, nOwned+1)
	var colIdx []int32
	var val []float32
	for i, v := range sh.owned {
		for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
			c := sh.index[adj.ColIdx[p]]
			if c < 0 {
				c = int32(nOwned) + ^c
			}
			colIdx = append(colIdx, c)
			val = append(val, adj.Val[p])
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	sh.prepCSR = graph.NewLocalCSR(nOwned, rowPtr, colIdx, val)

	nGhost := len(sh.ghostIDs)
	sh.scratch.New = func() any {
		sc := &batchScratch{opRow: make([]int32, nGhost)}
		for i := range sc.opRow {
			sc.opRow[i] = -1
		}
		return sc
	}

	rows := make([]int, nOwned)
	for i, v := range sh.owned {
		rows[i] = int(v)
	}
	sh.ownedFeat = cfg.Features.GatherRows(rows)
	return sh
}

// ownedRow returns the owned-matrix row of vertex id.
func (sh *shard) ownedRow(id int32) (int32, error) {
	if id < 0 || int(id) >= len(sh.index) || sh.index[id] < 0 {
		return 0, fmt.Errorf("serve: shard %d: vertex %d not owned", sh.id, id)
	}
	return sh.index[id], nil
}

// handle is the shard's transport handler.
func (sh *shard) handle(method string, req []byte) ([]byte, error) {
	r := transport.NewReader(req)
	switch method {
	case methodInstall:
		return nil, sh.install(r.Uint32(), r.Uint8s())
	case methodPrep:
		return nil, sh.prep(r.Uint32(), int(r.Byte()), r.Byte())
	case methodRows:
		return sh.rows(r.Uint32(), int(r.Byte()), r.Int32s())
	case methodBatch:
		return sh.batch(r.Uint32(), r.Int32s())
	case methodDrop:
		sh.drop(r.Uint32())
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: shard %d: unknown method %q", sh.id, method)
	}
}

func (sh *shard) version(v uint32) (*versionState, error) {
	sh.mu.RLock()
	st := sh.versions[v]
	sh.mu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("serve: shard %d: unknown version %d", sh.id, v)
	}
	return st, nil
}

// install parses the serialised model and allocates the version's state.
func (sh *shard) install(v uint32, modelBytes []byte) error {
	m, err := nn.Load(bytes.NewReader(modelBytes))
	if err != nil {
		return fmt.Errorf("serve: shard %d: decode model: %w", sh.id, err)
	}
	L := m.NumLayers()
	st := &versionState{
		model:  m,
		h:      make([]*tensor.Matrix, L),
		s:      make([]*tensor.Matrix, L+1),
		ghosts: make(ghostTable, len(sh.ghostIDs)),
	}
	st.h[0] = sh.ownedFeat
	sh.mu.Lock()
	sh.versions[v] = st
	sh.mu.Unlock()
	return nil
}

// prep runs one phase of one layer of the preparation protocol. The front
// guarantees the barrier: transform(l) on every shard completes before any
// aggregate(l) starts, so peer fetches always find freshly transformed
// rows; and aggregate(l) everywhere precedes transform(l+1), so freeing
// earlier layers in the final transform is safe.
func (sh *shard) prep(v uint32, l int, phase byte) error {
	st, err := sh.version(v)
	if err != nil {
		return err
	}
	L := st.model.NumLayers()
	if l < 1 || l > L {
		return fmt.Errorf("serve: shard %d: prep layer %d of %d", sh.id, l, L)
	}
	switch phase {
	case phaseTransform:
		if st.branchA(l) {
			st.s[l] = st.h[l-1].MatMul(st.model.Layers[l-1].W)
		} else {
			st.s[l] = st.h[l-1]
		}
		if l == L {
			// Preparation is complete: request-time aggregation reads
			// only s[L] and (for the SAGE self term) h[L-1].
			for i := 0; i < L-1; i++ {
				st.h[i] = nil
			}
			for i := 1; i < L; i++ {
				st.s[i] = nil
			}
		}
		return nil
	case phaseAggregate:
		if l == L {
			return fmt.Errorf("serve: shard %d: final layer aggregates per request", sh.id)
		}
		return sh.aggregate(v, l, st)
	default:
		return fmt.Errorf("serve: shard %d: unknown prep phase %d", sh.id, phase)
	}
}

// aggregate computes the owned rows of H^l from s[l]: fetch the ghost rows
// from their owners, run the split owned/ghost kernels over the shard's
// slice of Â, apply the layer's dense transform, self term and bias, and
// ReLU (aggregate is never called for the final layer).
func (sh *shard) aggregate(v uint32, l int, st *versionState) error {
	ghost, err := sh.fetchPrepGhost(v, l, st.s[l].Cols)
	if err != nil {
		return err
	}
	agg := tensor.New(len(sh.owned), st.s[l].Cols)
	sh.prepCSR.SpMMOwnedInto(st.s[l], agg)
	sh.prepCSR.SpMMGhostInto(ghost, agg)
	layer := st.model.Layers[l-1]
	z := agg
	if !st.branchA(l) {
		z = agg.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		z.AddInPlace(st.h[l-1].MatMul(layer.WSelf))
	}
	z.AddRowVector(layer.Bias)
	st.h[l] = z.ReLU()
	return nil
}

// fetchPrepGhost gathers every ghost row of s[l] from the owning peers.
// Preparation exchanges raw rows and treats any peer failure as fatal —
// version state must be exact, degraded rows are a request-time-only
// concession.
func (sh *shard) fetchPrepGhost(v uint32, l, cols int) (*tensor.Matrix, error) {
	if len(sh.ghostIDs) == 0 {
		return nil, nil
	}
	ghost := tensor.New(len(sh.ghostIDs), cols)
	calls := make([]transport.Call, 0, len(sh.needs))
	peers := make([]int, 0, len(sh.needs))
	for peer, ids := range sh.needs {
		w := transport.GetWriter(9 + 4*len(ids))
		w.Uint32(v)
		w.Byte(byte(l))
		w.Int32s(ids)
		calls = append(calls, transport.Call{Dst: peer, Method: methodRows, Req: append([]byte(nil), w.Bytes()...)})
		peers = append(peers, peer)
		w.Release()
	}
	for ci, res := range sh.net.CallMulti(sh.id, calls) {
		peer := peers[ci]
		if res.Err != nil {
			return nil, fmt.Errorf("serve: shard %d: prep fetch from %d: %w", sh.id, peer, res.Err)
		}
		rows := ec.ParseMatrix(res.Resp)
		for i, id := range sh.needs[peer] {
			ghost.SetRow(int(^sh.index[id]), rows.Row(i))
		}
	}
	return ghost, nil
}

// rows serves owned rows of s[layer] to a peer (preparation) or to a
// serving replica's ghost cache (layer L at request time). Final-layer
// rows optionally ride the quantised ec wire format; preparation always
// gets raw rows.
func (sh *shard) rows(v uint32, l int, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	if l < 1 || l > st.model.NumLayers() || st.s[l] == nil {
		return nil, fmt.Errorf("serve: shard %d: no rows for version %d layer %d", sh.id, v, l)
	}
	rows := make([]int, len(ids))
	for i, id := range ids {
		li, err := sh.ownedRow(id)
		if err != nil {
			return nil, err
		}
		rows[i] = int(li)
	}
	sub := st.s[l].GatherRows(rows)
	if l == st.model.NumLayers() && sh.cfg.WireBits < 32 {
		return ec.RespondCompressOnly(sub, sh.cfg.WireBits), nil
	}
	return ec.RespondRaw(sub), nil
}

// drop frees a version's state, its cached ghost rows included.
func (sh *shard) drop(v uint32) {
	sh.mu.Lock()
	delete(sh.versions, v)
	sh.mu.Unlock()
}

// cacheSize counts the cached ghost rows across installed versions.
func (sh *shard) cacheSize() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for _, st := range sh.versions {
		n += st.ghosts.size()
	}
	return n
}

// batch answers inference for a batch of owned vertices: aggregate the
// vertices' rows of the shard's prebuilt operator over s[L] (ghost rows via
// the version's cache), apply the final dense transform, and return
// per-vertex logits with an ok flag each.
func (sh *shard) batch(v uint32, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	logits, flags, err := sh.batchLogits(v, st, ids)
	if err != nil {
		return nil, err
	}
	w := transport.GetWriter(8 + len(flags) + 4*len(logits.Data))
	w.Uint8s(flags)
	w.Matrix(logits)
	resp := append([]byte(nil), w.Bytes()...)
	w.Release()
	return resp, nil
}

// batchLogits reads the batch's rows of prepCSR in place: owned columns
// address s[L] directly, ghost columns address a ghost operand holding
// only the slots the batch reads. Each row accumulates exactly as
// preparation's split kernels would (owned entries in storage order, then
// ghosts in ascending slot), so a vertex's logits are a function of the
// version and the vertex alone, not of the batch it rides in.
func (sh *shard) batchLogits(v uint32, st *versionState, ids []int32) (*tensor.Matrix, []byte, error) {
	L := st.model.NumLayers()
	src := st.s[L]
	if src == nil {
		return nil, nil, fmt.Errorf("serve: shard %d: version %d not prepared", sh.id, v)
	}
	rows := make([]int32, len(ids))
	for bi, id := range ids {
		li, err := sh.ownedRow(id)
		if err != nil {
			return nil, nil, err
		}
		rows[bi] = li
	}

	sc := sh.scratch.Get().(*batchScratch)
	defer func() {
		for _, s := range sc.slots {
			sc.opRow[s] = -1
		}
		sc.slots = sc.slots[:0]
		sh.scratch.Put(sc)
	}()
	nOwned := int32(len(sh.owned))
	for _, r := range rows {
		for _, c := range sh.prepCSR.GhostCols(int(r)) {
			if s := c - nOwned; sc.opRow[s] < 0 {
				sc.opRow[s] = int32(len(sc.slots))
				sc.slots = append(sc.slots, s)
			}
		}
	}
	ghost, nFailed := sh.resolveGhosts(v, st, sc, src.Cols)
	agg := tensor.New(len(rows), src.Cols)
	sh.prepCSR.SpMMRowsInto(rows, src, ghost, sc.opRow, agg)

	layer := st.model.Layers[L-1]
	logits := agg
	if !st.branchA(L) {
		logits = agg.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		selfRows := make([]int, len(rows))
		for bi, r := range rows {
			selfRows[bi] = int(r)
		}
		logits.AddInPlace(st.h[L-1].GatherRows(selfRows).MatMul(layer.WSelf))
	}
	logits.AddRowVector(layer.Bias)

	flags := make([]byte, len(rows))
	for bi, r := range rows {
		flags[bi] = 1
		if nFailed == 0 {
			continue
		}
		for _, c := range sh.prepCSR.GhostCols(int(r)) {
			if sc.opRow[c-nOwned] < 0 {
				flags[bi] = 0
				row := logits.Row(bi)
				for j := range row {
					row[j] = 0
				}
				break
			}
		}
	}
	return logits, flags, nil
}

// pendingGhost is one cache miss awaiting its refetch: operand row k,
// shard ghost slot, and the expired entry to fall back on.
type pendingGhost struct {
	k, slot  int32
	lastGood *cacheEntry
	age      time.Duration
}

// resolveGhosts builds the batch's ghost operand: row k holds ghost slot
// sc.slots[k] of the version's S^L, from the version's cache table or
// refetched from the owning peer. The batch reads the clock at most once
// (never at TTL 0) and adds to the hit and miss counters once. A failed
// refetch falls back to the last-good row within the staleness bound
// (served degraded); a slot beyond every bound is marked failed in
// sc.opRow (-1), contributes nothing, and is counted in the result so its
// dependents answer per-vertex errors. With PackedSpMM, rows that arrive
// quantised stay packed in the cache and the operand; otherwise every row
// is decoded on arrival.
func (sh *shard) resolveGhosts(v uint32, st *versionState, sc *batchScratch, cols int) (*graph.GhostOperand, int) {
	if len(sc.slots) == 0 {
		return nil, 0
	}
	ghost := graph.NewGhostHybrid(len(sc.slots), cols)
	now := sh.cache.clock()
	var byPeer [][]pendingGhost
	misses := 0
	for k, s := range sc.slots {
		fresh, lastGood, age := sh.cache.lookup(st.ghosts, s, now)
		if fresh != nil {
			setGhostRow(ghost, k, fresh)
			continue
		}
		if byPeer == nil {
			byPeer = make([][]pendingGhost, sh.cfg.Shards)
		}
		peer := sh.owner[sh.ghostIDs[s]]
		byPeer[peer] = append(byPeer[peer], pendingGhost{k: int32(k), slot: s, lastGood: lastGood, age: age})
		misses++
	}
	sh.metrics.cacheHit.Add(float64(len(sc.slots) - misses))
	if misses == 0 {
		return ghost, 0
	}
	sh.metrics.cacheMiss.Add(float64(misses))

	var calls []transport.Call
	var peers []int
	for peer, pend := range byPeer {
		if len(pend) == 0 {
			continue
		}
		w := transport.GetWriter(9 + 4*len(pend))
		w.Uint32(v)
		w.Byte(byte(st.model.NumLayers()))
		w.Uint32(uint32(len(pend)))
		for _, p := range pend {
			w.Int32(sh.ghostIDs[p.slot])
		}
		calls = append(calls, transport.Call{Dst: peer, Method: methodRows, Req: append([]byte(nil), w.Bytes()...)})
		peers = append(peers, peer)
		w.Release()
	}
	failed := 0
	for ci, res := range sh.net.CallMulti(sh.id, calls) {
		pend := byPeer[peers[ci]]
		if res.Err == nil {
			var rows *tensor.Matrix
			var blk *compress.Blocked
			if sh.cfg.PackedSpMM {
				rows, blk = ec.ParsePacked(res.Resp)
			} else {
				rows = ec.ParseMatrix(res.Resp)
			}
			for i, p := range pend {
				e := &cacheEntry{pb: blk, pr: i, fetched: now}
				if blk == nil {
					e = &cacheEntry{row: rows.Row(i), fetched: now}
				}
				st.ghosts[p.slot].Store(e)
				setGhostRow(ghost, int(p.k), e)
			}
			continue
		}
		// Degraded fetch: the peer is down or slow. Serve the last-good
		// row if it is within the staleness bound, fail the slot
		// otherwise — same policy the training exchange applies to ghost
		// embeddings (DESIGN.md §12). A packed last-good entry
		// materialises per use (fallbacks are cold).
		sh.metrics.cacheDegraded.Inc()
		for _, p := range pend {
			if sh.cache.usableStale(p.lastGood, p.age) {
				sh.metrics.cacheStale.Inc()
				ghost.SetRowDense(int(p.k), p.lastGood.denseRow())
			} else {
				sc.opRow[p.slot] = -1
				failed++
			}
		}
	}
	return ghost, failed
}

// setGhostRow installs a cache entry as operand row k, by reference.
func setGhostRow(ghost *graph.GhostOperand, k int, e *cacheEntry) {
	if e.pb != nil {
		ghost.SetRowPacked(k, e.pb, e.pr)
	} else {
		ghost.SetRowDense(k, e.row)
	}
}
