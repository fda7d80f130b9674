package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/bitset"
	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Run is one program execution in progress: one or more Programs, one
// lane each, swept over the graph together. It exposes iteration-level
// stepping so algorithms can orchestrate multi-phase computations (SCC's
// alternating forward/backward fixpoints, HITS' alternating half-steps).
//
// The implementation realizes all three update strategies in one body,
// exactly as the paper frames them: MPU with Q resident intervals, where
// Q = P degenerates to SPU (no hubs, no attribute I/O) and Q = 0 to DPU
// (every interval via hubs). Each iteration runs:
//
//	row phase     — Algorithm 7 lines 1–16: for every active source
//	                interval, gather into resident accumulators
//	                (SPU-like) and into hubs for on-disk destinations
//	                (ToHub);
//	column phase  — lines 17–26: for every on-disk destination interval,
//	                fold resident-source contributions and hubs, apply,
//	                write back (FromHub);
//	apply phase   — finalize resident intervals and ping-pong swap.
//
// Per-vertex state is laid out lane-minor: curr[v*L+l] is lane l's
// attribute of vertex v, so one decoded sub-shard block feeds all L lanes
// while it is hot in cache. A single-lane run (L = 1) gathers through
// the devirtualized scalar kernels under any strategy, and alone supports
// the frozen-vertex mask and the source-sorted ablation. A fused run
// (L > 1) keeps every interval resident (Q = P, the SPU shape) and
// gathers through the multi-lane kernels of batch_kernels.go; each lane
// still performs its scalar run's floating-point operations in the same
// order, so its result is bit-identical to a single-lane run of its
// program.
//
// Every lane keeps its own frontier (per-interval activity), iteration
// and edge counters, global aggregate, and convergence state; a lane
// whose intervals all go inactive freezes (its values carry forward)
// while siblings continue.
//
// Sub-shard reads flow through the engine's shared block cache with a
// double-buffered prefetch pipeline per phase (see prefetch.go): runs on
// the same store reuse each other's decoded blocks, and misses load in
// the background while the previous batch computes.
type Run struct {
	// fetcher carries the read path (block cache access, prefetch
	// pipeline, fetch tracing); its e field is the owning engine,
	// promoted as r.e.
	fetcher

	// ps holds one program per lane, L = len(ps). aggs, la and laggr are
	// each lane's optional GlobalAggregator, LaneApplier and
	// LaneAggregator; dense marks lanes whose Apply runs every iteration.
	ps    []Program
	L     int
	aggs  []GlobalAggregator
	la    []LaneApplier
	laggr []LaneAggregator
	dense []bool
	zero  float64 // the lanes' shared Sum identity

	dir     Direction
	strat   Strategy
	q       int
	resEnd  uint32
	threads int
	chunk   int

	// hint is the lanes' shared kernel form (KernelGeneric without one).
	// chunkCost is the edge-balanced task size: a gather chunk closes once
	// edges + destinations reaches it (see edgeChunkRanges).
	hint      KernelHint
	chunkCost int

	// useScaled marks a RankSum run: the per-edge division Gather performs
	// is hoisted into scaled[d] (resident vertices, per traversal flag d)
	// and scaledBuf[d] (streamed-interval scratch), holding exactly the
	// operands Gather would use, so the edge loop degenerates to additions.
	// The apply phase refreshes scaled chunk by chunk while the new
	// attributes are cache-hot (scaledReady); the standalone sweep in step
	// only runs when no apply has primed it.
	useScaled   bool
	scaledReady bool
	scaled      [2][]float64
	scaledBuf   [2][]float64

	// nextZeroed records the invariant "r.next holds Zero everywhere":
	// true after a completed step (the apply phase re-zeroes the outgoing
	// curr array cache-hot), false initially and after an aborted step.
	nextZeroed bool

	curr, next []float64 // lane-minor ping-pong arrays over [0, resEnd)
	mask       *bitset.Set

	// active[l][i] is lane l's frontier: interval i has lane-l-active
	// vertices. done/cancelled/laneIters/laneEdges are per-lane run state;
	// cancelReq is written by CancelLane (any goroutine) and folded into
	// done at iteration boundaries.
	active    [][]bool
	done      []bool
	cancelled []bool
	laneIters []int
	laneEdges []int64
	cancelReq []atomic.Bool

	attrs       *storage.AttrStore
	hubs        [2]*storage.HubStore
	hubRowValid [2][]bool

	// ov is the delta-overlay snapshot captured at construction (nil
	// without pending deltas), shared by every lane; ovOut/ovIn are its
	// adjusted degree arrays, and ovHub holds in-memory per-cell partials
	// for overlay edges whose destination interval is on disk (keyed i*P+j
	// per traversal flag).
	ov    Overlay
	ovOut []uint32
	ovIn  []uint32
	ovHub [2]map[int][]float64

	locks []sync.Mutex

	iter     int
	edges    int64 // summed over lanes
	finished bool
	closed   bool

	ctx      context.Context // nil outside StepContext
	progress ProgressFunc

	loadBuf []float64 // reusable interval attr buffer (row phase)
	accBuf  []float64 // reusable column accumulator
	oldBuf  []float64 // reusable column old-attr buffer

	errMu    sync.Mutex
	asyncErr error

	startIO diskio.StatsSnapshot
	started time.Time

	// runSpan is the whole-run trace span (see fetcher for the rest of
	// the trace state); laneSpans cover each lane of a fused run. The
	// ended flags guard against double-ending them.
	runSpan   trace.Span
	runEnded  bool
	laneSpans []trace.Span
	laneEnded []bool
}

// lane0 lists the only lane of a single-lane run.
var lane0 = []int{0}

// NewRun initializes a single-lane run of p over the engine's store in
// direction dir, under the strategy the engine's configuration resolves.
func (e *Engine) NewRun(p Program, dir Direction) (*Run, error) {
	return e.newRun([]Program{p}, dir)
}

// newRun builds a run with one lane per program. Fused runs (more than
// one lane) keep every interval resident.
func (e *Engine) newRun(ps []Program, dir Direction) (*Run, error) {
	if err := e.validateDirection(dir); err != nil {
		return nil, err
	}
	m := e.store.Meta()
	L := len(ps)
	strat, q := SPU, m.P
	if L == 1 {
		strat, q = e.chooseStrategy()
	}
	if e.cfg.Order == SrcSortedCoarse && q < m.P {
		return nil, fmt.Errorf("engine: source-sorted ablation requires SPU (all intervals resident)")
	}
	r := &Run{
		ps:        ps,
		L:         L,
		zero:      ps[0].Zero(),
		dir:       dir,
		strat:     strat,
		q:         q,
		threads:   e.cfg.threads(),
		chunk:     e.cfg.chunk(),
		hint:      commonHint(ps),
		aggs:      make([]GlobalAggregator, L),
		la:        make([]LaneApplier, L),
		laggr:     make([]LaneAggregator, L),
		dense:     make([]bool, L),
		active:    make([][]bool, L),
		done:      make([]bool, L),
		cancelled: make([]bool, L),
		laneIters: make([]int, L),
		laneEdges: make([]int64, L),
		cancelReq: make([]atomic.Bool, L),
		laneEnded: make([]bool, L),
		locks:     make([]sync.Mutex, m.P),
		started:   time.Now(),
		startIO:   e.store.Disk().Stats().Snapshot(),
	}
	r.fetcher.e = e
	if e.cfg.TraceSpans >= 0 {
		name := ps[0].Name()
		if L > 1 {
			name += "-batch"
		}
		r.tr = trace.New(e.cfg.TraceSpans)
		r.runSpan = r.tr.Start(trace.KindRun, name, 0)
		r.iterSpanID.Store(r.runSpan.ID)
		if L > 1 {
			r.laneSpans = make([]trace.Span, L)
			for l := range ps {
				r.laneSpans[l] = r.tr.Start(trace.KindLane, spanName("lane-", l), r.runSpan.ID)
			}
		}
	}
	osp := r.tr.Start(trace.KindOverlay, "overlay-snapshot", r.runSpan.ID)
	if err := r.initOverlay(); err != nil {
		return nil, err
	}
	if r.ov != nil {
		r.tr.End(osp)
	}
	for l, p := range ps {
		r.active[l] = make([]bool, m.P)
		if a, ok := p.(GlobalAggregator); ok {
			r.aggs[l] = a
			if lg, ok := p.(LaneAggregator); ok {
				r.laggr[l] = lg
			}
		}
		if la, ok := p.(LaneApplier); ok {
			r.la[l] = la
		}
		if _, ok := p.(DenseApply); ok || r.aggs[l] != nil {
			r.dense[l] = true
		}
	}
	// One destination costs ~1 unit of task overhead plus one unit per
	// in-edge; 4x the destination-count chunk size keeps task counts
	// comparable to the old chunking on typical sparse cells while
	// splitting hub-heavy ranges by edge mass.
	r.chunkCost = 4 * r.chunk
	// The source-sorted ablation keeps the paper's unmodified per-edge
	// form.
	r.useScaled = r.hint == KernelRankSum && e.cfg.Order != SrcSortedCoarse
	r.resEnd = uint32(q) * m.IntervalSize()
	if r.resEnd > m.NumVertices {
		r.resEnd = m.NumVertices
	}
	// The state arrays come from the engine's pool: their contents are
	// unspecified, so initAttrs fills curr and the first step zeroes next
	// (nextZeroed is false); scaled is written before it is read.
	size := int(r.resEnd) * L
	r.curr = e.getBatchBuf(size)
	r.next = e.getBatchBuf(size)
	dirs := r.dirsUsed()
	if r.useScaled {
		for _, d := range dirs {
			r.scaled[d] = e.getBatchBuf(size)
		}
	}
	if q < m.P {
		maxLen := 0
		for k := 0; k < m.P; k++ {
			maxLen = max(maxLen, m.IntervalLen(k))
		}
		r.loadBuf = make([]float64, maxLen)
		r.accBuf = make([]float64, maxLen)
		r.oldBuf = make([]float64, maxLen)
		if r.useScaled {
			for _, d := range dirs {
				r.scaledBuf[d] = make([]float64, maxLen)
			}
		}
	}

	if err := r.initAttrs(); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.openHubs(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// commonHint resolves the lanes' kernel specialization: the shared hint
// if every lane declares the same one, else generic.
func commonHint(ps []Program) KernelHint {
	h := KernelGeneric
	if fk, ok := ps[0].(FusedKernel); ok {
		h = fk.FusedKernelHint()
	}
	for _, p := range ps[1:] {
		fk, ok := p.(FusedKernel)
		if !ok || fk.FusedKernelHint() != h {
			return KernelGeneric
		}
	}
	return h
}

// dirsUsed lists the transpose flags the run traverses (index 0 =
// forward, 1 = reverse).
func (r *Run) dirsUsed() []int {
	switch r.dir {
	case Forward:
		return []int{0}
	case Reverse:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// degOf returns the source-degree array for a traversal flag,
// overlay-adjusted when a delta snapshot is installed.
func (r *Run) degOf(d int) []uint32 {
	if d == 1 {
		if r.ovIn != nil {
			return r.ovIn
		}
		return r.e.inDeg
	}
	if r.ovOut != nil {
		return r.ovOut
	}
	return r.e.outDeg
}

// primaryDeg is the degree array handed to the GlobalAggregators,
// overlay-adjusted when a delta snapshot is installed.
func (r *Run) primaryDeg() []uint32 {
	if r.dir == Reverse {
		return r.degOf(1)
	}
	return r.degOf(0)
}

func (r *Run) setErr(err error) {
	r.errMu.Lock()
	if r.asyncErr == nil {
		r.asyncErr = err
	}
	r.errMu.Unlock()
}

func (r *Run) takeErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	err := r.asyncErr
	r.asyncErr = nil
	return err
}

// initAttrs runs every lane's Init over every vertex: resident vertices
// in parallel chunks into curr, with interval activity reduced per chunk,
// and on-disk intervals (single-lane runs with Q < P) through the
// attribute store.
func (r *Run) initAttrs() error {
	m := r.e.store.Meta()
	P, L := m.P, r.L
	bounds := chunkRanges(int(r.resEnd), 1<<14)
	act := make([][]bool, len(bounds)-1) // per-chunk [l*P+k] activity
	parallelFor(r.threads, len(bounds)-1, func(c int) {
		local := make([]bool, L*P)
		for v := bounds[c]; v < bounds[c+1]; v++ {
			k := m.IntervalOf(uint32(v))
			for l, p := range r.ps {
				attr, a := p.Init(uint32(v))
				r.curr[v*L+l] = attr
				if a {
					local[l*P+k] = true
				}
			}
		}
		act[c] = local
	})
	for _, local := range act {
		for l := 0; l < L; l++ {
			for k := 0; k < P; k++ {
				if local[l*P+k] {
					r.active[l][k] = true
				}
			}
		}
	}
	if r.q == P {
		return nil
	}
	var err error
	if r.attrs, err = r.e.store.OpenAttrs(); err != nil {
		return err
	}
	for k := r.q; k < P; k++ {
		lo, hi := m.IntervalRange(k)
		buf := r.loadBuf[:hi-lo]
		for v := lo; v < hi; v++ {
			attr, act := r.ps[0].Init(v)
			buf[v-lo] = attr
			if act {
				r.active[0][k] = true
			}
		}
		if err := r.attrs.WriteInterval(k, buf); err != nil {
			return err
		}
	}
	return nil
}

func (r *Run) openHubs() error {
	if r.q == r.e.store.Meta().P {
		return nil
	}
	for _, d := range r.dirsUsed() {
		h, err := r.e.store.OpenHubs(d == 1)
		if err != nil {
			return err
		}
		r.hubs[d] = h
		r.hubRowValid[d] = make([]bool, r.e.store.Meta().P)
	}
	return nil
}

// SetProgress installs a per-iteration progress observer (nil to clear).
// Progress aggregates over the lanes: Edges is the summed per-lane
// traversal count and ActiveIntervals the union frontier size.
func (r *Run) SetProgress(f ProgressFunc) { r.progress = f }

// checkCtx reports the context's error, if any. It is consulted at
// iteration boundaries and between sub-shard batches (rows and columns),
// so cancellation latency is one row/column of gathering, not a whole
// iteration.
func (r *Run) checkCtx() error {
	if r.ctx == nil {
		return nil
	}
	select {
	case <-r.ctx.Done():
		return r.ctx.Err()
	default:
		return nil
	}
}

// notifyProgress reports the completed iteration to the observer.
func (r *Run) notifyProgress() {
	if r.progress == nil {
		return
	}
	n := 0
	for k := range r.e.store.Meta().P {
		for l := range r.ps {
			if !r.done[l] && r.active[l][k] {
				n++
				break
			}
		}
	}
	r.progress(Progress{
		Iteration:       r.iter,
		Edges:           r.edges,
		ActiveIntervals: n,
		Elapsed:         time.Since(r.started),
	})
}

// Strategy returns the resolved update strategy.
func (r *Run) Strategy() Strategy { return r.strat }

// ResidentIntervals returns Q.
func (r *Run) ResidentIntervals() int { return r.q }

// Iterations returns the number of iterations executed so far (the
// maximum over lanes; see LaneIterations for one lane's count).
func (r *Run) Iterations() int { return r.iter }

// SetMask installs a frozen-vertex mask on a single-lane run: masked
// vertices neither emit nor accept updates and keep their attribute.
// Pass nil to clear. The fused kernels take no mask, so installing one
// on a fused run panics.
func (r *Run) SetMask(m *bitset.Set) {
	if m != nil && r.L > 1 {
		panic("engine: SetMask on a fused run")
	}
	r.mask = m
}

// reopen lets every uncancelled lane take part in the next step again.
func (r *Run) reopen() {
	for l := range r.ps {
		r.done[l] = r.cancelled[l]
	}
	r.finished = false
}

// ActivateAll marks every interval active, forcing at least one more full
// iteration.
func (r *Run) ActivateAll() {
	for _, act := range r.active {
		for k := range act {
			act[k] = true
		}
	}
	r.reopen()
}

// ActivateVertex marks the interval owning v active.
func (r *Run) ActivateVertex(v uint32) {
	k := r.e.store.Meta().IntervalOf(v)
	for _, act := range r.active {
		act[k] = true
	}
	r.reopen()
}

// ResetIterations zeroes the iteration counters (the MaxIterations
// budget), for callers that drive multiple phases through one Run.
func (r *Run) ResetIterations() {
	r.iter = 0
	for l := range r.laneIters {
		r.laneIters[l] = 0
	}
	r.reopen()
}

// laneAttrs copies out the attributes of the given lanes, one dense array
// per lane in the order given. The resident part is copied in vertex
// chunks: within a chunk the lane-minor block stays cache-resident while
// each lane's strided reads sweep it, and each lane's writes run
// sequentially. On-disk intervals exist only in single-lane runs.
func (r *Run) laneAttrs(lanes []int) ([][]float64, error) {
	m := r.e.store.Meta()
	L, res := r.L, int(r.resEnd)
	out := make([][]float64, len(lanes))
	for x := range out {
		out[x] = make([]float64, m.NumVertices)
	}
	const chunkV = 1 << 10 // ≈512KiB of lane-minor state per chunk at L=64
	for v0 := 0; v0 < res; v0 += chunkV {
		v1 := min(v0+chunkV, res)
		for x, l := range lanes {
			if L == 1 {
				copy(out[x][v0:v1], r.curr[v0:v1])
				continue
			}
			for v := v0; v < v1; v++ {
				out[x][v] = r.curr[v*L+l]
			}
		}
	}
	for k := r.q; k < m.P && len(out) > 0; k++ {
		lo, hi := m.IntervalRange(k)
		if lo == hi {
			continue
		}
		if err := r.attrs.ReadInterval(k, out[0][lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Attrs returns a snapshot of all vertex attributes of a single-lane run.
func (r *Run) Attrs() ([]float64, error) {
	if r.L != 1 {
		return nil, fmt.Errorf("engine: Attrs on a %d-lane run", r.L)
	}
	out, err := r.laneAttrs(lane0)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SetAttrs overwrites all vertex attributes of a single-lane run.
func (r *Run) SetAttrs(a []float64) error {
	m := r.e.store.Meta()
	if r.L != 1 {
		return fmt.Errorf("engine: SetAttrs on a %d-lane run", r.L)
	}
	if len(a) != int(m.NumVertices) {
		return fmt.Errorf("engine: SetAttrs got %d values, want %d", len(a), m.NumVertices)
	}
	copy(r.curr, a[:r.resEnd])
	r.scaledReady = false
	for k := r.q; k < m.P; k++ {
		lo, hi := m.IntervalRange(k)
		if lo == hi {
			continue
		}
		if err := r.attrs.WriteInterval(k, a[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// Close releases run resources: the state arrays return to the engine's
// pool and the run becomes unusable.
func (r *Run) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.e.putBatchBuf(r.curr, r.next, r.scaled[0], r.scaled[1])
	r.curr, r.next, r.scaled[0], r.scaled[1] = nil, nil, nil, nil
	if r.attrs != nil {
		r.attrs.Close()
	}
	for _, h := range r.hubs {
		if h != nil {
			h.Close()
		}
	}
}

// Trace returns the run's trace, nil when tracing is disabled.
func (r *Run) Trace() *trace.Trace { return r.tr }

// Finish assembles a single-lane run's Result (final attributes plus
// counters); it returns context.Canceled if the lane was cancelled. The
// run remains usable afterwards.
func (r *Run) Finish() (*Result, error) {
	if r.L != 1 {
		return nil, fmt.Errorf("engine: Finish on a %d-lane run; use FinishLanes", r.L)
	}
	res, err := r.FinishLanes()
	if err != nil {
		return nil, err
	}
	if res[0] == nil {
		return nil, context.Canceled
	}
	return res[0], nil
}

// FinishLanes assembles one Result per lane: final attributes plus the
// lane's own iteration and edge counters. Cancelled lanes yield nil. The
// IO snapshot, elapsed time, and trace are shared across the lanes — they
// describe the run that served every lane. The run remains usable
// afterwards.
func (r *Run) FinishLanes() ([]*Result, error) {
	var live []int
	for l := range r.ps {
		r.endLaneSpan(l, "") // lanes still running (fixed-iteration drivers) close here
		if !r.cancelled[l] {
			live = append(live, l)
		}
	}
	attrs, err := r.laneAttrs(live)
	if err != nil {
		return nil, err
	}
	if r.tr != nil && !r.runEnded {
		r.runEnded = true
		r.tr.End(r.runSpan)
	}
	io := r.e.store.Disk().Stats().Snapshot().Sub(r.startIO)
	elapsed := time.Since(r.started)
	out := make([]*Result, r.L)
	for x, l := range live {
		out[l] = &Result{
			Attrs:             attrs[x],
			Iterations:        r.laneIters[l],
			Strategy:          r.strat,
			ResidentIntervals: r.q,
			EdgesTraversed:    r.laneEdges[l],
			IO:                io,
			Elapsed:           elapsed,
			Trace:             r.tr,
		}
	}
	return out, nil
}
