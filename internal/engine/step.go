package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// Step executes one iteration (Algorithm 1's repeat body) across every
// unfinished lane. It returns false when the computation has terminated:
// every lane converged (all its intervals inactive) or cancelled, or the
// MaxIterations budget exhausted.
func (r *Run) Step() (bool, error) {
	return r.step()
}

// StepContext is Step with cancellation of the whole run: ctx is
// consulted before the iteration and between sub-shard batches (each row
// of the row phase, each destination interval of the column phase). On
// cancellation it returns ctx.Err() without corrupting run state; the run
// may not be stepped further, but the engine and store remain reusable.
// Per-lane cancellation is CancelLane, observed at iteration boundaries.
func (r *Run) StepContext(ctx context.Context) (bool, error) {
	if ctx != nil && ctx != context.Background() {
		r.ctx = ctx
		defer func() { r.ctx = nil }()
	}
	return r.step()
}

func (r *Run) step() (bool, error) {
	if r.closed {
		return false, fmt.Errorf("engine: Step on closed run")
	}
	if r.finished {
		return false, nil
	}
	if err := r.checkCtx(); err != nil {
		return false, err
	}
	// Fold lane-cancellation requests, then retire converged lanes; the
	// remaining lanes participate in this iteration.
	for l := range r.ps {
		if !r.done[l] && r.cancelReq[l].Load() {
			r.done[l], r.cancelled[l] = true, true
			r.endLaneSpan(l, "cancelled")
		}
	}
	if max := r.e.cfg.MaxIterations; max > 0 && r.iter >= max {
		r.finishAll()
		return false, nil
	}
	var lanes []int
	for l := range r.ps {
		if r.done[l] {
			continue
		}
		if !r.laneHasWork(l) {
			r.done[l] = true
			r.endLaneSpan(l, "")
			continue
		}
		lanes = append(lanes, l)
	}
	if len(lanes) == 0 {
		r.finished = true
		return false, nil
	}

	m := r.e.store.Meta()
	P, Q := m.P, r.q
	dirs := r.dirsUsed()

	// Open the iteration span and reset the per-iteration counters the
	// prefetch goroutines and batch waits accumulate into.
	var iterSpan trace.Span
	var iterIO diskio.StatsSnapshot
	var edges0 int64
	if r.tr != nil {
		iterSpan = r.tr.Start(trace.KindIteration, spanName("iter-", r.iter), r.runSpan.ID)
		r.iterSpanID.Store(iterSpan.ID)
		r.iterHits.Store(0)
		r.iterMisses.Store(0)
		r.stallNS = 0
		iterIO = r.e.store.Disk().Stats().Snapshot()
		edges0 = r.edges
	}

	// InitializeIteration: the resident accumulators must hold Zero.
	// After a completed step this is already true — the apply phase
	// re-zeroes the outgoing attribute array while its cache lines are
	// hot (see applyResident) — so the sweep below only runs on the first
	// step and after an aborted one.
	if !r.nextZeroed {
		bounds := chunkRanges(len(r.next), 1<<16)
		parallelFor(r.threads, len(bounds)-1, func(c int) {
			zeroSlab(r.next[bounds[c]:bounds[c+1]], r.zero)
		})
	}
	r.nextZeroed = false

	// RankSum division hoist: the apply phase refreshes the scaled view
	// of the resident attributes in place; the standalone sweep only runs
	// when no apply has primed it.
	if r.useScaled && !r.scaledReady {
		for _, d := range dirs {
			sc, deg := r.scaled[d], r.degOf(d)
			bounds := chunkRanges(int(r.resEnd), 1<<13)
			parallelFor(r.threads, len(bounds)-1, func(c int) {
				v0, v1 := bounds[c]*r.L, bounds[c+1]*r.L
				refreshScaled(sc[v0:v1], r.curr[v0:v1], uint32(bounds[c]), deg, r.L)
			})
		}
	}
	r.scaledReady = false

	// Global aggregates over current attributes (resident part now,
	// on-disk intervals as the row phase streams them through memory).
	aggVals := r.residentAggregates(lanes)

	// Row phase: SPU-like updates into resident accumulators, ToHub for
	// on-disk destinations (Algorithm 7 lines 1-16). Each row's blocks
	// are pinned by the prefetch pipeline one row ahead, so row i's
	// gathering overlaps row i+1's reads; each decoded block is gathered
	// into every participating lane before the next block.
	rowPipe := r.newPipeline(r.rowPlans(dirs, lanes))
	defer rowPipe.drain()
	rowLanes := make([]int, 0, len(lanes))
	for i := 0; i < P; i++ {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		rowLanes = rowLanes[:0]
		for _, l := range lanes {
			if r.active[l][i] {
				rowLanes = append(rowLanes, l)
			}
		}
		if i < Q {
			if len(rowLanes) == 0 {
				continue
			}
			if err := r.processRow(i, r.srcViews(), dirs, rowLanes, rowPipe.take(i)); err != nil {
				return false, err
			}
			continue
		}
		// An on-disk source interval: only single-lane runs have Q < P.
		srcActive := len(rowLanes) > 0
		for _, d := range dirs {
			r.hubRowValid[d][i] = srcActive
		}
		if !srcActive && r.aggs[0] == nil {
			continue
		}
		lo, hi := m.IntervalRange(i)
		buf := r.loadBuf[:hi-lo]
		if err := r.attrs.ReadInterval(i, buf); err != nil {
			return false, err
		}
		if r.aggs[0] != nil {
			aggVals[0] = r.aggFold(0, aggVals[0], buf, lo)
		}
		if !srcActive {
			continue
		}
		var src [2]view
		for _, d := range dirs {
			src[d] = view{buf, lo}
			if r.useScaled {
				sbuf := r.scaledBuf[d][:hi-lo]
				refreshScaled(sbuf, buf, lo, r.degOf(d), 1)
				src[d] = view{sbuf, lo}
			}
		}
		if err := r.processRow(i, src, dirs, rowLanes, rowPipe.take(i)); err != nil {
			return false, err
		}
	}
	for _, l := range lanes {
		if a := r.aggs[l]; a != nil {
			a.SetGlobal(aggVals[l])
		}
	}

	activeNext := make([][]bool, r.L)
	for _, l := range lanes {
		activeNext[l] = make([]bool, P)
	}

	// Column phase: FromHub plus resident-source gathering for on-disk
	// destination intervals (Algorithm 7 lines 17-26), pipelined like the
	// row phase (the column-major reads are the seekiest of the step).
	// The loop iterates the plans themselves, so the pipeline's
	// consume-in-plan-order contract holds by construction.
	colPlans := r.colPlans(dirs)
	colPipe := r.newPipeline(colPlans)
	defer colPipe.drain()
	for _, plan := range colPlans {
		if err := r.checkCtx(); err != nil {
			return false, err
		}
		changed, err := r.processColumn(plan.id, dirs, plan.touched, colPipe.take(plan.id))
		if err != nil {
			return false, err
		}
		activeNext[0][plan.id] = changed
	}

	// Apply phase for resident intervals, then ping-pong swap.
	applySpan := r.tr.Start(trace.KindApply, "apply-resident", iterSpan.ID)
	r.applyResident(lanes, activeNext)
	r.tr.End(applySpan)
	r.curr, r.next = r.next, r.curr
	r.nextZeroed = true         // apply tasks re-zeroed what is now r.next
	r.scaledReady = r.useScaled // and refreshed scaled from the new r.curr
	for _, l := range lanes {
		r.active[l] = activeNext[l]
		r.laneIters[l]++
	}
	r.iter++
	r.notifyProgress()

	if r.tr != nil {
		dur := r.tr.End(iterSpan)
		io := r.e.store.Disk().Stats().Snapshot().Sub(iterIO)
		stall := time.Duration(r.stallNS)
		compute := dur - stall
		if compute < 0 {
			compute = 0
		}
		r.tr.AddStep(trace.StepStats{
			Iteration:    r.iter - 1,
			Edges:        r.edges - edges0,
			BlocksHit:    r.iterHits.Load(),
			BlocksMiss:   r.iterMisses.Load(),
			BytesRead:    io.BytesRead,
			BytesWritten: io.BytesWritten,
			StallUS:      stall.Microseconds(),
			ComputeUS:    compute.Microseconds(),
			DurUS:        dur.Microseconds(),
		})
		r.iterSpanID.Store(r.runSpan.ID)
	}
	return true, nil
}

// laneHasWork reports whether lane l has any active interval.
func (r *Run) laneHasWork(l int) bool {
	for _, a := range r.active[l] {
		if a {
			return true
		}
	}
	return false
}

// finishAll retires every remaining lane (MaxIterations exhaustion).
func (r *Run) finishAll() {
	for l := range r.ps {
		if !r.done[l] {
			r.done[l] = true
			r.endLaneSpan(l, "")
		}
	}
	r.finished = true
}

// countEdges charges one visited cell's edge count to every
// participating lane, so per-lane EdgesTraversed matches a single-lane
// run of that lane.
func (r *Run) countEdges(lanes []int, n int64) {
	r.edges += n * int64(len(lanes))
	for _, l := range lanes {
		r.laneEdges[l] += n
	}
}

// subShardInfosFor returns the sub-shard index for a traversal flag.
func (r *Run) subShardInfosFor(d int) []storage.SubShardInfo {
	m := r.e.store.Meta()
	if d == 1 {
		return m.TSubShards
	}
	return m.SubShards
}

// processRow executes row i of the sub-shard matrix for the given lanes,
// with src[d] the source attributes of traversal flag d (read by the
// single-lane kernels; fused kernels read the lane-minor arrays):
// destinations in resident intervals accumulate into r.next; destinations
// in on-disk intervals are gathered into hubs (ToHub). blocks is the
// row's prefetched batch; processRow owns it — blocks stay pinned until
// every gather task has run, then the whole batch releases. Within one
// replica's row, distinct destination ranges never overlap, so callback
// mode runs each group lock-free; groups that can collide on a
// destination (forward vs transposed replica, base vs overlay) are
// separated by barriers — see the scheduling comment below.
func (r *Run) processRow(i int, src [2]view, dirs, lanes []int, blocks *fetchBatch) error {
	defer blocks.release()
	if err := r.waitBatch(blocks, "row-", i); err != nil {
		return err
	}
	if r.tr != nil {
		gsp := r.tr.Start(trace.KindGather, spanName("row-", i), r.iterSpanID.Load())
		defer r.tr.End(gsp)
	}
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	jmax := P
	if i < Q {
		jmax = Q // SS[i][j>=Q] with resident source is handled by the column phase
	}
	// Tasks are scheduled in conflict-free groups. Hub-side tasks
	// (j >= Q) write private per-cell value arrays and can run with
	// anything. Resident-destination gathers (j < Q) fold into the
	// shared r.next accumulator: within one replica's row the distinct
	// destination ranges are disjoint (the §III-D invariant), but the
	// forward and transposed replicas — and a cell's base sub-shard vs
	// its overlay cell — can hit the same destination vertex, so each
	// (replica, base|overlay) group gets its own barrier. Forward-only
	// runs without deltas still execute exactly one parallelFor.
	acc := view{r.next, 0}
	var free []func()           // hub-side: no shared accumulator
	var resident [2][2][]func() // [traversal flag][0 = base, 1 = overlay]
	for _, d := range dirs {
		infos := r.subShardInfosFor(d)
		for j := 0; j < jmax; j++ {
			base := infos[i*P+j].Edges > 0
			ovc := r.ovCell(d, i, j)
			if !base && ovc == nil {
				continue
			}
			if r.e.cfg.Order == SrcSortedCoarse { // single-lane, no overlay
				flat, err := r.batchFlat(blocks, cellID{d, i, j, true})
				if err != nil {
					return err
				}
				r.countEdges(lanes, int64(len(flat.srcs)))
				lock := &r.locks[j]
				p, dd, sv := r.ps[0], r.degOf(d), src[d]
				f := scalarFoldFor(r.hint, false, flat.ws != nil)
				free = append(free, func() { // interval lock serializes
					lock.Lock()
					if !gatherSrcSortedSpec(f, dd, r.mask, flat, sv, acc) {
						gatherSrcSorted(p, dd, r.mask, flat, sv, acc)
					}
					lock.Unlock()
				})
				continue
			}
			del := r.cellDel(d, i, j)
			if j < Q {
				lock := &r.locks[j]
				if base {
					ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
					if err != nil {
						return err
					}
					r.countEdges(lanes, int64(ss.NumEdges()))
					resident[d][0] = append(resident[d][0], r.cellTasks(ss, d, del, src[d], acc, nil, lanes, lock, nil)...)
				}
				if ovc != nil {
					r.countEdges(lanes, int64(ovc.NumEdges()))
					resident[d][1] = append(resident[d][1], r.cellTasks(ovc, d, nil, src[d], acc, nil, lanes, lock, nil)...)
				}
				continue
			}
			if base {
				// ToHub: gather partials into a value array and write hub
				// H[i][j] once the last chunk completes (the callback
				// mechanism).
				ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
				if err != nil {
					return err
				}
				r.countEdges(lanes, int64(ss.NumEdges()))
				vals := make([]float64, ss.NumDsts())
				hub := r.hubs[d]
				write := func() {
					if err := hub.Write(i, j, ss.Dsts, vals); err != nil {
						r.setErr(err)
					}
				}
				free = append(free, r.cellTasks(ss, d, del, src[d], view{}, vals, lanes, nil, write)...)
			}
			if ovc != nil {
				// Overlay contributions to an on-disk destination
				// interval accumulate in memory (the hub file's regions
				// are sized from the base meta); the column phase folds
				// them alongside the disk hub.
				r.countEdges(lanes, int64(ovc.NumEdges()))
				free = append(free, r.cellTasks(ovc, d, nil, src[d], view{}, r.ovHubVals(d, i, j, ovc), lanes, nil, nil)...)
			}
		}
	}
	first := true
	for _, d := range dirs {
		for _, g := range resident[d] {
			if first {
				g = append(g, free...) // fold free tasks into the first barrier
				free = nil
				first = false
			}
			if len(g) == 0 {
				continue
			}
			parallelFor(r.threads, len(g), func(t int) { g[t]() })
		}
	}
	parallelFor(r.threads, len(free), func(t int) { free[t]() }) // no resident groups ran
	return r.takeErr()
}

// cellTasks builds the fine-grained (callback) or interval-locked (lock)
// tasks that fold sub-shard ss of traversal flag d for the given lanes:
// into the dense accumulator acc, or — when hub is non-nil — into hub's
// per-destination partials (ToHub). del is the overlay tombstone
// predicate for base sub-shards (nil for overlay cells and cells without
// pending removals). lock, when non-nil, serializes the cell's
// destination interval in lock mode; done, when non-nil, runs once after
// the cell's last task. Chunk boundaries balance edges, not
// destinations, so a hub destination does not serialize its whole
// chunk's worth of sparse neighbours behind it.
func (r *Run) cellTasks(ss *storage.SubShard, d int, del delPred, src, acc view, hub []float64, lanes []int, lock *sync.Mutex, done func()) []func() {
	gather := r.cellKernel(ss, d, del, src, acc, hub, lanes)
	if r.e.cfg.Sync == Lock {
		return []func(){func() {
			if lock != nil {
				lock.Lock()
				defer lock.Unlock()
			}
			gather(0, ss.NumDsts())
			if done != nil {
				done()
			}
		}}
	}
	bounds := edgeChunkRanges(ss.Offsets, r.chunkCost)
	var pending atomic.Int32
	pending.Store(int32(len(bounds) - 1))
	tasks := make([]func(), 0, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		k0, k1 := bounds[c], bounds[c+1]
		tasks = append(tasks, func() {
			gather(k0, k1)
			if done != nil && pending.Add(-1) == 0 {
				done()
			}
		})
	}
	return tasks
}

// cellKernel picks the gather loop for one cell, by lane count first: a
// fused run takes the multi-lane kernels of batch_kernels.go; a
// single-lane run takes the devirtualized fold its kernel hint pins (see
// scalar_kernels.go), or the generic per-edge Program dispatch.
func (r *Run) cellKernel(ss *storage.SubShard, d int, del delPred, src, acc view, hub []float64, lanes []int) func(k0, k1 int) {
	deg := r.degOf(d)
	if r.L > 1 {
		lanes = append([]int(nil), lanes...) // the caller reuses its slice per row
		sc := r.scaled[d]
		return func(k0, k1 int) { r.gatherCell(ss, deg, sc, del, lanes, k0, k1) }
	}
	if f := scalarFoldFor(r.hint, r.useScaled, ss.Weights != nil); f != foldNone {
		return func(k0, k1 int) { gatherSpec(f, deg, r.mask, del, ss, src, acc, hub, k0, k1) }
	}
	p := r.ps[0]
	if hub != nil {
		return func(k0, k1 int) { gatherToHub(p, deg, r.mask, del, ss, src, hub, k0, k1) }
	}
	return func(k0, k1 int) { gatherCSR(p, deg, r.mask, del, ss, src, acc, k0, k1) }
}

// columnTouched reports whether any contribution can reach on-disk
// destination interval j this iteration.
func (r *Run) columnTouched(j int, dirs []int) bool {
	P, Q := r.e.store.Meta().P, r.q
	for _, d := range dirs {
		infos := r.subShardInfosFor(d)
		for i := 0; i < Q; i++ {
			if r.active[0][i] && r.cellHasEdges(d, i, j) {
				return true
			}
		}
		for i := Q; i < P; i++ {
			if r.hubRowValid[d][i] && (infos[i*P+j].Dsts > 0 || r.ovCell(d, i, j) != nil) {
				return true
			}
		}
	}
	return false
}

// processColumn runs the FromHub side for on-disk destination interval j
// of a single-lane run: gather resident-source sub-shards, fold hubs,
// apply, and persist. blocks is the column's prefetched batch;
// processColumn owns it.
func (r *Run) processColumn(j int, dirs []int, touched bool, blocks *fetchBatch) (bool, error) {
	defer blocks.release()
	if err := r.waitBatch(blocks, "col-", j); err != nil {
		return false, err
	}
	if r.tr != nil {
		gsp := r.tr.Start(trace.KindGather, spanName("col-", j), r.iterSpanID.Load())
		defer r.tr.End(gsp)
	}
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	lo, hi := m.IntervalRange(j)
	if lo == hi {
		return false, nil
	}
	acc := r.accBuf[:hi-lo]
	fill(acc, r.zero)
	accV := view{acc, lo}
	if touched {
		for _, d := range dirs {
			infos := r.subShardInfosFor(d)
			gather := func(ss *storage.SubShard, del delPred) {
				r.countEdges(lane0, int64(ss.NumEdges()))
				tasks := r.cellTasks(ss, d, del, r.srcViews()[d], accV, nil, lane0, &r.locks[j], nil)
				parallelFor(r.threads, len(tasks), func(t int) { tasks[t]() })
			}
			for i := 0; i < Q; i++ {
				if !r.active[0][i] {
					continue
				}
				if infos[i*P+j].Edges > 0 {
					ss, err := r.batchSubShard(blocks, cellID{d, i, j, false})
					if err != nil {
						return false, err
					}
					gather(ss, r.cellDel(d, i, j))
				}
				if ovc := r.ovCell(d, i, j); ovc != nil {
					gather(ovc, nil)
				}
			}
			for i := Q; i < P; i++ {
				if !r.hubRowValid[d][i] {
					continue
				}
				if infos[i*P+j].Dsts > 0 {
					dsts, vals, err := r.hubs[d].Read(i, j)
					if err != nil {
						return false, err
					}
					bounds := chunkRanges(len(dsts), r.chunk)
					parallelFor(r.threads, len(bounds)-1, func(c int) {
						r.foldHubRange(dsts, vals, accV, bounds[c], bounds[c+1])
					})
				}
				if ovc := r.ovCell(d, i, j); ovc != nil {
					// Fold the in-memory overlay partials written by this
					// iteration's row phase (hubRowValid guarantees the
					// row ran, so the array is populated).
					r.foldHubRange(ovc.Dsts, r.ovHub[d][i*P+j], accV, 0, ovc.NumDsts())
				}
			}
			if err := r.takeErr(); err != nil {
				return false, err
			}
		}
	}
	old := r.oldBuf[:hi-lo]
	if err := r.attrs.ReadInterval(j, old); err != nil {
		return false, err
	}
	bounds := chunkRanges(int(hi-lo), r.chunk)
	changed := make([]bool, len(bounds)-1)
	parallelFor(r.threads, len(bounds)-1, func(c int) {
		v0, v1 := lo+uint32(bounds[c]), lo+uint32(bounds[c+1])
		changed[c] = r.applyChunk(0, old, acc, -int(lo), v0, v1)
	})
	anyChanged := false
	for _, c := range changed {
		if c {
			anyChanged = true
			break
		}
	}
	if err := r.attrs.WriteInterval(j, acc); err != nil {
		return false, err
	}
	return anyChanged, nil
}

// applyResident runs the apply phase over the resident intervals and
// records each participating lane's next-iteration activity in
// activeNext. A lane applies over interval j when it is dense or any of
// its active source intervals has edges into j; it carries its values
// forward elsewhere, as do lanes sitting this iteration out. Every task
// re-zeroes its slice of what is about to become the next iteration's
// accumulator (r.curr, pre-swap) and refreshes the RankSum scaled view
// from the values it just wrote, while the cache lines are still hot, so
// step() needs no separate sweep for either.
func (r *Run) applyResident(lanes []int, activeNext [][]bool) {
	m := r.e.store.Meta()
	P, Q, L := m.P, r.q, r.L
	dirs := r.dirsUsed()
	// applies[j*L+l]: does lane l Apply over interval j?
	applies := make([]bool, Q*L)
	for _, l := range lanes {
		for j := 0; j < Q; j++ {
			apply := r.dense[l]
			for _, d := range dirs {
				for i := 0; i < P && !apply; i++ {
					apply = r.active[l][i] && r.cellHasEdges(d, i, j)
				}
			}
			applies[j*L+l] = apply
		}
	}
	// A fused task is a vertex chunk every lane sweeps in turn, sized so
	// the chunk's whole lane-minor block (all L lanes of curr and next)
	// stays cache-resident across the per-lane passes — one lane's walk is
	// L-strided, which over an unbounded range would miss on every vertex.
	chunkV := r.chunk
	if L > 1 {
		chunkV = max(64, (1<<15)/L) // ≈256KiB of curr+next per chunk
	}
	type task struct {
		j      int
		v0, v1 uint32
	}
	var tasks []task
	for j := 0; j < Q; j++ {
		lo, hi := m.IntervalRange(j)
		bounds := chunkRanges(int(hi-lo), chunkV)
		for c := 0; c < len(bounds)-1; c++ {
			tasks = append(tasks, task{j, lo + uint32(bounds[c]), lo + uint32(bounds[c+1])})
		}
	}
	changed := make([]bool, len(tasks)*L)
	parallelFor(r.threads, len(tasks), func(t int) {
		tk := tasks[t]
		s0, s1 := int(tk.v0)*L, int(tk.v1)*L
		for l := 0; l < L; l++ {
			if applies[tk.j*L+l] {
				changed[t*L+l] = r.applyChunk(l, r.curr, r.next, l, tk.v0, tk.v1)
			} else {
				copyLane(r.curr, r.next, L, l, tk.v0, tk.v1)
			}
		}
		if r.useScaled {
			for _, d := range dirs {
				refreshScaled(r.scaled[d][s0:s1], r.next[s0:s1], tk.v0, r.degOf(d), L)
			}
		}
		zeroSlab(r.curr[s0:s1], r.zero)
	})
	for t := range tasks {
		for l := 0; l < L; l++ {
			if changed[t*L+l] && activeNext[l] != nil {
				activeNext[l][tasks[t].j] = true
			}
		}
	}
}

// srcViews is the resident source-attribute window the single-lane
// gather kernels read per traversal flag: the per-iteration scaled array
// under the RankSum division hoist, the raw attributes otherwise.
func (r *Run) srcViews() [2]view {
	v := [2]view{{r.curr, 0}, {r.curr, 0}}
	if r.useScaled {
		v[0], v[1] = view{r.scaled[0], 0}, view{r.scaled[1], 0}
	}
	return v
}

// refreshScaled sets dst = vals / deg per vertex — the RankSum Gather
// value curr/deg of every (vertex, lane) pair, computed once per
// iteration instead of once per edge. vals and dst hold vertices
// [lo, lo+len(vals)/L) lane-minor. Each division uses exactly the
// operands a scalar Gather would, so the hoisted fold stays
// bit-identical. Zero-degree vertices are skipped: a gathered edge from
// source s implies s's overlay-adjusted degree is at least 1 (tombstoned
// edges are filtered before the attribute read), so their slots are never
// read.
func refreshScaled(dst, vals []float64, lo uint32, deg []uint32, L int) {
	if L == 1 {
		for i, a := range vals {
			dst[i] = a / float64(deg[lo+uint32(i)])
		}
		return
	}
	for i := 0; i < len(vals)/L; i++ {
		dg := deg[lo+uint32(i)]
		if dg == 0 {
			continue
		}
		dd := float64(dg)
		as, sc := vals[i*L:i*L+L], dst[i*L:i*L+L]
		for x := range as {
			sc[x] = as[x] / dd
		}
	}
}

// residentAggregates starts each participating lane's global aggregate
// over the resident attributes. A LaneAggregator lane with every vertex
// resident takes one AggLane call, bit-identical to the serial fold by
// that interface's contract and free to exploit program structure
// (PageRank's skips every non-dangling vertex); such lanes reduce in
// parallel. Every other lane folds through aggFold, so one rule decides
// an aggregate's float association whatever the lane count.
func (r *Run) residentAggregates(lanes []int) []float64 {
	vals := make([]float64, r.L)
	deg := r.primaryDeg()
	all := r.resEnd == r.e.store.Meta().NumVertices
	parallelFor(r.threads, len(lanes), func(t int) {
		if l := lanes[t]; all && r.laggr[l] != nil {
			vals[l] = r.laggr[l].AggLane(r.curr, r.L, l, deg[:r.resEnd])
		}
	})
	for _, l := range lanes {
		if r.aggs[l] != nil && !(all && r.laggr[l] != nil) {
			vals[l] = r.aggFold(l, r.aggs[l].AggZero(), r.curr[:int(r.resEnd)*r.L], 0)
		}
	}
	return vals
}

// aggFold folds lane l's global aggregate over the vertex range
// [lo, lo+len(vals)/L) whose lane-minor attributes sit in vals. A
// LaneAggregator promises serial-fold bits, so its lane folds serially in
// ascending vertex order (partial-residency runs stream the on-disk
// intervals through here in that order). Other lanes compute per-chunk
// partials in parallel and combine them with AggCombine in ascending
// chunk order: the fixed chunk size makes the result deterministic for
// any thread count and lane count, though the chunked combine is not the
// serial fold's float association.
func (r *Run) aggFold(l int, val float64, vals []float64, lo uint32) float64 {
	a, L, deg := r.aggs[l], r.L, r.primaryDeg()
	n := len(vals) / L
	if r.laggr[l] != nil {
		for i := 0; i < n; i++ {
			v := lo + uint32(i)
			val = a.AggCombine(val, a.AggVertex(v, vals[i*L+l], deg[v]))
		}
		return val
	}
	bounds := chunkRanges(n, 1<<15)
	parts := make([]float64, len(bounds)-1)
	parallelFor(r.threads, len(parts), func(c int) {
		pv := a.AggZero()
		for i := bounds[c]; i < bounds[c+1]; i++ {
			v := lo + uint32(i)
			pv = a.AggCombine(pv, a.AggVertex(v, vals[i*L+l], deg[v]))
		}
		parts[c] = pv
	})
	for _, pv := range parts {
		val = a.AggCombine(val, pv)
	}
	return val
}

// foldHubRange folds hub partials [k0, k1) into the accumulator through
// the devirtualized Sum loop when the kernel hint pins Sum's form, the
// generic per-entry path otherwise.
func (r *Run) foldHubRange(dsts []uint32, vals []float64, acc view, k0, k1 int) {
	if !foldHubSpec(sumFoldFor(r.hint), dsts, vals, acc, k0, k1) {
		foldHub(r.ps[0], dsts, vals, acc, k0, k1)
	}
}

// applyChunk applies lane l over vertices [v0, v1), reading old
// attributes from old and folding into acc in place; vertex v's state
// sits at index int(v)*L+off of both arrays (off = l for the resident
// arrays, -lo for a single-lane interval window based at lo). It uses
// the lane's LaneApplier when it has one to skip per-vertex interface
// dispatch; a mask (single-lane runs only) takes the generic path.
func (r *Run) applyChunk(l int, old, acc []float64, off int, v0, v1 uint32) bool {
	switch {
	case r.mask != nil:
		base := uint32(-off)
		return applyRange(r.ps[0], r.mask, view{old, base}, view{acc, base}, view{acc, base}, v0, v1)
	case r.la[l] != nil:
		return r.la[l].ApplyLane(old, acc, r.L, off, v0, v1)
	}
	return applyLane(r.ps[l], old, acc, r.L, off, v0, v1)
}
