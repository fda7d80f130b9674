package engine

import (
	"strconv"
	"sync"
	"sync/atomic"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// This file is the engine's read path: every sub-shard consumed by a
// step goes through the shared block cache (pinned, decoded blocks —
// see internal/blockcache) and, within a step, through a double-buffered
// prefetch pipeline. While the row/column phase computes on batch k, one
// background goroutine pins batch k+1's blocks, so disk reads overlap
// gathering instead of serializing with it. Cache hits make the fetch a
// map lookup; misses are read in plan order by that goroutine and
// decoded by a small fan-out of workers, once, for every run on the
// store.

// cellID names one block a phase needs: sub-shard (i, j) of traversal
// flag d (1 = transpose), optionally in the source-sorted flat form of
// the Table IV ablation.
type cellID struct {
	d, i, j int
	flat    bool
}

// spanNames interns span label strings across runs: block labels keyed
// by cellID, indexed labels (iter-3, row-0, ...) by nameKey. The label
// space is bounded — P² cells per store shape, small indices — so the
// map stays tiny while the traced read path stops allocating a fresh
// string per block acquisition.
var spanNames sync.Map

type nameKey struct {
	prefix string
	n      int
}

// spanName returns the interned prefix+itoa(n) label. Large indices
// (very long runs) skip interning so the map cannot grow without bound.
func spanName(prefix string, n int) string {
	if n >= 4096 {
		return prefix + strconv.Itoa(n)
	}
	k := nameKey{prefix, n}
	if v, ok := spanNames.Load(k); ok {
		return v.(string)
	}
	s := prefix + strconv.Itoa(n)
	spanNames.Store(k, s)
	return s
}

// name renders the cell for span labels: f/t for forward/transpose, *
// for the flat ablation form. Interned — this runs once per block
// acquisition on the traced read path.
func (c cellID) name() string {
	if v, ok := spanNames.Load(c); ok {
		return v.(string)
	}
	p := "f"
	if c.d == 1 {
		p = "t"
	}
	if c.flat {
		p += "*"
	}
	s := p + "[" + strconv.Itoa(c.i) + "," + strconv.Itoa(c.j) + "]"
	spanNames.Store(c, s)
	return s
}

// fetcher is the read-path state one executing run carries: the engine
// whose cache and store blocks come from, the run's trace, and the
// per-iteration counters the prefetch goroutines accumulate into. Run
// embeds it, so the block cache, the double-buffered pipeline, and the
// fetch tracing below are promoted into every run whatever its lane
// count.
type fetcher struct {
	e *Engine

	// tr records the run's span timeline (nil when Config.TraceSpans is
	// negative — every instrumentation call below is then inert).
	// iterSpanID is the current iteration's span, read by the prefetch
	// goroutines to parent their block-load spans; iterHits/iterMisses
	// count block acquisitions from those goroutines. stallNS accumulates
	// fetch-batch wait time and is touched only by the step loop.
	tr         *trace.Trace
	iterSpanID atomic.Uint64
	iterHits   atomic.Int64
	iterMisses atomic.Int64
	stallNS    int64
}

// cacheKey returns cell c's block-cache key.
func (r *fetcher) cacheKey(c cellID) blockcache.Key {
	return blockcache.Key{Gen: r.e.cacheGen, I: c.i, J: c.j, Transpose: c.d == 1, Flat: c.flat}
}

// readCell is the disk read of cell c's encoded blob.
func (r *fetcher) readCell(c cellID) ([]byte, error) {
	return r.e.store.ReadSubShardRaw(c.i, c.j, c.d == 1)
}

// decodeCell decodes cell c's blob into the form the cache holds for
// it, returning the block and its accounted size. Decoding checks the
// block against the store's index and intervals (see
// storage.DecodeSubShardAt), so a corrupt blob becomes the run's error
// instead of an out-of-range index in a gather worker.
func (r *fetcher) decodeCell(c cellID, blob []byte) (any, int64, error) {
	ss, err := r.e.store.DecodeSubShardAt(c.i, c.j, c.d == 1, blob)
	if err != nil {
		return nil, 0, err
	}
	if c.flat {
		fl := toSrcSorted(ss)
		return fl, fl.memBytes(), nil
	}
	return ss, ss.MemBytes(), nil
}

// loadBlock pins cell c's decoded block through the shared cache,
// blocking on another caller's in-flight load of it, and reports
// whether the pin went to disk and, if so, the decoded size. The cache
// is tiered: an L1 miss first tries the encoded-blob tier, so the decode
// often runs on bytes already in RAM — those count as hits in the run
// trace (no disk stall) even though Stats tallies them as L2Hits.
func (r *fetcher) loadBlock(c cellID) (h *blockcache.Handle, missed bool, decoded int64, err error) {
	h, err = r.e.cache.GetTiered(r.cacheKey(c),
		func() ([]byte, error) {
			// The disk read: single-flighted per sub-shard across both
			// decoded forms; reaching it is exactly one Stats miss.
			missed = true
			return r.readCell(c)
		},
		func(blob []byte) (any, int64, error) {
			val, size, err := r.decodeCell(c, blob)
			decoded = size
			return val, size, err
		})
	return
}

// getBlock pins cell c's block with an individually recorded block-load
// span. It serves the step loop's batchBlock fallbacks — rare,
// unplanned loads — so the trace counters it touches are atomics.
func (r *fetcher) getBlock(c cellID) (*blockcache.Handle, error) {
	var sp trace.Span
	if r.tr != nil {
		sp = r.tr.Start(trace.KindBlockLoad, c.name(), r.iterSpanID.Load())
	}
	h, missed, decoded, err := r.loadBlock(c)
	if r.tr != nil {
		if err == nil {
			if missed {
				sp.Tag = trace.TagMiss
				sp.Bytes = decoded
				r.iterMisses.Add(1)
			} else {
				sp.Tag = trace.TagHit
				r.iterHits.Add(1)
			}
		}
		r.tr.End(sp)
	}
	return h, err
}

// fetchTrace buffers one fetch goroutine's trace output. Misses keep
// individual spans — they carry decoded bytes and real disk latency —
// but hits coalesce into a single counted span per batch: a warm batch
// is nothing but hits, and materializing a ~0µs span per hit costs more
// in stores and ring churn than the information is worth.
type fetchTrace struct {
	spans    []trace.Span
	hits     int64
	misses   int64
	firstNS  int64 // Clock offset of the batch's first hit
	hitDurNS int64 // summed duration of the batch's hits
}

// getBlockBatched is the fetch goroutine's traced blocking load: it
// samples the trace clock around loadBlock and folds the result into ft.
func (r *fetcher) getBlockBatched(c cellID, ft *fetchTrace) (*blockcache.Handle, error) {
	began := r.tr.Clock()
	h, missed, decoded, err := r.loadBlock(c)
	if err == nil {
		r.note(ft, c, began, missed, decoded)
	}
	return h, err
}

// note folds one block acquisition that began at trace clock began into
// ft, deferring all recording and counter updates to flushFetchTrace.
// A nil ft (an untraced run) records nothing.
func (r *fetcher) note(ft *fetchTrace, c cellID, began int64, missed bool, decoded int64) {
	if ft == nil {
		return
	}
	dur := r.tr.Clock() - began
	if missed {
		sp := r.tr.Make(trace.KindBlockLoad, c.name(), r.iterSpanID.Load(), began, dur)
		sp.Tag = trace.TagMiss
		sp.Bytes = decoded
		ft.spans = append(ft.spans, sp)
		ft.misses++
		return
	}
	if ft.hits == 0 {
		ft.firstNS = began
	}
	ft.hits++
	ft.hitDurNS += dur
}

// flushFetchTrace records a batch's buffered spans — one coalesced hit
// span plus any miss spans — under a single trace lock, and settles the
// iteration's hit/miss counters with one atomic RMW each.
func (r *fetcher) flushFetchTrace(ft *fetchTrace) {
	if ft.hits > 0 {
		sp := r.tr.Make(trace.KindBlockLoad, "hits", r.iterSpanID.Load(), ft.firstNS, ft.hitDurNS)
		sp.Tag = trace.TagHit
		sp.Count = ft.hits
		ft.spans = append(ft.spans, sp)
	}
	r.tr.Record(ft.spans)
	if ft.hits != 0 {
		r.iterHits.Add(ft.hits)
	}
	if ft.misses != 0 {
		r.iterMisses.Add(ft.misses)
	}
}

// waitBatch blocks on a phase batch's prefetch, recording the blocked
// time as a fetch-batch span and charging it to the iteration's
// prefetch-stall total. Only the step loop calls it, so stallNS needs no
// synchronization.
func (r *fetcher) waitBatch(b *fetchBatch, phase string, id int) error {
	if r.tr == nil {
		return b.wait()
	}
	sp := r.tr.Start(trace.KindFetchBatch, spanName(phase, id), r.iterSpanID.Load())
	err := b.wait()
	r.stallNS += int64(r.tr.End(sp))
	return err
}

// fetchBatch holds the pinned blocks of one phase batch (a row of the
// row phase, a destination interval of the column phase). handles is
// populated by the fetch goroutine and must only be read after wait;
// extra collects fallback pins taken synchronously by the consumer so
// release returns everything at once.
type fetchBatch struct {
	handles map[cellID]*blockcache.Handle
	extra   []*blockcache.Handle
	err     error
	done    chan struct{}
	// issued closes once the fetch goroutine has issued all the batch's
	// reads (or given up on them); the next batch's reads wait for it.
	issued chan struct{}
}

// emptyBatch returns a completed batch with no blocks, for consumers
// whose batch was not planned (all their loads fall back to synchronous
// pins via batchBlock).
func emptyBatch() *fetchBatch {
	b := &fetchBatch{done: make(chan struct{}), issued: make(chan struct{})}
	close(b.done)
	close(b.issued)
	return b
}

// startFetch pins the given cells on a background goroutine (see
// fetch). When after is non-nil the goroutine first waits until after
// has issued its reads, so a pipeline's reads reach the disk in plan
// order even while two batches are in flight. It waits holding no
// claims, and a batch issues its reads without waiting on anything, so
// the chain cannot deadlock.
func (r *fetcher) startFetch(cells []cellID, after *fetchBatch) *fetchBatch {
	if len(cells) == 0 {
		return emptyBatch()
	}
	b := &fetchBatch{
		handles: make(map[cellID]*blockcache.Handle, len(cells)),
		done:    make(chan struct{}),
		issued:  make(chan struct{}),
	}
	go func() {
		defer close(b.done)
		if after != nil {
			<-after.issued
		}
		b.err = r.fetch(cells, b.handles, b.issued)
	}()
	return b
}

// fetch pins cells into handles. This goroutine issues the reads, in
// slice order — ascending j within a row, matching the physical
// row-major layout of shards.dat, so misses read sequentially — and
// hands each blob to a decode fan-out, so decoding runs alongside the
// reads still to come instead of after each one. Hits pin here, and a
// batch of hits starts no worker.
//
// The loop claims each missing cell with TryGet and never waits on a
// cell another run is loading: such busy cells are deferred until this
// batch has issued all its reads and published all its decodes, and
// only then pinned with a blocking load. Waiting while holding claims
// could deadlock two runs that reach shared cells in opposite orders.
//
// After the first error no further read is issued, but every claim is
// still published and every pin taken lands in handles, so the batch's
// release returns them all. issued is closed when the read loop ends.
func (r *fetcher) fetch(cells []cellID, handles map[cellID]*blockcache.Handle, issued chan struct{}) error {
	var ft *fetchTrace
	if r.tr != nil {
		ft = &fetchTrace{}
		defer r.flushFetchTrace(ft)
	}
	var (
		fan  *decodeFanout
		busy []cellID
		err  error
	)
	for slot, c := range cells {
		if fan != nil && fan.failed.Load() {
			break
		}
		began := r.tr.Clock()
		h, cl := r.e.cache.TryGet(r.cacheKey(c))
		if h != nil {
			handles[c] = h
			r.note(ft, c, began, false, 0)
			continue
		}
		if cl == nil {
			busy = append(busy, c)
			continue
		}
		job := decodeJob{slot: slot, c: c, cl: cl, began: began}
		job.blob, err = cl.Read(func() ([]byte, error) {
			job.missed = true
			return r.readCell(c)
		})
		if err != nil {
			cl.Publish(nil, 0, err)
			break
		}
		if fan == nil {
			fan = r.newDecodeFanout(cells)
		}
		fan.submit(job, ft)
	}
	close(issued)
	if fan != nil {
		// A decode error comes from a cell before any read error's.
		if derr := fan.wait(handles); derr != nil {
			err = derr
		}
	}
	if err != nil {
		return err
	}
	for _, c := range busy {
		var h *blockcache.Handle
		if ft != nil {
			h, err = r.getBlockBatched(c, ft)
		} else {
			h, _, _, err = r.loadBlock(c)
		}
		if err != nil {
			return err
		}
		handles[c] = h
	}
	return nil
}

// decodeJob is one claimed cell between its disk read and its decode.
type decodeJob struct {
	slot   int // the cell's index in the batch
	c      cellID
	cl     *blockcache.Claim
	blob   []byte
	missed bool  // the blob came from disk, not the L2 tier
	began  int64 // trace clock when the acquisition began
}

// decodeFanout decodes one batch's claimed cells on up to
// Config.Threads workers, started as jobs arrive. Each worker publishes
// its cells to the cache as it decodes them and buffers its own trace,
// so the fetch goroutine only queues jobs. With max = 0 (the engine's
// negative decoders override) every job runs on the submitting
// goroutine instead.
type decodeFanout struct {
	r       *fetcher
	cells   []cellID
	handles []*blockcache.Handle // by slot; written by the decoding goroutine
	errs    []error
	jobs    chan decodeJob
	workers int
	max     int
	wg      sync.WaitGroup
	failed  atomic.Bool
}

func (r *fetcher) newDecodeFanout(cells []cellID) *decodeFanout {
	f := &decodeFanout{
		r:       r,
		cells:   cells,
		handles: make([]*blockcache.Handle, len(cells)),
		errs:    make([]error, len(cells)),
		max:     r.e.cfg.threads(),
	}
	switch {
	case r.e.decoders < 0:
		f.max = 0
		return f
	case r.e.decoders > 0:
		f.max = r.e.decoders
	}
	f.jobs = make(chan decodeJob, len(cells))
	return f
}

// submit queues j, starting another worker while fewer than max run.
// The queue holds a whole batch, so submit never blocks.
func (f *decodeFanout) submit(j decodeJob, ft *fetchTrace) {
	if f.max == 0 {
		f.run(j, ft)
		return
	}
	if f.workers < f.max {
		f.workers++
		f.wg.Add(1)
		go f.work()
	}
	f.jobs <- j
}

func (f *decodeFanout) work() {
	defer f.wg.Done()
	var ft *fetchTrace
	if f.r.tr != nil {
		ft = &fetchTrace{}
		defer f.r.flushFetchTrace(ft)
	}
	for j := range f.jobs {
		f.run(j, ft)
	}
}

// run decodes and publishes one cell.
func (f *decodeFanout) run(j decodeJob, ft *fetchTrace) {
	val, size, err := f.r.decodeCell(j.c, j.blob)
	h, err := j.cl.Publish(val, size, err)
	f.handles[j.slot], f.errs[j.slot] = h, err
	if err != nil {
		f.failed.Store(true)
		return
	}
	f.r.note(ft, j.c, j.began, j.missed, size)
}

// wait lets the workers drain the queue, moves the pins into handles
// and returns the first error in batch order.
func (f *decodeFanout) wait(handles map[cellID]*blockcache.Handle) error {
	if f.jobs != nil {
		close(f.jobs)
	}
	f.wg.Wait()
	var first error
	for slot, h := range f.handles {
		if h != nil {
			handles[f.cells[slot]] = h
		}
		if first == nil {
			first = f.errs[slot]
		}
	}
	return first
}

// wait blocks until the fetch goroutine finished and reports its error.
// It must be called before reading handles.
func (b *fetchBatch) wait() error {
	<-b.done
	return b.err
}

// release unpins every block the batch holds (including fallback pins),
// waiting out an in-flight fetch first so no pin is orphaned.
func (b *fetchBatch) release() {
	if b == nil {
		return
	}
	<-b.done
	for _, h := range b.handles {
		h.Release()
	}
	for _, h := range b.extra {
		h.Release()
	}
	b.handles, b.extra = nil, nil
}

// batchBlock returns cell c's pinned block from the batch, falling back
// to a synchronous load (recorded in the batch so release covers it)
// when the planner did not anticipate the cell. Callers must have
// wait()ed on the batch.
func (r *fetcher) batchBlock(b *fetchBatch, c cellID) (*blockcache.Handle, error) {
	if h, ok := b.handles[c]; ok {
		return h, nil
	}
	h, err := r.getBlock(c)
	if err != nil {
		return nil, err
	}
	b.extra = append(b.extra, h)
	return h, nil
}

// batchSubShard is batchBlock typed for CSR sub-shards.
func (r *fetcher) batchSubShard(b *fetchBatch, c cellID) (*storage.SubShard, error) {
	h, err := r.batchBlock(b, c)
	if err != nil {
		return nil, err
	}
	return h.Value().(*storage.SubShard), nil
}

// batchFlat is batchBlock typed for the source-sorted ablation form.
func (r *fetcher) batchFlat(b *fetchBatch, c cellID) (*srcSortedEdges, error) {
	h, err := r.batchBlock(b, c)
	if err != nil {
		return nil, err
	}
	return h.Value().(*srcSortedEdges), nil
}

// memBytes returns the flat form's in-memory footprint for cache
// accounting.
func (e *srcSortedEdges) memBytes() int64 {
	b := int64(len(e.srcs)+len(e.dsts)) * 4
	if e.ws != nil {
		b += int64(len(e.ws)) * 4
	}
	return b
}

// fetchPlan is one batch of the pipeline: the blocks batch id (a row
// index in the row phase, a destination interval in the column phase)
// will consume. touched carries the column phase's columnTouched
// verdict so the step loop never re-derives it (the pipeline's
// take-order contract holds by construction when the loop iterates the
// plans themselves).
type fetchPlan struct {
	id      int
	touched bool
	cells   []cellID
}

// pipeline runs the double-buffered prefetch over a phase's planned
// batches: at any time the batch being computed on is pinned and the
// next one is loading.
type pipeline struct {
	r        *fetcher
	plans    []fetchPlan
	next     int
	inflight *fetchBatch
}

// newPipeline starts fetching the first planned batch.
func (r *fetcher) newPipeline(plans []fetchPlan) *pipeline {
	p := &pipeline{r: r, plans: plans}
	if len(plans) > 0 {
		p.inflight = r.startFetch(plans[0].cells, nil)
	}
	return p
}

// take hands over the pinned batch for plan id — which must be consumed
// in plan order — and starts the following plan's fetch so its reads
// overlap the caller's compute. The caller owns the returned batch and
// must release it. An unplanned id gets an empty batch.
func (p *pipeline) take(id int) *fetchBatch {
	if p.next >= len(p.plans) || p.plans[p.next].id != id {
		return emptyBatch()
	}
	b := p.inflight
	p.next++
	if p.next < len(p.plans) {
		p.inflight = p.r.startFetch(p.plans[p.next].cells, b)
	} else {
		p.inflight = nil
	}
	return b
}

// drain releases the in-flight batch; it must run on every exit from the
// phase loop (early error returns included) so no pin outlives the step.
func (p *pipeline) drain() {
	if p.inflight != nil {
		p.inflight.release()
		p.inflight = nil
	}
}

// rowPlans lists, in execution order, the rows the row phase will
// process — the union frontier of the participating lanes — and the
// base-store blocks each needs. Overlay cells are in-memory and never
// planned.
func (r *Run) rowPlans(dirs, lanes []int) []fetchPlan {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	flat := r.e.cfg.Order == SrcSortedCoarse
	var plans []fetchPlan
	for i := 0; i < P; i++ {
		active := false
		for _, l := range lanes {
			active = active || r.active[l][i]
		}
		if !active {
			continue
		}
		jmax := P
		if i < Q {
			jmax = Q // SS[i][j>=Q] with resident source is handled by the column phase
		}
		var cells []cellID
		for _, d := range dirs {
			infos := r.subShardInfosFor(d)
			for j := 0; j < jmax; j++ {
				if infos[i*P+j].Edges > 0 {
					cells = append(cells, cellID{d, i, j, flat})
				}
			}
		}
		plans = append(plans, fetchPlan{id: i, cells: cells})
	}
	return plans
}

// colPlans lists the destination intervals the column phase of a
// single-lane run will visit and the resident-source blocks each folds.
// It must be computed after the row phase (columnTouched consults
// hubRowValid, which the row phase fills in).
func (r *Run) colPlans(dirs []int) []fetchPlan {
	m := r.e.store.Meta()
	P, Q := m.P, r.q
	var plans []fetchPlan
	for j := Q; j < P; j++ {
		touched := r.columnTouched(j, dirs)
		if !touched && !r.dense[0] {
			continue
		}
		var cells []cellID
		if touched {
			for _, d := range dirs {
				infos := r.subShardInfosFor(d)
				for i := 0; i < Q; i++ {
					if r.active[0][i] && infos[i*P+j].Edges > 0 {
						cells = append(cells, cellID{d, i, j, false})
					}
				}
			}
		}
		plans = append(plans, fetchPlan{id: j, touched: touched, cells: cells})
	}
	return plans
}
