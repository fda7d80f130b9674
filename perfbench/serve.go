package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/blockcache"
	"nxgraph/internal/server"
	"nxgraph/internal/trace"
	"nxgraph/internal/wal"
)

// Sizes of the serving workloads' graph: a scale-14 RMAT with edge
// factor 16 (about 12.5k vertices and 262k edges once isolated
// vertices are dropped), a few MB that the default 256 MiB block cache
// holds whole.
const (
	serveScale      = 14
	serveEdgeFactor = 16
	graphName       = "g"
	serveSetups     = 5 // set-ups per run; setup_s is their median
	requestTimeout  = 10 * time.Second
	traceEvery      = 4 // the traced run fetches the trace of every 4th query
	bursts          = 3 // bursts per run; the capacity is their median drain rate
	traceSpans      = 1 << 15
)

// serveSpec sizes one serving workload.
type serveSpec struct {
	queryRate  float64 // open-loop query arrivals per second
	ingestRate float64 // open-loop ingest batches per second; 0 for none
	batchEdges int     // edges per ingest batch
	burst      int     // queries submitted at once to time the drain
}

// query is one PPR or BFS request.
type query struct {
	algo string
	root uint32
}

// serveEnv is a server holding one freshly built graph, and the client
// that drives it over loopback HTTP.
type serveEnv struct {
	dir  string
	srv  *server.Server
	hs   *httptest.Server
	cl   *client
	base *nxgraph.EdgeList // generated edges, in original ids
	n    uint32            // served vertex count (dense ids)
	ids  []uint64          // dense id -> original id

	closed bool
}

func (e *serveEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.hs.Close()
	e.cl.close()
	e.srv.Close()
}

// setupServe generates the graph, builds its store, opens it in a new
// server and warms the block cache with one query of each kind.
func setupServe(ctx context.Context, dir string, seed int64, traced bool) (*serveEnv, float64, error) {
	el, err := nxgraph.Generate(nxgraph.RMAT(serveScale, serveEdgeFactor, seed))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	g, err := nxgraph.Build(dir, el, nxgraph.Options{})
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0).Seconds()
	ids, err := g.RemapTable()
	n := g.NumVertices()
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	spans := -1
	if traced {
		spans = traceSpans
	}
	srv := server.New(server.Config{
		Workers:      2,
		QueueCap:     1024, // the burst must never be refused
		WALSync:      wal.SyncBatch,
		GraphOptions: nxgraph.Options{TraceSpans: spans},
		Logger:       slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1})),
	})
	if err := srv.OpenGraph(graphName, dir, nxgraph.Options{TraceSpans: spans}); err != nil {
		srv.Close()
		return nil, 0, err
	}
	hs := httptest.NewServer(srv.Handler())
	env := &serveEnv{dir: dir, srv: srv, hs: hs, cl: newClient(hs.URL, runtime.NumCPU(), requestTimeout), base: el, n: n, ids: ids}
	for _, q := range []query{{"ppr", 0}, {"bfs", 0}} {
		var snap jobSnapshot
		if err := env.cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/jobs", q.body(), http.StatusAccepted, &snap); err != nil {
			env.close()
			return nil, 0, fmt.Errorf("warm-up submit: %w", err)
		}
		if _, _, err := env.wait(ctx, snap.ID); err != nil {
			env.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, build, nil
}

func (q query) body() []byte {
	return []byte(fmt.Sprintf(`{"algo":%q,"params":{"root":%d}}`, q.algo, q.root))
}

// wait polls a job until it is terminal, backing off from 8 ms to 64 ms
// between polls, and returns its last snapshot and the polls it took.
// The latency the benchmark reports comes from the job's own server
// stamps, so the poll cadence only bounds the client's traffic.
func (e *serveEnv) wait(ctx context.Context, id string) (jobSnapshot, int, error) {
	var snap jobSnapshot
	delay := 8 * time.Millisecond
	deadline := time.Now().Add(requestTimeout)
	for polls := 1; ; polls++ {
		if err := sleepCtx(ctx, delay); err != nil {
			return snap, polls - 1, err
		}
		if err := e.cl.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &snap); err != nil {
			return snap, polls, err
		}
		if snap.terminal() {
			if snap.State != "done" {
				return snap, polls, fmt.Errorf("job %s %s: %s", id, snap.State, snap.Error)
			}
			if snap.StartedAt == nil || snap.FinishedAt == nil {
				return snap, polls, fmt.Errorf("job %s done without timestamps", id)
			}
			return snap, polls, nil
		}
		if time.Now().After(deadline) {
			return snap, polls, fmt.Errorf("job %s still %s after %v", id, snap.State, requestTimeout)
		}
		delay = min(2*delay, 64*time.Millisecond)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// verifySample is a served result kept for the correctness check.
type verifySample struct {
	q      query
	values []float64
}

// phase is one measured stretch of load against a serveEnv. Its
// methods run on many goroutines; mu guards everything below it.
type phase struct {
	env     *serveEnv
	spec    serveSpec
	traced  bool
	started time.Time

	mu          sync.Mutex
	ops         map[string]*opCount
	queryLat    []float64 // due -> finished_at
	submitMS    []float64
	queueMS     []float64
	runMS       []float64
	fetchMS     []float64
	ingestLat   []float64 // due -> 202 received
	widths      []float64
	queryReqs   int64
	queries     int64
	rejected    int64
	lateMax     float64
	burstN      int     // queries drained in the bursts
	burstSecs   float64 // and the time they took
	samples     []verifySample
	traceIDs    []string                 // sampled queries whose trace is still to fetch
	traces      map[int64]trace.Timeline // by trace start, in ns
	acked       map[int][]nxgraph.Edge   // ingest batch index -> its edges
	pending     []float64
	compactions map[string]float64 // compact job id -> run ms
	peakRSS     float64
	metrics     [2]promText
	blocks      [2]blockcache.Stats
}

func (p *phase) count(kind string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.ops[kind]
	if !ok {
		c = &opCount{}
		p.ops[kind] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if isRejected(err) {
			p.rejected++
		}
	}
}

// runLoad drives env for d: open-loop queries (and ingest batches when
// the spec has them) and, if burst, bursts of queries whose drain is
// timed while ingest keeps arriving.
func runLoad(ctx context.Context, env *serveEnv, spec serveSpec, seed int64, d time.Duration, traced, burst bool) (*phase, error) {
	p := &phase{env: env, spec: spec, traced: traced, ops: map[string]*opCount{},
		traces: map[int64]trace.Timeline{}, acked: map[int][]nxgraph.Edge{}, compactions: map[string]float64{}}
	queries := makeQueries(seed, env.n, int(spec.queryRate*d.Seconds()*2)+2*bursts*spec.burst+64)
	arrivals := schedule(seed, spec.queryRate, d)
	if len(arrivals) > len(queries) {
		return nil, fmt.Errorf("schedule of %d arrivals outgrew %d queries", len(arrivals), len(queries))
	}
	var err error
	if p.metrics[0], err = env.cl.scrape(ctx); err != nil {
		return nil, err
	}
	p.blocks[0] = env.srv.BlockCacheStats()

	var bg sync.WaitGroup // ingest dispatcher and sampler
	stop := make(chan struct{})
	sampleCtx, cancelSampler := context.WithCancel(ctx)
	defer cancelSampler()
	bg.Add(1)
	go func() { defer bg.Done(); p.sample(sampleCtx) }()

	var queriesWG, ingestWG sync.WaitGroup
	p.started = time.Now().Add(10 * time.Millisecond)
	if spec.ingestRate > 0 {
		bg.Add(1)
		go func() { defer bg.Done(); p.ingestLoop(ctx, seed, stop, &ingestWG) }()
	}
	// With bursts, the open-loop schedule is cut into as many segments,
	// each followed by a burst, so the bursts sample the whole run. The
	// schedule pauses while a burst drains. Each burst asks for roots the
	// run has not asked for yet, so the result cache cannot answer it;
	// the queries they drained over the time it took is the capacity.
	asked := map[query]bool{}
	rest := queries[len(arrivals):]
	runBurst := func() {
		queriesWG.Wait()
		p.fetchTraces(ctx)
		var fresh []query
		for len(fresh) < spec.burst && len(rest) > 0 {
			if q := rest[0]; !asked[q] {
				asked[q] = true
				fresh = append(fresh, q)
			}
			rest = rest[1:]
		}
		p.burstPhase(ctx, fresh)
	}
	segments := 1
	if burst {
		segments = bursts
	}
	boundary := func(seg int) time.Duration { return d * time.Duration(seg) / time.Duration(segments) }
	base, seg := p.started, 1
	for i, off := range arrivals {
		for ; seg < segments && off >= boundary(seg); seg++ {
			runBurst()
			base = time.Now().Add(-boundary(seg))
		}
		due := base.Add(off)
		if err := sleepCtx(ctx, time.Until(due)); err != nil {
			return nil, err
		}
		p.late(time.Since(due))
		q := queries[i]
		asked[q] = true
		keep := i%97 == 7 // a fixed sample of results, checked after the run
		queriesWG.Add(1)
		go func() { defer queriesWG.Done(); p.query(ctx, q, due, i, keep) }()
	}
	for ; burst && seg <= segments; seg++ {
		runBurst()
	}
	queriesWG.Wait()
	p.fetchTraces(ctx)
	close(stop)
	cancelSampler()
	bg.Wait()
	ingestWG.Wait()
	if spec.ingestRate > 0 {
		p.scanCompactions(ctx)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if p.metrics[1], err = env.cl.scrape(ctx); err != nil {
		return nil, err
	}
	p.blocks[1] = env.srv.BlockCacheStats()
	return p, nil
}

func (p *phase) late(d time.Duration) {
	ms := float64(d) / 1e6
	p.mu.Lock()
	p.lateMax = max(p.lateMax, ms)
	p.mu.Unlock()
}

// makeQueries draws the workload's query stream from the seed: PPR and
// BFS about 3:1, roots uniform over the served vertices.
func makeQueries(seed int64, n uint32, count int) []query {
	rng := rand.New(rand.NewSource(seed*7919 + 11))
	qs := make([]query, count)
	for i := range qs {
		algo := "ppr"
		if rng.Intn(4) == 0 {
			algo = "bfs"
		}
		qs[i] = query{algo: algo, root: uint32(rng.Int63n(int64(n)))}
	}
	return qs
}

// query runs one open-loop request: submit, poll to done, fetch the
// top 10. keep also fetches the full result for the correctness check;
// the traced run samples every traceEvery-th run trace.
func (p *phase) query(ctx context.Context, q query, due time.Time, i int, keep bool) {
	cl := p.env.cl
	t0 := time.Now()
	var snap jobSnapshot
	err := cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/jobs", q.body(), http.StatusAccepted, &snap)
	submit := time.Since(t0)
	var polls int
	if err == nil {
		snap, polls, err = p.env.wait(ctx, snap.ID)
	}
	p.count("query", err)
	if err != nil {
		return
	}
	t1 := time.Now()
	var top struct {
		Top []json.RawMessage `json:"top"`
	}
	ferr := cl.do(ctx, http.MethodGet, "/v1/jobs/"+snap.ID+"/result?top=10", nil, http.StatusOK, &top)
	if ferr == nil && (len(top.Top) == 0 || len(top.Top) > 10) {
		ferr = fmt.Errorf("top-10 result of %s has %d entries", snap.ID, len(top.Top)) // BFS lists only reached vertices
	}
	fetch := time.Since(t1)
	p.count("result", ferr)
	reqs := int64(polls + 2) // submit, polls, top-10 fetch

	p.mu.Lock()
	p.queries++
	p.queryReqs += reqs
	p.queryLat = append(p.queryLat, ms(snap.FinishedAt.Sub(due)))
	p.submitMS = append(p.submitMS, ms(submit))
	if ferr == nil {
		p.fetchMS = append(p.fetchMS, ms(fetch))
	}
	if !snap.CacheHit {
		p.queueMS = append(p.queueMS, ms(snap.StartedAt.Sub(snap.SubmittedAt)))
		p.runMS = append(p.runMS, ms(snap.FinishedAt.Sub(*snap.StartedAt)))
		p.widths = append(p.widths, float64(max(1, snap.FusedWidth)))
	}
	p.mu.Unlock()

	if keep {
		p.keep(ctx, q, snap.ID)
	}
	if p.traced && !snap.CacheHit && i%traceEvery == 0 {
		p.mu.Lock()
		p.traceIDs = append(p.traceIDs, snap.ID)
		p.mu.Unlock()
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// keep fetches a job's full result for the correctness check.
func (p *phase) keep(ctx context.Context, q query, id string) {
	var full struct {
		Values []float64 `json:"values"`
	}
	err := p.env.cl.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, http.StatusOK, &full)
	p.count("verify-fetch", err)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.samples = append(p.samples, verifySample{q: q, values: full.Values})
	p.mu.Unlock()
}

// fetchTraces fetches the run traces of the sampled queries. It runs
// between open-loop segments, so serving a trace's JSON does not slow
// the runs whose time it measures.
func (p *phase) fetchTraces(ctx context.Context) {
	p.mu.Lock()
	ids := p.traceIDs
	p.traceIDs = nil
	p.mu.Unlock()
	for _, id := range ids {
		var tr struct {
			Timeline trace.Timeline `json:"timeline"`
		}
		err := p.env.cl.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, http.StatusOK, &tr)
		p.count("trace-fetch", err)
		if err != nil || len(tr.Timeline.Steps) == 0 {
			continue
		}
		p.mu.Lock()
		p.traces[tr.Timeline.StartedAt.UnixNano()] = tr.Timeline // jobs of one fused run share its trace
		p.mu.Unlock()
	}
}

// burstPhase submits burst at once over the client's connections and
// times how long the server takes to drain it.
func (p *phase) burstPhase(ctx context.Context, burst []query) {
	start := time.Now()
	ids := make([]string, len(burst))
	conns := runtime.NumCPU()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(burst); i += conns {
				var snap jobSnapshot
				err := p.env.cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/jobs", burst[i].body(), http.StatusAccepted, &snap)
				p.count("burst-query", err)
				if err == nil {
					ids[i] = snap.ID
				}
			}
		}()
	}
	wg.Wait()
	var mu sync.Mutex
	var last time.Time
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(burst); i += conns {
				if ids[i] == "" {
					continue
				}
				snap, _, err := p.env.wait(ctx, ids[i])
				p.count("burst-wait", err)
				if err != nil {
					continue
				}
				mu.Lock()
				if snap.FinishedAt.After(last) {
					last = *snap.FinishedAt
				}
				mu.Unlock()
				p.mu.Lock()
				p.widths = append(p.widths, float64(max(1, snap.FusedWidth)))
				p.mu.Unlock()
				if i%64 == 0 {
					p.keep(ctx, burst[i], ids[i])
				}
			}
		}()
	}
	wg.Wait()
	if !last.IsZero() {
		p.mu.Lock()
		p.burstN += len(burst)
		p.burstSecs += last.Sub(start).Seconds()
		p.mu.Unlock()
	}
}

// ingestLoop sends open-loop batches of random edges between existing
// vertices, drawn from the seed, until stop closes.
func (p *phase) ingestLoop(ctx context.Context, seed int64, stop <-chan struct{}, inflight *sync.WaitGroup) {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	ids := p.env.ids
	due := p.started
	for k := 0; ; k++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / p.spec.ingestRate * float64(time.Second)))
		edges := make([]nxgraph.Edge, p.spec.batchEdges)
		var body []byte
		body = append(body, `{"add":[`...)
		for i := range edges {
			src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			edges[i] = nxgraph.Edge{Src: uint32(src), Dst: uint32(dst)}
			if i > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, `{"src":%d,"dst":%d}`, src, dst)
		}
		body = append(body, "]}"...)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		p.late(time.Since(due))
		inflight.Add(1)
		go func(k int, due time.Time) {
			defer inflight.Done()
			err := p.env.cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/edges", body, http.StatusAccepted, nil)
			lat := ms(time.Since(due))
			p.count("ingest", err)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.ingestLat = append(p.ingestLat, lat)
			p.acked[k] = edges
			p.mu.Unlock()
		}(k, due)
	}
}

// sample records resident memory every 100 ms and, on the mixed
// workload, the pending delta count and, every 5 s, the compaction
// jobs. The server keeps the last 1000 jobs, far more than a run makes
// in 5 s, and listing them all costs the server CPU the queries share.
func (p *phase) sample(ctx context.Context) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for k := 0; ; k++ {
		rss := residentMB()
		p.mu.Lock()
		p.peakRSS = max(p.peakRSS, rss)
		p.mu.Unlock()
		if p.spec.ingestRate > 0 {
			var info struct {
				Pending int `json:"pending_deltas"`
			}
			err := p.env.cl.do(ctx, http.MethodGet, "/v1/graphs/"+graphName, nil, http.StatusOK, &info)
			if ctx.Err() != nil {
				return
			}
			p.count("sample", err)
			if err == nil {
				p.mu.Lock()
				p.pending = append(p.pending, float64(info.Pending))
				p.mu.Unlock()
			}
			if k%50 == 49 {
				p.scanCompactions(ctx)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// scanCompactions records the run time of every finished compaction
// job still in the server's job list.
func (p *phase) scanCompactions(ctx context.Context) {
	var list struct {
		Jobs []jobSnapshot `json:"jobs"`
	}
	err := p.env.cl.do(ctx, http.MethodGet, "/v1/jobs", nil, http.StatusOK, &list)
	if ctx.Err() != nil {
		return
	}
	p.count("sample", err)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, j := range list.Jobs {
		if j.Algo == "compact" && j.State == "done" && j.StartedAt != nil && j.FinishedAt != nil &&
			!j.SubmittedAt.Before(p.started) {
			p.compactions[j.ID] = ms(j.FinishedAt.Sub(*j.StartedAt))
		}
	}
}
