package main

import (
	"context"
	"fmt"
	"math"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/diskio"
	"nxgraph/internal/refalgo"
	"nxgraph/internal/testutil"
)

// Sizes of pagerank-ooc: a scale-18 RMAT with edge factor 16 (about
// 4.2M edges, ~8 MB of v2 sub-shards) under a 2 MiB memory budget, so
// Auto picks MPU and the block cache cannot hold the graph.
const (
	oocScale      = 18
	oocEdgeFactor = 16
	oocBudget     = 2 << 20
	oocIters      = 20
	oocSpans      = 1 << 17
	oocSetups     = 3 // set-ups per run; setup_s is their median
	damping       = 0.85
)

type oocEnv struct {
	dir  string
	g    *nxgraph.Graph
	base *nxgraph.EdgeList
}

// setupOOC generates the graph, builds its store, opens it through the
// library and warms it with one short run.
func setupOOC(ctx context.Context, dir string, seed int64, traced bool) (*oocEnv, float64, error) {
	el, err := nxgraph.Generate(nxgraph.RMAT(oocScale, oocEdgeFactor, seed))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	g, err := nxgraph.Build(dir, el, nxgraph.Options{MemoryBudget: oocBudget})
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0).Seconds()
	if err := g.Close(); err != nil {
		return nil, 0, err
	}
	spans := -1
	if traced {
		spans = oocSpans
	}
	g, err = nxgraph.Open(dir, nxgraph.Options{MemoryBudget: oocBudget, TraceSpans: spans})
	if err != nil {
		return nil, 0, err
	}
	if _, err := g.PageRankContext(ctx, damping, 2, nil); err != nil {
		g.Close()
		return nil, 0, err
	}
	return &oocEnv{dir: dir, g: g, base: el}, build, nil
}

// oocRun is what repeated PageRank rounds on one handle measured.
type oocRun struct {
	iterMS, roundMS []float64
	roundRates      []float64 // iterations per second of each round
	iters           int
	edges           int64
	elapsed         time.Duration
	strategy        string
	first           []float64
	mismatches      int
	io              [2]diskio.StatsSnapshot
	cache           [2]nxgraph.CacheStats
	tt              traceTotals
	peakRSS         float64
}

// begin starts a measurement on e; end closes it.
func (e *oocEnv) begin() *oocRun {
	r := &oocRun{}
	r.io[0], r.cache[0] = e.g.IOStats(), e.g.CacheStats()
	return r
}

func (e *oocEnv) end(r *oocRun) { r.io[1], r.cache[1] = e.g.IOStats(), e.g.CacheStats() }

// round runs one 20-iteration PageRank into r, checking that it is
// bit-identical to r's first round.
func (e *oocEnv) round(ctx context.Context, r *oocRun) error {
	var last time.Duration
	t0 := time.Now()
	res, err := e.g.PageRankContext(ctx, damping, oocIters, func(p nxgraph.Progress) {
		if p.Iteration > 1 { // the first iteration also carries the run's set-up
			r.iterMS = append(r.iterMS, ms(p.Elapsed-last))
		}
		last = p.Elapsed
	})
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	r.roundMS = append(r.roundMS, ms(wall))
	r.roundRates = append(r.roundRates, float64(res.Iterations)/wall.Seconds())
	r.iters += res.Iterations
	r.edges += res.EdgesTraversed
	r.elapsed += res.Elapsed
	r.strategy = res.Strategy.String()
	if res.Trace != nil {
		r.tt.add(res.Trace.Snapshot())
	}
	if r.first == nil {
		r.first = res.Attrs
	} else if !bitIdentical(r.first, res.Attrs) {
		r.mismatches++
	}
	r.peakRSS = max(r.peakRSS, residentMB())
	return nil
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runOOC is the pagerank-ooc workload.
func runOOC(ctx context.Context, o options, rep *report) error {
	envs, setups, builds, err := setupAll(o, oocSetups, func(i int, traced bool) (closer, float64, error) {
		return setupOOC(ctx, o.sub(i), o.seed, traced)
	})
	if err != nil {
		return err
	}
	defer closeAll(envs)
	rep.setN("setup_s", median(setups), len(setups))
	rep.setN("preprocess.build_s", median(builds), len(builds))

	if !o.traced {
		env := envs[0].(*oocEnv)
		r := env.begin()
		for start := time.Now(); time.Since(start) < o.duration(); {
			if err := env.round(ctx, r); err != nil {
				return err
			}
		}
		env.end(r)
		rep.op("pagerank-round").Attempted += int64(len(r.roundMS))
		s := summarize(r.iterMS)
		rep.set("op.p50_ms", s.P50, s.String())
		rep.setN("op.rate_per_s", median(r.roundRates), len(r.roundRates))
		rep.setN("aux.p50_ms", median(r.roundMS), len(r.roundMS))
		rep.setN("mem.peak_rss_mb", r.peakRSS, len(r.roundMS))
		return checkOOC(env, r, rep)
	}

	// Traced: rounds alternate between an untraced handle, for the
	// tracing overhead, and the traced one that gives every per-layer
	// number.
	plainEnv, env := envs[0].(*oocEnv), envs[1].(*oocEnv)
	plain, r := plainEnv.begin(), env.begin()
	for start := time.Now(); time.Since(start) < o.duration(); {
		if err := plainEnv.round(ctx, plain); err != nil {
			return err
		}
		if err := env.round(ctx, r); err != nil {
			return err
		}
	}
	plainEnv.end(plain)
	env.end(r)
	rep.op("pagerank-round").Attempted += int64(len(r.roundMS) + len(plain.roundMS))
	if r.tt.drops > 0 {
		return fmt.Errorf("traced run dropped %d spans: raise the span ring", r.tt.drops)
	}
	iters := float64(r.iters)
	tt := &r.tt
	rep.setN("engine.compute_ms_per_iter", tt.perIterMS(tt.computeUS), tt.iters)
	rep.setN("engine.stall_ms_per_iter", tt.perIterMS(tt.stallUS), tt.iters)
	rep.setN("engine.gather_ms_per_iter", tt.perIterMS(tt.gatherUS), tt.iters)
	rep.setN("engine.apply_ms_per_iter", tt.perIterMS(tt.applyUS), tt.iters)
	rep.setN("engine.overlay_ms_per_run", ratio(float64(tt.overlayUS)/1e3, float64(tt.runs)), tt.runs)
	rep.setN("engine.mteps", ratio(float64(r.edges)/1e6, r.elapsed.Seconds()), len(r.roundMS))
	cacheLayer(rep, r.cache[0], r.cache[1], iters)
	io := r.io[1].Sub(r.io[0])
	rep.setN("diskio.read_bytes_per_iter", float64(io.BytesRead)/iters, r.iters)
	rep.setN("diskio.write_bytes_per_iter", float64(io.BytesWritten)/iters, r.iters)
	rep.setN("diskio.block_reads_per_iter", tt.perIter(tt.blockReads), tt.iters)
	if err := modelLayer(rep, env.dir, r.strategy, oocBudget, float64(io.BytesRead)/iters, float64(io.BytesWritten)/iters); err != nil {
		return err
	}
	if err := storageLayer(rep, env.dir); err != nil {
		return err
	}
	rep.set("trace.overhead_pct", 100*(median(r.iterMS)/median(plain.iterMS)-1),
		fmt.Sprintf("iteration p50, n=%d traced vs n=%d untraced", len(r.iterMS), len(plain.iterMS)))
	return checkOOC(env, r, rep)
}

// checkOOC fails the run unless every round matched the first bit for
// bit and the first agrees with refalgo.PageRank within the tolerance
// the repository's own tests use.
func checkOOC(env *oocEnv, r *oocRun, rep *report) error {
	if r.mismatches > 0 {
		rep.mismatch("pagerank-ooc: %d rounds differ from the first", r.mismatches)
	}
	want := refalgo.PageRank(testutil.Compact(env.base), damping, oocIters)
	rep.op("verify").Attempted++
	if len(want) != len(r.first) {
		rep.mismatch("pagerank-ooc: %d ranks, reference has %d", len(r.first), len(want))
		return nil
	}
	for v := range want {
		if math.Abs(want[v]-r.first[v]) > 1e-9 {
			rep.mismatch("pagerank-ooc: vertex %d rank %g, reference %g", v, r.first[v], want[v])
			return nil
		}
	}
	return nil
}

func (e *oocEnv) close() { e.g.Close() }
