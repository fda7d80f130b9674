package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	nxgraph "nxgraph"
	"nxgraph/internal/blockcache"
)

// runServe is the serve-query and serve-mixed workload.
func runServe(ctx context.Context, o options, spec serveSpec, rep *report) error {
	kept, setups, builds, err := setupAll(o, serveSetups, func(i int, traced bool) (closer, float64, error) {
		return setupServe(ctx, o.sub(i), o.seed, traced)
	})
	if err != nil {
		return err
	}
	defer closeAll(kept)
	rep.setN("setup_s", median(setups), len(setups))
	rep.setN("preprocess.build_s", median(builds), len(builds))

	if !o.traced {
		env := kept[0].(*serveEnv)
		p, err := runLoad(ctx, env, spec, o.seed, o.duration(), false, true)
		if err != nil {
			return err
		}
		p.tally(rep)
		q := summarize(p.queryLat)
		rep.set("op.p50_ms", q.P50, q.String())
		rep.set("op.rate_per_s", ratio(float64(p.burstN), p.burstSecs), fmt.Sprintf("%d burst queries drained in %.2f s", p.burstN, p.burstSecs))
		rep.setN("aux.p50_ms", median(p.fetchMS), len(p.fetchMS))
		rep.setN("mem.peak_rss_mb", p.peakRSS, len(p.queryLat))
		return checkServe(ctx, env, p, rep)
	}

	// Traced: an untraced stretch on its own server first, for the
	// tracing overhead, then the traced run that gives every per-layer
	// number.
	plainEnv, env := kept[0].(*serveEnv), kept[1].(*serveEnv)
	plain, err := runLoad(ctx, plainEnv, spec, o.seed, o.duration()/3, false, false)
	if err != nil {
		return err
	}
	plain.tally(rep)
	plainEnv.close()
	p, err := runLoad(ctx, env, spec, o.seed, o.duration(), true, true)
	if err != nil {
		return err
	}
	p.tally(rep)
	if err := serveLayers(rep, p); err != nil {
		return err
	}
	rep.set("trace.overhead_pct", 100*(median(p.runMS)/median(plain.runMS)-1),
		fmt.Sprintf("server.run_ms p50, n=%d traced vs n=%d untraced", len(p.runMS), len(plain.runMS)))
	if err := checkServe(ctx, env, p, rep); err != nil {
		return err
	}
	// The store-level timings run on the closed server's final store.
	if err := storageLayer(rep, env.dir); err != nil {
		return err
	}
	pending := int(math.Round(mean(p.pending)))
	compile, n, err := timeOverlayCompile(env.dir, pending, o.seed)
	if err != nil {
		return err
	}
	rep.set("dynamic.overlay_compile_ms", compile, fmt.Sprintf("n=%d at %d pending ops", n, pending))
	return nil
}

func (p *phase) tally(rep *report) {
	for k, c := range p.ops {
		t := rep.op(k)
		t.Attempted += c.Attempted
		t.Failed += c.Failed
	}
}

// serveLayers derives the per-layer metrics of a traced serving phase
// from job snapshots, /metrics, sampled run traces and the block cache
// counters.
func serveLayers(rep *report, p *phase) error {
	before, after := p.metrics[0], p.metrics[1]
	sub := summarize(p.submitMS)
	rep.setN("server.submit_ms", sub.P50, sub.N)
	qw := summarize(p.queueMS)
	rep.set("server.queue_wait_ms.p50", qw.P50, qw.String())
	rep.set("server.queue_wait_ms.tail", qw.Tail, qw.String())
	run := summarize(p.runMS)
	rep.set("server.run_ms.p50", run.P50, run.String())
	rep.setN("server.fused_width_mean", mean(p.widths), len(p.widths))
	var fused int
	for _, w := range p.widths {
		if w > 1 {
			fused++
		}
	}
	rep.set("server.fused_share", ratio(float64(fused), float64(len(p.widths))),
		fmt.Sprintf("n=%d; nxserve_fused_jobs_total grew %.0f", len(p.widths), after.delta(before, "nxserve_fused_jobs_total")))
	hits, misses := after.delta(before, "nxserve_cache_hits_total"), after.delta(before, "nxserve_cache_misses_total")
	rep.setN("server.result_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	rep.setN("server.result_fetch_ms", median(p.fetchMS), len(p.fetchMS))
	rep.setN("server.rejected", float64(p.rejected), int(p.queries))

	var tt traceTotals
	for _, tl := range p.traces {
		tt.add(tl)
	}
	if tt.drops > 0 {
		return fmt.Errorf("traced run dropped %d spans: raise the span ring", tt.drops)
	}
	runs := fmt.Sprintf("%d sampled runs, %d iterations", tt.runs, tt.iters)
	rep.set("engine.compute_ms_per_iter", tt.perIterMS(tt.computeUS), runs)
	rep.set("engine.stall_ms_per_iter", tt.perIterMS(tt.stallUS), runs)
	rep.set("engine.gather_ms_per_iter", tt.perIterMS(tt.gatherUS), runs)
	rep.set("engine.apply_ms_per_iter", tt.perIterMS(tt.applyUS), runs)
	rep.set("engine.overlay_ms_per_run", ratio(float64(tt.overlayUS)/1e3, float64(tt.runs)), runs)
	rep.set("engine.mteps", ratio(float64(tt.edges), float64(tt.runUS)), runs)
	rep.set("diskio.read_bytes_per_iter", ratio(float64(tt.bytesRead), float64(tt.iters)), runs)
	rep.set("diskio.write_bytes_per_iter", ratio(float64(tt.bytesWritten), float64(tt.iters)), runs)
	rep.set("diskio.block_reads_per_iter", tt.perIter(tt.blockReads), runs)

	iters := after.delta(before, "nxserve_iteration_duration_seconds_count")
	cacheLayer(rep, p.blocks[0], p.blocks[1], iters)

	appends, fsyncs := after.delta(before, "nxserve_wal_appends_total"), after.delta(before, "nxserve_wal_fsyncs_total")
	rep.setN("wal.fsyncs_per_append", ratio(fsyncs, appends), int(appends))
	fsyncN := after.delta(before, "nxserve_wal_fsync_seconds_count")
	rep.setN("wal.fsync_ms_mean", 1e3*ratio(after.delta(before, "nxserve_wal_fsync_seconds_sum"), fsyncN), int(fsyncN))
	ing := summarize(p.ingestLat)
	rep.set("ingest.p50_ms", ing.P50, ing.String())
	rep.set("ingest.tail_ms", ing.Tail, ing.String())

	rep.setN("dynamic.pending_deltas_mean", mean(p.pending), len(p.pending))
	var compactMS []float64
	for _, d := range p.compactions {
		compactMS = append(compactMS, d)
	}
	rep.set("compaction.count", after.delta(before, "nxserve_compactions_completed_total"),
		fmt.Sprintf("%d seen in /v1/jobs", len(compactMS)))
	rep.setN("compaction.ms.p50", median(compactMS), len(compactMS))

	rep.set("client.late_ms_max", p.lateMax, "open-loop dispatchers")
	rep.setN("client.requests_per_query", ratio(float64(p.queryReqs), float64(p.queries)), int(p.queries))
	return nil
}

// cacheLayer reports the block cache counters grown between two
// snapshots, per iteration run.
func cacheLayer(rep *report, before, after blockcache.Stats, iters float64) {
	hits, l2, misses := after.Hits-before.Hits, after.L2Hits-before.L2Hits, after.Misses-before.Misses
	n := fmt.Sprintf("%d lookups", hits+l2+misses)
	rep.set("blockcache.l1_hit_ratio", ratio(float64(hits), float64(hits+l2+misses)), n)
	rep.set("blockcache.l2_hit_ratio", ratio(float64(l2), float64(l2+misses)), n)
	rep.set("blockcache.evictions_per_iter", ratio(float64(after.Evictions-before.Evictions), iters),
		fmt.Sprintf("%.0f iterations", iters))
}

// storageLayer times the storage layer on its own handle of the store
// under dir.
func storageLayer(rep *report, dir string) error {
	sp, err := timeStorage(dir, 300*time.Millisecond)
	if err != nil {
		return err
	}
	n := fmt.Sprintf("%d passes, %d edges", sp.passes, sp.edges)
	rep.set("storage.read_ms_per_pass", sp.readMS, n)
	rep.set("storage.decode_ms_per_pass", sp.decodeMS, n)
	rep.set("storage.decode_ns_per_edge", ratio(sp.decodeMS*1e6, float64(sp.edges)), n)
	rep.set("storage.bytes_per_edge", ratio(float64(sp.rawBytes), float64(sp.edges)), n)
	return nil
}

// modelLayer divides measured bytes per iteration by the Table II
// prediction for the strategy the run reported.
func modelLayer(rep *report, dir, strategy string, budget int64, read, write float64) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	want := modelIO(st, strategy, budget)
	n := fmt.Sprintf("%s: predicted %.0f B read, %.0f B written per iteration", strategy, want.Read, want.Write)
	rep.set("model.read_ratio", ratio(read, want.Read), n)
	rep.set("model.write_ratio", ratio(write, want.Write), n)
	return nil
}

// checkServe checks the served outputs and closes env. serve-query
// compares its sampled PPR and BFS results bit for bit with the
// library's scalar runs on the same store. serve-mixed, once quiet,
// compares a served PageRank before and after a final compaction with
// one on a store rebuilt from the base edges plus every acked batch.
func checkServe(ctx context.Context, env *serveEnv, p *phase, rep *report) error {
	if p.spec.ingestRate > 0 {
		return checkMixed(ctx, env, p, rep)
	}
	env.close()
	g, err := nxgraph.Open(env.dir, nxgraph.Options{})
	if err != nil {
		return err
	}
	defer g.Close()
	if len(p.samples) == 0 {
		rep.mismatch("serve-query: no result was sampled")
	}
	for _, s := range p.samples {
		var res *nxgraph.Result
		if s.q.algo == "ppr" {
			res, err = g.PersonalizedPageRank(s.q.root, damping, 20)
		} else {
			res, err = g.BFS(s.q.root)
		}
		if err != nil {
			return err
		}
		rep.op("verify").Attempted++
		want := res.Attrs
		if s.q.algo == "bfs" {
			want = append([]float64(nil), want...)
			for i, v := range want {
				if math.IsInf(v, 1) {
					want[i] = -1 // the server's spelling of unreachable
				}
			}
		}
		if !bitIdentical(want, s.values) {
			rep.mismatch("serve-query: served %s from root %d differs from the library's scalar run", s.q.algo, s.q.root)
		}
	}
	return nil
}

func checkMixed(ctx context.Context, env *serveEnv, p *phase, rep *report) error {
	if err := waitCompactions(ctx, env); err != nil {
		return err
	}
	before, err := servedPageRank(ctx, env)
	if err != nil {
		return err
	}
	var snap jobSnapshot
	if err := env.cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/compact", nil, http.StatusAccepted, &snap); err != nil {
		return fmt.Errorf("final compaction: %w", err)
	}
	if _, _, err := env.wait(ctx, snap.ID); err != nil {
		return fmt.Errorf("final compaction: %w", err)
	}
	after, err := servedPageRank(ctx, env)
	if err != nil {
		return err
	}
	env.close()
	afterIDs, err := storeIDs(env.dir)
	if err != nil {
		return err
	}

	ref := &nxgraph.EdgeList{NumVertices: env.base.NumVertices, Edges: append([]nxgraph.Edge(nil), env.base.Edges...)}
	for _, edges := range p.acked {
		ref.Edges = append(ref.Edges, edges...)
	}
	g, err := nxgraph.Build(filepath.Join(filepath.Dir(env.dir), "reference"), ref, nxgraph.Options{})
	if err != nil {
		return err
	}
	defer g.Close()
	res, err := g.PageRank(damping, 10)
	if err != nil {
		return err
	}
	refIDs, err := g.RemapTable()
	if err != nil {
		return err
	}
	want := byOrig(refIDs, res.Attrs)
	for _, c := range []struct {
		when string
		got  map[uint64]float64
	}{{"before the final compaction", byOrig(before.ids, before.values)}, {"after it", byOrig(afterIDs, after.values)}} {
		rep.op("verify").Attempted++
		if msg := sameRanks(want, c.got, 1e-9); msg != "" {
			rep.mismatch("serve-mixed: served PageRank %s: %s", c.when, msg)
		}
	}
	return nil
}

// waitCompactions waits until no compaction job is pending or running.
func waitCompactions(ctx context.Context, env *serveEnv) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var list struct {
			Jobs []jobSnapshot `json:"jobs"`
		}
		if err := env.cl.do(ctx, http.MethodGet, "/v1/jobs", nil, http.StatusOK, &list); err != nil {
			return err
		}
		busy := false
		for _, j := range list.Jobs {
			busy = busy || (j.Algo == "compact" && !j.terminal())
		}
		if !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction still running after 60s")
		}
		if err := sleepCtx(ctx, 50*time.Millisecond); err != nil {
			return err
		}
	}
}

type servedRanks struct {
	ids    []uint64
	values []float64
}

// servedPageRank runs a 10-iteration PageRank job on the quiet server
// and returns it with the dense-to-original id map of the store it ran
// on.
func servedPageRank(ctx context.Context, env *serveEnv) (servedRanks, error) {
	ids, err := storeIDs(env.dir)
	if err != nil {
		return servedRanks{}, err
	}
	var snap jobSnapshot
	body := []byte(`{"algo":"pagerank","params":{"iters":10}}`)
	if err := env.cl.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/jobs", body, http.StatusAccepted, &snap); err != nil {
		return servedRanks{}, err
	}
	if _, _, err := env.wait(ctx, snap.ID); err != nil {
		return servedRanks{}, err
	}
	var full struct {
		Values []float64 `json:"values"`
	}
	if err := env.cl.do(ctx, http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, http.StatusOK, &full); err != nil {
		return servedRanks{}, err
	}
	return servedRanks{ids: ids, values: full.Values}, nil
}

func storeIDs(dir string) ([]uint64, error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.IDMap()
}

func byOrig(ids []uint64, values []float64) map[uint64]float64 {
	out := make(map[uint64]float64, len(values))
	for v, x := range values {
		if v < len(ids) {
			out[ids[v]] = x
		}
	}
	return out
}

// sameRanks compares ranks keyed by original id, as the repository's
// overlay-against-rebuild tests do, and describes the first difference.
func sameRanks(want, got map[uint64]float64, tol float64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d vertices, reference has %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return fmt.Sprintf("vertex %d missing", id)
		}
		if math.Abs(w-g) > tol {
			return fmt.Sprintf("vertex %d rank %g, reference %g", id, g, w)
		}
	}
	return ""
}
