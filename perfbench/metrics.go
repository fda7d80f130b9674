package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. End-to-end metrics carry the
// bound by which a change may worsen them; per-layer metrics name the
// layer they observe and the end-to-end metric they should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd is what a user of nxgraph sees. Every workload reports every
// one of them; op and aux name the workload's main and secondary
// operation (see README.md for the table). Bounds are the largest
// allowed: on a shared 2-vCPU machine every timing moved 10-30% between
// runs with the host's load.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op.p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op.rate_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "aux.p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem.peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is measured in the traced run, from outside each layer. A
// layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "op.p50_ms on serve-query"},
	{Name: "server.queue_wait_ms.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op.p50_ms on serve-query and serve-mixed"},
	{Name: "server.queue_wait_ms.tail", Unit: "ms", Better: "lower", Layer: "server", Moves: "op.p50_ms on serve-query and serve-mixed"},
	{Name: "server.run_ms.p50", Unit: "ms", Better: "lower", Layer: "server", Moves: "op.p50_ms on serve-query and serve-mixed"},
	{Name: "server.fused_width_mean", Unit: "count", Better: "higher", Layer: "server", Moves: "op.rate_per_s on serve-query, op.p50_ms on serve-mixed"},
	{Name: "server.fused_share", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op.rate_per_s on serve-query, op.p50_ms on serve-mixed"},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "server", Moves: "op.p50_ms on serve-query"},
	{Name: "server.result_fetch_ms", Unit: "ms", Better: "lower", Layer: "server", Moves: "aux.p50_ms on serve-query and serve-mixed"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Layer: "server", Moves: "failed count on serve-query and serve-mixed"},
	{Name: "engine.compute_ms_per_iter", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op.p50_ms on pagerank-ooc, server.run_ms.p50 on serve-query"},
	{Name: "engine.stall_ms_per_iter", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op.p50_ms on pagerank-ooc, server.run_ms.p50 on serve-query"},
	{Name: "engine.gather_ms_per_iter", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op.p50_ms on pagerank-ooc, server.run_ms.p50 on serve-query"},
	{Name: "engine.apply_ms_per_iter", Unit: "ms", Better: "lower", Layer: "engine", Moves: "op.p50_ms on pagerank-ooc, server.run_ms.p50 on serve-query"},
	{Name: "engine.overlay_ms_per_run", Unit: "ms", Better: "lower", Layer: "engine", Moves: "server.run_ms.p50 on serve-mixed; about 0 on serve-query"},
	{Name: "engine.mteps", Unit: "Medge/s", Better: "higher", Layer: "engine", Moves: "op.rate_per_s on pagerank-ooc"},
	{Name: "blockcache.l1_hit_ratio", Unit: "ratio", Better: "higher", Layer: "blockcache", Moves: "op.p50_ms on pagerank-ooc; about 1 and no change on serve-query"},
	{Name: "blockcache.l2_hit_ratio", Unit: "ratio", Better: "higher", Layer: "blockcache", Moves: "op.p50_ms on pagerank-ooc; no change on serve-query"},
	{Name: "blockcache.evictions_per_iter", Unit: "count", Better: "lower", Layer: "blockcache", Moves: "op.p50_ms on pagerank-ooc; no change on serve-query"},
	{Name: "storage.read_ms_per_pass", Unit: "ms", Better: "lower", Layer: "storage", Moves: "op.p50_ms on pagerank-ooc; nothing on serve-query"},
	{Name: "storage.decode_ms_per_pass", Unit: "ms", Better: "lower", Layer: "storage", Moves: "op.p50_ms on pagerank-ooc; nothing on serve-query"},
	{Name: "storage.decode_ns_per_edge", Unit: "ns", Better: "lower", Layer: "storage", Moves: "op.p50_ms on pagerank-ooc; nothing on serve-query"},
	{Name: "storage.bytes_per_edge", Unit: "B", Better: "lower", Layer: "storage", Moves: "diskio.read_bytes_per_iter and op.p50_ms on pagerank-ooc"},
	{Name: "diskio.read_bytes_per_iter", Unit: "B", Better: "lower", Layer: "diskio", Moves: "op.p50_ms on pagerank-ooc"},
	{Name: "diskio.write_bytes_per_iter", Unit: "B", Better: "lower", Layer: "diskio", Moves: "op.p50_ms on pagerank-ooc"},
	{Name: "diskio.block_reads_per_iter", Unit: "count", Better: "lower", Layer: "diskio", Moves: "op.p50_ms on pagerank-ooc"},
	{Name: "model.read_ratio", Unit: "ratio", Better: "lower", Layer: "model", Moves: "nothing; a drift from its old value flags a strategy bug"},
	{Name: "model.write_ratio", Unit: "ratio", Better: "lower", Layer: "model", Moves: "nothing; a drift from its old value flags a strategy bug"},
	{Name: "wal.fsyncs_per_append", Unit: "ratio", Better: "lower", Layer: "wal", Moves: "ingest.p50_ms on serve-mixed"},
	{Name: "wal.fsync_ms_mean", Unit: "ms", Better: "lower", Layer: "wal", Moves: "ingest.p50_ms on serve-mixed"},
	{Name: "ingest.p50_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "the ingest path's own latency on serve-mixed, due to 202; ungated, see README"},
	{Name: "ingest.tail_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "the ingest path's own latency on serve-mixed, due to 202; ungated, see README"},
	{Name: "dynamic.pending_deltas_mean", Unit: "count", Better: "lower", Layer: "dynamic", Moves: "op.p50_ms on serve-mixed"},
	{Name: "dynamic.overlay_compile_ms", Unit: "ms", Better: "lower", Layer: "dynamic", Moves: "op.p50_ms on serve-mixed"},
	{Name: "compaction.count", Unit: "count", Better: "lower", Layer: "preprocess", Moves: "ingest.tail_ms and op.p50_ms on serve-mixed"},
	{Name: "compaction.ms.p50", Unit: "ms", Better: "lower", Layer: "preprocess", Moves: "ingest.tail_ms and op.p50_ms on serve-mixed"},
	{Name: "preprocess.build_s", Unit: "s", Better: "lower", Layer: "preprocess", Moves: "setup_s on every workload"},
	{Name: "client.late_ms_max", Unit: "ms", Better: "lower", Layer: "client", Moves: "nothing; a large value means the load generator, not nxgraph, fell behind"},
	{Name: "client.requests_per_query", Unit: "count", Better: "lower", Layer: "client", Moves: "nothing; bounds the poll traffic the client adds"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Moves: "nothing; the cost of tracing, traced run against untraced run"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return nameRE.MatchString(s) }

// summary reduces a timing distribution by the benchmark's rule: the
// median, and the highest percentile (at most p99) that still has at
// least ten samples beyond it. Both use nearest rank, so every value is
// one that was measured.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := (n + 1) / 2 // nearest rank of p50
	rank := int(math.Ceil(0.99 * float64(n)))
	if n-rank < 10 {
		rank = n - 10
	}
	if rank < mid {
		rank = mid
	}
	return summary{N: n, P50: s[mid-1], Tail: s[rank-1], TailPct: 100 * float64(rank) / float64(n)}
}

func (s summary) String() string {
	return fmt.Sprintf("p50=%.3f p%.2f=%.3f n=%d", s.P50, s.TailPct, s.Tail, s.N)
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns num/den, or 0 when there was nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opCount tallies one operation kind. A request that errors, times out
// or returns an unexpected status counts as failed, never as missing.
type opCount struct {
	Attempted int64
	Failed    int64
}

// report collects one run's metrics, their sample counts, the
// operation tallies and any correctness mismatch.
type report struct {
	traced     bool
	values     map[string]float64
	samples    map[string]string
	ops        map[string]*opCount
	mismatches []string
}

func newReport(traced bool) *report {
	r := &report{traced: traced, values: map[string]float64{}, samples: map[string]string{}, ops: map[string]*opCount{}}
	for _, d := range perLayer {
		r.values[d.Name] = 0 // layers a workload bypasses read 0
	}
	return r
}

func (r *report) set(name string, v float64, samples string) {
	r.values[name] = v
	r.samples[name] = samples
}

func (r *report) setN(name string, v float64, n int) { r.set(name, v, fmt.Sprintf("n=%d", n)) }

func (r *report) op(kind string) *opCount {
	c, ok := r.ops[kind]
	if !ok {
		c = &opCount{}
		r.ops[kind] = c
	}
	return c
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// defs returns the metrics this run reports: end-to-end untraced,
// per-layer traced.
func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// write prints the human-readable table and then, as the last line, the
// JSON result.
func (r *report) write(w io.Writer, workload string) error {
	fmt.Fprintf(w, "workload %s (traced=%v)\n", workload, r.traced)
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var attempted, failed int64
	for _, k := range kinds {
		c := r.ops[k]
		attempted += c.Attempted
		failed += c.Failed
		fmt.Fprintf(w, "  op %-16s attempted=%d failed=%d\n", k, c.Attempted, c.Failed)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range r.defs() {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!r.traced && v <= 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s %s\n", d.Name, v, d.Unit, r.samples[d.Name])
		metrics[d.Name] = value{v, d.Unit}
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
	if attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.mismatches) == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
