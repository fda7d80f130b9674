package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"nxgraph/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestSummarizePercentileRule(t *testing.T) {
	cases := []struct {
		n             int
		p50, tail     float64
		tailPct       float64
		beyondAtLeast int
	}{
		{n: 1000, p50: 500, tail: 990, tailPct: 99, beyondAtLeast: 10},
		{n: 2000, p50: 1000, tail: 1980, tailPct: 99, beyondAtLeast: 20},
		{n: 200, p50: 100, tail: 190, tailPct: 95, beyondAtLeast: 10},
		{n: 11, p50: 6, tail: 6, tailPct: 100 * 6.0 / 11, beyondAtLeast: 5},
		{n: 5, p50: 3, tail: 3, tailPct: 60, beyondAtLeast: 2},
		{n: 1, p50: 1, tail: 1, tailPct: 100, beyondAtLeast: 0},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.Tail != c.tail || s.TailPct != c.tailPct {
			t.Errorf("n=%d: got %+v, want p50=%v tail=%v at p%v", c.n, s, c.p50, c.tail, c.tailPct)
		}
		if beyond := c.n - int(s.Tail); beyond < c.beyondAtLeast {
			t.Errorf("n=%d: %d samples beyond the tail, want >= %d", c.n, beyond, c.beyondAtLeast)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty input: got %+v", s)
	}
}

// The tail is the highest percentile, at most p99, with at least ten
// samples beyond it, whenever there are enough samples for that.
func TestSummarizeTailKeepsTenBeyond(t *testing.T) {
	for n := 21; n <= 3000; n += 37 {
		xs := seq(n)
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 || s.TailPct > 99+100/float64(n) {
			t.Fatalf("n=%d: tail p%.2f has %d samples beyond it", n, s.TailPct, beyond)
		}
		if beyond > 10 && s.TailPct < 99 {
			t.Fatalf("n=%d: tail p%.2f is not the highest percentile with 10 beyond (%d beyond)", n, s.TailPct, beyond)
		}
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	d := 20 * time.Second
	a, b := schedule(7, 50, d), schedule(7, 50, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 50, d)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, off := range a {
		if off < 0 || off >= d || (i > 0 && off < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, off, d)
		}
	}
	// Poisson count: mean 1000, standard deviation ~32.
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 20s at 50/s", n)
	}
	if !reflect.DeepEqual(makeQueries(7, 1000, 500), makeQueries(7, 1000, 500)) {
		t.Fatal("same seed gave different query streams")
	}
	ppr := 0
	for _, q := range makeQueries(7, 1000, 4000) {
		if q.algo == "ppr" {
			ppr++
		}
		if q.root >= 1000 {
			t.Fatalf("root %d out of range", q.root)
		}
	}
	if ppr < 2800 || ppr > 3200 {
		t.Fatalf("%d of 4000 queries are PPR, want about 3000", ppr)
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for name := range workloads {
		if !validName(name) || seen[name] {
			t.Errorf("workload name %q is invalid or repeated", name)
		}
		seen[name] = true
	}
	setupBound := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setupBound {
			t.Errorf("setup_s must have the largest bound; %s has %v > %v", d.Name, d.Bound, setupBound)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" || d.Bound != 0 {
			t.Errorf("per-layer metric %s needs a layer and a prediction, and no bound", d.Name)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "ü", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Trim(workloadNames(), "[]"); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", got, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Kind: trace.KindIteration, StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Kind: trace.KindGather, StartUS: 10, DurUS: 30},
		{ID: 3, Parent: 1, Kind: trace.KindGather, StartUS: 30, DurUS: 30}, // overlaps the first
		{ID: 4, Parent: 2, Kind: trace.KindBlockLoad, StartUS: 15, DurUS: 5},
		{ID: 5, Parent: 1, Kind: trace.KindApply, StartUS: 90, DurUS: 20}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 25, 30, 5, 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP nxserve_jobs_completed_total Jobs.
# TYPE nxserve_jobs_completed_total counter
nxserve_jobs_completed_total 12
nxserve_wal_fsync_seconds_bucket{le="0.001"} 3
nxserve_wal_fsync_seconds_bucket{le="+Inf"} 4
nxserve_wal_fsync_seconds_sum 0.0125
nxserve_build_info{version="dev build"} 1
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p["nxserve_jobs_completed_total"] != 12 || p["nxserve_wal_fsync_seconds_sum"] != 0.0125 ||
		p["nxserve_wal_fsync_seconds_bucket"] != 7 || p["nxserve_build_info"] != 1 {
		t.Fatalf("parsed %v", p)
	}
	if d := p.delta(promText{"nxserve_jobs_completed_total": 2}, "nxserve_jobs_completed_total"); d != 10 {
		t.Fatalf("delta %v", d)
	}
}

func TestReportLastLineIsTheResult(t *testing.T) {
	rep := newReport(false)
	for i, d := range endToEnd {
		rep.setN(d.Name, float64(i)+0.5, 3)
	}
	rep.op("query").Attempted = 5
	rep.op("query").Failed = 1
	var out bytes.Buffer
	if err := rep.write(&out, "serve-query"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", keys)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Fatalf("metrics %v (%v)", metrics, err)
	}
	if string(res["attempted"]) != "5" || string(res["failed"]) != "1" || string(res["correct"]) != "true" {
		t.Fatalf("result %s", lines[len(lines)-1])
	}

	missing := newReport(false)
	missing.op("query").Attempted = 1
	if err := missing.write(&out, "serve-query"); err == nil {
		t.Fatal("a report missing end-to-end metrics was written")
	}
	zero := newReport(false)
	for _, d := range endToEnd {
		zero.setN(d.Name, 0, 0)
	}
	zero.op("query").Attempted = 1
	if err := zero.write(&out, "serve-query"); err == nil {
		t.Fatal("a report with end-to-end metrics of 0 was written")
	}
	bad := newReport(false)
	for _, d := range endToEnd {
		bad.setN(d.Name, 1, 1)
	}
	bad.op("query").Attempted = 1
	bad.mismatch("x")
	out.Reset()
	if err := bad.write(&out, "serve-query"); err != nil || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("mismatch not reported: %v %s", err, out.String())
	}
}
