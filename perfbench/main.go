// Command perfbench is nxgraph's load benchmark. One invocation runs one
// workload, built from a seed, and prints every metric by name and unit
// followed, on its last line, by a JSON result:
//
//	perfbench -workload serve-query -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 the per-layer metrics of a traced run. It checks the
// program's outputs and exits non-zero on any mismatch. README.md
// describes the workloads and what each metric should move.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Rates of the serving workloads, chosen on a 2-core machine. A graph
// runs one job at a time, so the open-loop query rate times the run
// time is the share of queries that queue. It is kept near a quarter,
// so the median query does not wait: near half the fused capacity the
// median sat on the queueing knee and moved 25-30% between runs. Under
// ingest a run takes about 35 ms instead of 25, so serve-mixed asks
// for fewer queries. Its ingest rate still completes about five
// compactions a run; at twice the rate, the ingest and compaction work
// that shares the two cores with each query made it about a tenth
// slower in paired runs. The bursts measure the fused regime.
var (
	serveQuerySpec = serveSpec{queryRate: 12, burst: 256}
	serveMixedSpec = serveSpec{queryRate: 6, ingestRate: 25, batchEdges: 64, burst: 256}
)

var workloads = map[string]func(context.Context, options, *report) error{
	"serve-query": func(ctx context.Context, o options, rep *report) error {
		return runServe(ctx, o, serveQuerySpec, rep)
	},
	"serve-mixed": func(ctx context.Context, o options, rep *report) error {
		return runServe(ctx, o, serveMixedSpec, rep)
	},
	"pagerank-ooc": runOOC,
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds int
	traced  bool
	dir     string // this invocation's scratch directory
}

func (o options) sub(i int) string { return filepath.Join(o.dir, fmt.Sprintf("setup%d", i)) }

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "0 for the untraced run (end-to-end metrics), 1 for the traced run (per-layer metrics)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir}
	rep := newReport(o.traced)
	if err := w(ctx, o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.write(stdout, *workload); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if len(rep.mismatches) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// closer is a workload environment set up by setupAll.
type closer interface{ close() }

// setupAll sets a workload up reps times, timing each, so setup_s is a
// median. It keeps the last environment, and in the traced run
// also the one before it, which runs untraced for the overhead figure.
func setupAll(o options, reps int, setup func(i int, traced bool) (closer, float64, error)) (kept []closer, setups, builds []float64, err error) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		env, build, err := setup(i, o.traced && i == reps-1)
		if err != nil {
			closeAll(kept)
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build)
		if i == reps-1 || (o.traced && i == reps-2) {
			kept = append(kept, env)
		} else {
			env.close()
		}
	}
	// Return setup's garbage to the OS so resident memory measured from
	// here on is the workload's own.
	runtime.GC()
	debug.FreeOSMemory()
	return kept, setups, builds, nil
}

func closeAll(envs []closer) {
	for _, e := range envs {
		e.close()
	}
}
