package engine_test

import (
	"math"
	"strings"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/testutil"
)

// batchRoots is the fused-query fixture: distinct sources spread over
// the id space so lanes hit different frontiers.
var batchRoots = []uint32{0, 3, 7, 11, 19}

// assertBitIdentical fails unless got and want agree bit-for-bit.
func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %v, want %v (fused diverges from scalar)", label, v, got[v], want[v])
		}
	}
}

// strategyConfigs enumerates the three update strategies a sequential
// run can execute under; n sizes the MPU budget to a mid-range Q.
func strategyConfigs(n int) map[string]engine.Config {
	return map[string]engine.Config{
		"spu": {Threads: 3, Strategy: engine.SPU, ChunkDsts: 16},
		"dpu": {Threads: 3, Strategy: engine.DPU, ChunkDsts: 16},
		"mpu": {Threads: 3, Strategy: engine.MPU, MemoryBudget: int64(n) * 8, ChunkDsts: 16},
	}
}

// TestFusedPPREquivalenceAllStrategies is the tentpole property: a fused
// batch of PPR queries produces, per lane, exactly the attributes a
// sequential run of that query produces — under every update strategy
// the sequential run might have used.
func TestFusedPPREquivalenceAllStrategies(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range strategyConfigs(200) {
		t.Run(name, func(t *testing.T) {
			e, _ := buildEngine(t, g, 5, cfg)
			fused, err := algorithms.PersonalizedPageRankBatch(e, batchRoots, 0.85, 6)
			if err != nil {
				t.Fatal(err)
			}
			for i, root := range batchRoots {
				seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 6)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, name+" ppr root "+string(rune('0'+i)), fused[i].Attrs, seq.Attrs)
				if fused[i].Iterations != seq.Iterations {
					t.Fatalf("root %d: fused %d iterations, sequential %d", root, fused[i].Iterations, seq.Iterations)
				}
				if fused[i].EdgesTraversed != seq.EdgesTraversed {
					t.Fatalf("root %d: fused traversed %d edges, sequential %d", root, fused[i].EdgesTraversed, seq.EdgesTraversed)
				}
			}
		})
	}
}

// TestFusedTraversalEquivalence checks BFS (frontier-driven, lanes
// converge at different iterations) and weighted SSSP lanes against
// their sequential runs under every strategy.
func TestFusedTraversalEquivalence(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 11, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 5, Weighted: true, Transpose: true})
	for name, cfg := range strategyConfigs(200) {
		t.Run(name, func(t *testing.T) {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fusedBFS, err := algorithms.BFSBatch(e, batchRoots)
			if err != nil {
				t.Fatal(err)
			}
			fusedSSSP, err := algorithms.SSSPBatch(e, batchRoots)
			if err != nil {
				t.Fatal(err)
			}
			for i, root := range batchRoots {
				seqBFS, err := algorithms.BFS(e, root)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "bfs", fusedBFS[i].Attrs, seqBFS.Attrs)
				if fusedBFS[i].Iterations != seqBFS.Iterations {
					t.Fatalf("bfs root %d: fused %d iterations, sequential %d", root, fusedBFS[i].Iterations, seqBFS.Iterations)
				}
				seqSSSP, err := algorithms.SSSP(e, root)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "sssp", fusedSSSP[i].Attrs, seqSSSP.Attrs)
			}
		})
	}
}

// genericProg is a hint-free BFS clone: it exercises the generic
// per-edge interface-dispatch path of the fused kernel.
type genericProg struct{ root uint32 }

func (p *genericProg) Name() string  { return "generic-hops" }
func (p *genericProg) Zero() float64 { return inf() }
func (p *genericProg) Init(v uint32) (float64, bool) {
	if v == p.root {
		return 0, true
	}
	return inf(), false
}
func (p *genericProg) Gather(srcAttr float64, _ uint32, _ float32) float64 { return srcAttr + 1 }
func (p *genericProg) Sum(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func (p *genericProg) Apply(v uint32, old, acc float64) (float64, bool) {
	if acc < old {
		return acc, true
	}
	return old, false
}

func inf() float64 { return math.Inf(1) }

// TestFusedGenericKernelEquivalence runs hint-free programs through the
// fused generic kernel and compares each lane to its scalar run.
func TestFusedGenericKernelEquivalence(t *testing.T) {
	g, err := gen.Uniform(300, 2400, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, ChunkDsts: 32})
	ps := make([]engine.Program, len(batchRoots))
	for i, r := range batchRoots {
		ps[i] = &genericProg{root: r}
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	fused, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range batchRoots {
		seq, err := e.Run(&genericProg{root: r}, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "generic", fused[i].Attrs, seq.Attrs)
	}
}

// TestFusedOverlayEquivalence: a fused run over a delta overlay (inserts
// and removes pending against the base store) must match sequential runs
// over the same overlay snapshot, per lane, bit for bit.
func TestFusedOverlayEquivalence(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	st, oracle := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true})
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: remove some base edges, add fresh ones (including into a
	// high interval so overlay cells span the grid).
	n := uint64(oracle.NumVertices)
	for i := 0; i < 10 && i < len(oracle.Edges); i++ {
		ed := oracle.Edges[i*7%len(oracle.Edges)]
		log.Remove(uint64(ed.Src), uint64(ed.Dst))
	}
	for i := uint64(0); i < 15; i++ {
		log.Add((i*13)%n, (i*29+5)%n, 1)
	}
	for name, cfg := range strategyConfigs(int(n)) {
		t.Run(name, func(t *testing.T) {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverlayProvider(log.Overlay)
			fused, err := algorithms.PersonalizedPageRankBatch(e, batchRoots, 0.85, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i, root := range batchRoots {
				seq, err := algorithms.PersonalizedPageRank(e, root, 0.85, 5)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, "overlay ppr", fused[i].Attrs, seq.Attrs)
			}
		})
	}
}

// TestFusedLaneCancellation: cancelling one lane mid-run yields a nil
// result for that lane and leaves every sibling bit-identical to its
// sequential run.
func TestFusedLaneCancellation(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2})
	roots := []uint32{1, 5, 9}
	ps := []engine.Program{
		algorithms.NewSSSPProgram(roots[0]),
		algorithms.NewSSSPProgram(roots[1]),
		algorithms.NewSSSPProgram(roots[2]),
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if _, err := run.Step(); err != nil {
		t.Fatal(err)
	}
	run.CancelLane(1)
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	fused, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	if fused[1] != nil || !run.LaneCancelled(1) {
		t.Fatalf("cancelled lane: result %v, LaneCancelled %v; want nil result, cancelled", fused[1], run.LaneCancelled(1))
	}
	for _, i := range []int{0, 2} {
		if run.LaneCancelled(i) {
			t.Fatalf("sibling lane %d reported cancelled", i)
		}
		seq, err := algorithms.SSSP(e, roots[i])
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "sibling", fused[i].Attrs, seq.Attrs)
	}
}

// TestFusedWidthOne: batch width 1 must behave exactly like the scalar
// path for every algorithm family and under every strategy (the
// bit-identical-at-width-1 floor). A width-1 batch reports the strategy
// the engine resolves, not the fused SPU shape: it is the single-lane run.
func TestFusedWidthOne(t *testing.T) {
	g, err := gen.Uniform(400, 3600, 21)
	if err != nil {
		t.Fatal(err)
	}
	const root = 17
	queries := []struct {
		name  string
		fused func(e *engine.Engine) ([]*engine.Result, error)
		seq   func(e *engine.Engine) (*engine.Result, error)
	}{
		{"ppr",
			func(e *engine.Engine) ([]*engine.Result, error) {
				return algorithms.PersonalizedPageRankBatch(e, []uint32{root}, 0.9, 8)
			},
			func(e *engine.Engine) (*engine.Result, error) {
				return algorithms.PersonalizedPageRank(e, root, 0.9, 8)
			}},
		{"bfs",
			func(e *engine.Engine) ([]*engine.Result, error) { return algorithms.BFSBatch(e, []uint32{root}) },
			func(e *engine.Engine) (*engine.Result, error) { return algorithms.BFS(e, root) }},
		{"sssp",
			func(e *engine.Engine) ([]*engine.Result, error) { return algorithms.SSSPBatch(e, []uint32{root}) },
			func(e *engine.Engine) (*engine.Result, error) { return algorithms.SSSP(e, root) }},
	}
	for name, cfg := range strategyConfigs(400) {
		t.Run(name, func(t *testing.T) {
			e, _ := buildEngine(t, g, 4, cfg)
			for _, q := range queries {
				fused, err := q.fused(e)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := q.seq(e)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, name+" width-1 "+q.name, fused[0].Attrs, seq.Attrs)
				if fused[0].Iterations != seq.Iterations || fused[0].EdgesTraversed != seq.EdgesTraversed {
					t.Fatalf("%s %s: fused %d iterations / %d edges, sequential %d / %d", name, q.name,
						fused[0].Iterations, fused[0].EdgesTraversed, seq.Iterations, seq.EdgesTraversed)
				}
				if fused[0].Strategy != seq.Strategy || fused[0].ResidentIntervals != seq.ResidentIntervals {
					t.Fatalf("%s %s: width-1 batch ran %v with Q=%d, the engine resolves %v with Q=%d", name, q.name,
						fused[0].Strategy, fused[0].ResidentIntervals, seq.Strategy, seq.ResidentIntervals)
				}
			}
		})
	}
}

// danglingRankProg is a PageRank clone with a dangling-mass
// GlobalAggregator but no LaneAggregator, so its aggregate folds in
// fixed-size chunk partials rather than serially.
type danglingRankProg struct{ n, damping, dangling float64 }

func (p *danglingRankProg) Name() string                  { return "dangling-rank" }
func (p *danglingRankProg) Zero() float64                 { return 0 }
func (p *danglingRankProg) Init(v uint32) (float64, bool) { return 1 / p.n, true }
func (p *danglingRankProg) Gather(a float64, deg uint32, _ float32) float64 {
	return a / float64(deg)
}
func (p *danglingRankProg) Sum(a, b float64) float64 { return a + b }
func (p *danglingRankProg) Apply(v uint32, old, acc float64) (float64, bool) {
	return (1-p.damping)/p.n + p.damping*(acc+p.dangling/p.n), true
}
func (p *danglingRankProg) AggZero() float64 { return 0 }
func (p *danglingRankProg) AggVertex(v uint32, attr float64, deg uint32) float64 {
	if deg == 0 {
		return attr
	}
	return 0
}
func (p *danglingRankProg) AggCombine(a, b float64) float64 { return a + b }
func (p *danglingRankProg) SetGlobal(g float64)             { p.dangling = g }

// TestFusedChunkedAggregateEquivalence: a lane whose aggregate has no
// LaneAggregator must fold it exactly as the single-lane run does. The
// graph has more vertices than one aggregate chunk (2^15), so a serial
// fold and the chunked one disagree in the last bits.
func TestFusedChunkedAggregateEquivalence(t *testing.T) {
	const n = 70000
	g, err := gen.Uniform(n, 4*n, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 4, engine.Config{Threads: 2, Strategy: engine.SPU, MaxIterations: 6})
	dampings := []float64{0.85, 0.8}
	ps := make([]engine.Program, len(dampings))
	for l, d := range dampings {
		ps[l] = &danglingRankProg{n: n, damping: d}
	}
	run, err := e.NewBatchRun(ps, engine.Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	for {
		more, err := run.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	fused, err := run.FinishLanes()
	if err != nil {
		t.Fatal(err)
	}
	for l, d := range dampings {
		seq, err := e.Run(&danglingRankProg{n: n, damping: d}, engine.Forward)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "chunked aggregate", fused[l].Attrs, seq.Attrs)
	}
}

// TestFusedRejections: mismatched Zero values and the source-sorted
// ablation order must be refused at construction.
func TestFusedRejections(t *testing.T) {
	g, err := gen.Uniform(100, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildEngine(t, g, 3, engine.Config{Threads: 1})
	_, err = e.NewBatchRun([]engine.Program{
		algorithms.NewBFSProgram(0),
		algorithms.NewPageRankProgram(100, 0.85),
	}, engine.Forward)
	if err == nil || !strings.Contains(err.Error(), "Zero") {
		t.Fatalf("mixed-Zero batch: err = %v, want Zero mismatch", err)
	}

	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 3})
	eAbl, err := engine.New(st, engine.Config{Threads: 1, Order: engine.SrcSortedCoarse, Strategy: engine.SPU})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eAbl.NewBatchRun([]engine.Program{algorithms.NewBFSProgram(0)}, engine.Forward)
	if err == nil || !strings.Contains(err.Error(), "source-sorted") {
		t.Fatalf("ablation batch: err = %v, want source-sorted rejection", err)
	}
}
