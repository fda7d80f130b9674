package engine

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxgraph/internal/blockcache"
	"nxgraph/internal/diskio"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// rankProg is an unspecialized PageRank-shaped program: the generic
// kernels run its Gather once per edge, and every vertex stays active.
type rankProg struct{ onGather func() }

func (rankProg) Name() string                  { return "rank" }
func (rankProg) Zero() float64                 { return 0 }
func (rankProg) Init(v uint32) (float64, bool) { return 1, true }
func (p rankProg) Gather(a float64, d uint32, w float32) float64 {
	if p.onGather != nil {
		p.onGather()
	}
	return a / float64(d)
}
func (rankProg) Sum(a, b float64) float64 { return a + b }
func (rankProg) Apply(v uint32, old, acc float64) (float64, bool) {
	return 0.15 + 0.85*acc, true
}
func (rankProg) DenseApply() {}

// fetchTestStore builds a small RMAT store with P = 4 and a transpose,
// in the format the test environment selects.
func fetchTestStore(t *testing.T, profile diskio.Profile) *storage.Store {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Transpose: true, Profile: profile})
	return st
}

// fetchCacheShapes are the cache configurations the fetch tests cover:
// caching off (every block decoded per use, no L2) and a tiny L1 over
// an encoded tier (decodes from RAM, blobs pinned during decode).
var fetchCacheShapes = []struct {
	name       string
	cacheBytes int64
	l2Frac     float64
}{
	{"off", -1, 0},
	{"tiny+l2", 4096, 0.5},
}

func requireNoPins(t *testing.T, e *Engine) {
	t.Helper()
	if st := e.CacheStats(); st.PinnedBytes != 0 || st.L2PinnedBytes != 0 {
		t.Fatalf("pins left after the run: %d B decoded, %d B encoded", st.PinnedBytes, st.L2PinnedBytes)
	}
}

// TestFetchErrorsMidBatchReleasePins fails a run in the middle of a
// prefetch batch — a disk read error, a decode error, and a cancel —
// and requires the error back from the run and no pinned bytes left in
// either cache tier.
func TestFetchErrorsMidBatchReleasePins(t *testing.T) {
	for _, cc := range fetchCacheShapes {
		t.Run("read/"+cc.name, func(t *testing.T) {
			st := fetchTestStore(t, diskio.Unthrottled)
			e, err := New(st, Config{Threads: 2, CacheBytes: cc.cacheBytes, CacheL2Frac: cc.l2Frac})
			if err != nil {
				t.Fatal(err)
			}
			// Cut shards.dat inside SS[1][2]: row 1's batch reads SS[1][0]
			// and SS[1][1], hands them to the decoders, then fails.
			info := st.Meta().SubShardAt(1, 2)
			if info.Length == 0 {
				t.Fatal("fixture has an empty SS[1][2]")
			}
			if err := os.Truncate(st.Disk().Path(st.Dir()+"/"+storage.ShardsFile), info.Offset+1); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(rankProg{}, Forward); err == nil {
				t.Fatal("run over a truncated store succeeded")
			}
			requireNoPins(t, e)
		})
		t.Run("decode/"+cc.name, func(t *testing.T) {
			st := fetchTestStore(t, diskio.Unthrottled)
			e, err := New(st, Config{Threads: 2, CacheBytes: cc.cacheBytes, CacheL2Frac: cc.l2Frac})
			if err != nil {
				t.Fatal(err)
			}
			info := st.Meta().SubShardAt(1, 1)
			junk := make([]byte, info.Length)
			for k := range junk {
				junk[k] = 0xff
			}
			f, err := os.OpenFile(st.Disk().Path(st.Dir()+"/"+storage.ShardsFile), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(junk, info.Offset); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, err := e.Run(rankProg{}, Forward); err == nil {
				t.Fatal("run over a corrupt blob succeeded")
			}
			requireNoPins(t, e)
		})
		t.Run("cancel/"+cc.name, func(t *testing.T) {
			st := fetchTestStore(t, diskio.Unthrottled)
			e, err := New(st, Config{Threads: 2, CacheBytes: cc.cacheBytes, CacheL2Frac: cc.l2Frac, MaxIterations: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Cancel from inside row 0's gather, while the pipeline is
			// fetching row 1.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int64
			prog := rankProg{onGather: func() {
				if n.Add(1) == 10 {
					cancel()
				}
			}}
			if _, err := e.RunContext(ctx, prog, Forward, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("run error = %v, want context.Canceled", err)
			}
			requireNoPins(t, e)
		})
	}
}

// TestFetchOppositeOrdersShareCache runs two fetchers on one shared
// cache that reach the same cold cells in opposite orders, many times
// over. Neither may wait on the other while holding claims of its own,
// so both must finish, and they must see the same decoded blocks.
func TestFetchOppositeOrdersShareCache(t *testing.T) {
	st := fetchTestStore(t, diskio.Unthrottled)
	var cells []cellID
	P := st.Meta().P
	for _, d := range []int{0, 1} {
		for k := 0; k < P*P; k++ {
			cells = append(cells, cellID{d: d, i: k / P, j: k % P})
		}
	}
	reversed := make([]cellID, len(cells))
	for k, c := range cells {
		reversed[len(cells)-1-k] = c
	}
	for _, shape := range []struct {
		name   string
		l1, l2 int64
	}{{"off", 0, 0}, {"l2", 0, 1 << 20}} {
		t.Run(shape.name, func(t *testing.T) {
			cache := blockcache.NewTiered(shape.l1, shape.l2)
			gen := blockcache.NextGeneration()
			var fs [2]*fetcher
			for k := range fs {
				e, err := New(st, Config{Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				e.SetBlockCache(cache, gen)
				fs[k] = &fetcher{e: e}
			}
			done := make(chan error, 1)
			go func() {
				for round := 0; round < 100; round++ {
					var wg sync.WaitGroup
					var bs [2]*fetchBatch
					for k, order := range [][]cellID{cells, reversed} {
						wg.Add(1)
						go func() {
							defer wg.Done()
							bs[k] = fs[k].startFetch(order, nil)
							bs[k].wait()
						}()
					}
					wg.Wait()
					for _, b := range bs {
						if b.err != nil {
							done <- b.err
							return
						}
					}
					for _, c := range cells {
						a, b := bs[0].handles[c].Value(), bs[1].handles[c].Value()
						if !reflect.DeepEqual(a, b) {
							t.Errorf("round %d: cell %v decoded differently", round, c)
						}
					}
					bs[0].release()
					bs[1].release()
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("fetchers deadlocked")
			}
			if st := cache.Stats(); st.PinnedBytes != 0 || st.L2PinnedBytes != 0 {
				t.Fatalf("pins left: %+v", st)
			}
		})
	}
}

// TestConcurrentRunsSharedCacheBitIdentical runs the same program
// concurrently on two engines sharing one cold cache and requires both
// results to equal a solo run bit for bit.
func TestConcurrentRunsSharedCacheBitIdentical(t *testing.T) {
	st := fetchTestStore(t, diskio.Unthrottled)
	// SPU: disk-based strategies keep attributes in the store's files,
	// which concurrent runs on one store would share.
	cfg := Config{Threads: 2, Strategy: SPU, MaxIterations: 4, CacheBytes: -1}
	solo, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Run(rankProg{}, Both)
	if err != nil {
		t.Fatal(err)
	}
	cache := blockcache.New(0)
	gen := blockcache.NextGeneration()
	var wg sync.WaitGroup
	results := make([][]float64, 4)
	errs := make([]error, len(results))
	for k := range results {
		e, err := New(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetBlockCache(cache, gen)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Run(rankProg{}, Both)
			if err == nil {
				results[k] = res.Attrs
			}
			errs[k] = err
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent runs deadlocked")
	}
	for k, got := range results {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		for v := range want.Attrs {
			if math.Float64bits(got[v]) != math.Float64bits(want.Attrs[v]) {
				t.Fatalf("run %d: vertex %d = %v, solo run %v", k, v, got[v], want.Attrs[v])
			}
		}
	}
	if st := cache.Stats(); st.PinnedBytes != 0 {
		t.Fatalf("pins left: %+v", st)
	}
}

// TestParallelDecodeKeepsIOPattern checks that fanning decode out
// leaves the disk access pattern exactly as the sequential fetch makes
// it: per iteration, on an SSD-profiled disk with caching off, the same
// seeks, bytes read and block reads, and the same result bits, under
// SPU, DPU and MPU. One compute thread keeps the hub writes of DPU and
// MPU in a fixed order (parallel ToHub tasks write hubs in whatever
// order they finish); the decode fan-out still runs four workers.
func TestParallelDecodeKeepsIOPattern(t *testing.T) {
	st := fetchTestStore(t, diskio.SSD)
	pingPong := 2 * int64(st.Meta().NumVertices) * Ba
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"spu", Config{Strategy: SPU}},
		{"dpu", Config{Strategy: DPU}},
		{"mpu", Config{Strategy: MPU, MemoryBudget: pingPong / 2}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			type iterIO struct{ seeks, bytes, blocks int64 }
			measure := func(sequential bool) ([]iterIO, []float64) {
				cfg := sc.cfg
				cfg.Threads, cfg.CacheBytes, cfg.MaxIterations = 1, -1, 3
				e, err := New(st, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.decoders = 4
				if sequential {
					e.decoders = -1
				}
				var out []iterIO
				snap := func() iterIO {
					io := st.Disk().Stats().Snapshot()
					return iterIO{io.Seeks, io.BytesRead, e.CacheStats().Misses}
				}
				last := snap()
				res, err := e.RunContext(context.Background(), rankProg{}, Both, func(Progress) {
					now := snap()
					out = append(out, iterIO{now.seeks - last.seeks, now.bytes - last.bytes, now.blocks - last.blocks})
					last = now
				})
				if err != nil {
					t.Fatal(err)
				}
				return out, res.Attrs
			}
			// A first run leaves every file position where the measured
			// runs will leave it, so both start from the same state.
			measure(false)
			seqIO, seqAttrs := measure(true)
			parIO, parAttrs := measure(false)
			if !reflect.DeepEqual(seqIO, parIO) {
				t.Fatalf("per-iteration I/O differs:\nsequential %+v\nparallel   %+v", seqIO, parIO)
			}
			if seqIO[0].blocks == 0 || seqIO[0].seeks == 0 {
				t.Fatalf("fixture does no cold reads: %+v", seqIO)
			}
			for v := range seqAttrs {
				if math.Float64bits(seqAttrs[v]) != math.Float64bits(parAttrs[v]) {
					t.Fatalf("vertex %d: sequential %v, parallel %v", v, seqAttrs[v], parAttrs[v])
				}
			}
		})
	}
}
