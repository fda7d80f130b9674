package engine_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"nxgraph/internal/algorithms"
	"nxgraph/internal/engine"
	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// replaceCell rewrites st's forward shards.dat and meta.json with
// SS[i][j]'s blob replaced by blob, and reopens the store.
func replaceCell(t *testing.T, st *storage.Store, i, j int, blob []byte) *storage.Store {
	t.Helper()
	disk, dir := st.Disk(), st.Dir()
	m := *st.Meta()
	P := m.P
	path := disk.Path(dir + "/" + storage.ShardsFile)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, old[:8]...) // magic + version header
	infos := make([]storage.SubShardInfo, P*P)
	for k := range infos {
		b, err := st.ReadSubShardRaw(k/P, k%P, false)
		if err != nil {
			t.Fatal(err)
		}
		if k == i*P+j {
			b = blob
		}
		infos[k] = m.SubShards[k]
		infos[k].Offset, infos[k].Length = 0, 0
		if len(b) > 0 {
			infos[k].Offset, infos[k].Length = int64(len(out)), int64(len(b))
			out = append(out, b...)
		}
	}
	m.SubShards = infos
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(disk.Path(dir+"/"+storage.MetaFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = storage.Open(disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestOutOfIntervalSourcesFailRun plants a well-formed sub-shard whose
// sources all lie in the wrong interval — every count and the encoding
// itself valid — in SS[0][1] of a v1 and a v2 store. PageRank must
// return an error naming the cell, under every strategy, instead of
// gathering from the wrong attributes or indexing past them.
func TestOutOfIntervalSourcesFailRun(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{storage.FormatV1, storage.FormatV2} {
		st, _ := testutil.BuildStore(t, g, testutil.StoreOptions{P: 4, Format: format})
		ss, err := st.ReadSubShard(0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if ss.NumEdges() == 0 {
			t.Fatal("fixture has an empty SS[0][1]")
		}
		// Move every source from interval 0 into interval 2: sorted order
		// and all counts survive, so only the interval check can object.
		shift := 2 * st.Meta().IntervalSize()
		for k := range ss.Srcs {
			ss.Srcs[k] += shift
		}
		st = replaceCell(t, st, 0, 1, storage.EncodeSubShardAs(ss, false, format))
		pingPong := 2 * int64(st.Meta().NumVertices) * engine.Ba
		for _, cfg := range []engine.Config{
			{Threads: 2, Strategy: engine.SPU},
			{Threads: 2, Strategy: engine.DPU},
			{Threads: 2, Strategy: engine.MPU, MemoryBudget: pingPong / 2},
		} {
			e, err := engine.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = algorithms.PageRank(e, 0.85, 3)
			if err == nil {
				t.Fatalf("v%d %v: PageRank accepted out-of-interval sources", format, cfg.Strategy)
			}
			if msg := err.Error(); !strings.Contains(msg, "SS[0][1]") || !strings.Contains(msg, "transpose=false") ||
				!strings.Contains(msg, "outside interval") {
				t.Fatalf("v%d %v: error %q does not name the cell and the interval", format, cfg.Strategy, msg)
			}
		}
	}
}
