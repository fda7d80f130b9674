package storage_test

import (
	"sync"
	"testing"

	"nxgraph/internal/gen"
	"nxgraph/internal/storage"
	"nxgraph/internal/testutil"
)

// rmatBlobs is the BenchmarkSubShardDecodeV2RMAT fixture: every
// non-empty forward sub-shard blob of a v2 store built from an RMAT
// graph. Unlike benchSubShard's uniform random gaps, its cells have the
// gap and count mix of a real interval-partitioned skewed graph — mostly
// one-byte varints, a third two-byte, a few three-byte.
var rmatBlobs struct {
	once  sync.Once
	blobs [][]byte
	edges int64
	bytes int64
}

// The fixture's shape: scale-18 RMAT with edge factor 16 (about 4.2M
// edges, 9 MB of blobs) in the library's default 12×12 sub-shard grid —
// the store an out-of-core PageRank iteration reads in full.
const (
	rmatScale      = 18
	rmatEdgeFactor = 16
	rmatP          = 12
)

func loadRMATBlobs(b *testing.B) ([][]byte, int64, int64) {
	b.Helper()
	rmatBlobs.once.Do(func() {
		g, err := gen.RMAT(gen.DefaultRMAT(rmatScale, rmatEdgeFactor, 1))
		if err != nil {
			b.Fatal(err)
		}
		st, _ := testutil.BuildStore(b, g, testutil.StoreOptions{P: rmatP, Format: storage.FormatV2})
		P := st.Meta().P
		for i := 0; i < P; i++ {
			for j := 0; j < P; j++ {
				blob, err := st.ReadSubShardRaw(i, j, false)
				if err != nil {
					b.Fatal(err)
				}
				if len(blob) == 0 {
					continue
				}
				rmatBlobs.blobs = append(rmatBlobs.blobs, blob)
				rmatBlobs.edges += st.Meta().SubShardAt(i, j).Edges
				rmatBlobs.bytes += int64(len(blob))
			}
		}
	})
	if rmatBlobs.blobs == nil {
		b.Fatal("RMAT fixture failed to build")
	}
	return rmatBlobs.blobs, rmatBlobs.edges, rmatBlobs.bytes
}

// BenchmarkSubShardDecodeV2RMAT decodes every sub-shard of an RMAT store
// per op — the work one out-of-core iteration's cold reads put on the
// CPU — and reports the cost per edge.
func BenchmarkSubShardDecodeV2RMAT(b *testing.B) {
	blobs, edges, bytes := loadRMATBlobs(b)
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blob := range blobs {
			if _, err := storage.DecodeSubShardV2(blob, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*edges), "ns/edge")
}
