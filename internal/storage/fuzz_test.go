package storage

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzUvarint32 round-trips the varint codec and cross-checks the
// decoder against re-encoding.
func FuzzUvarint32(f *testing.F) {
	for _, v := range []uint32{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 21, 1 << 28, 1<<32 - 1} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint32) {
		buf := appendUvarint(nil, v)
		if len(buf) > maxUvarint32Len {
			t.Fatalf("%d encoded to %d bytes", v, len(buf))
		}
		got, p := uvarint32(buf, 0)
		if p != len(buf) || got != v {
			t.Fatalf("round trip of %d: got %d, consumed %d of %d", v, got, p, len(buf))
		}
		// Every truncation ends on a continuation byte (or is empty), so
		// all of them must fail rather than read out of bounds.
		for cut := 0; cut < len(buf); cut++ {
			if _, p := uvarint32(buf[:cut], 0); p >= 0 {
				t.Fatalf("truncated encoding of %d (len %d) decoded", v, cut)
			}
		}
	})
}

// fuzzSeedBlobs is the corpus the issue calls for: empty, single-edge,
// hub-shaped (one destination, many sources) and max-id sub-shards.
func fuzzSeedBlobs(weighted bool) [][]byte {
	hub := &SubShard{Dsts: []uint32{42}, Offsets: []uint32{0, 64}}
	for i := 0; i < 64; i++ {
		hub.Srcs = append(hub.Srcs, uint32(i*i))
		if weighted {
			hub.Weights = append(hub.Weights, float32(i))
		}
	}
	shards := []*SubShard{
		{Offsets: []uint32{0}},
		{Dsts: []uint32{7}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}, Weights: wts(weighted, 0.5)},
		hub,
		{Dsts: []uint32{1<<32 - 1}, Offsets: []uint32{0, 2}, Srcs: []uint32{1<<32 - 1, 1<<32 - 1},
			Weights: func() []float32 {
				if weighted {
					return []float32{1, 2}
				}
				return nil
			}()},
	}
	var out [][]byte
	for _, ss := range shards {
		out = append(out, EncodeSubShardV2(ss, weighted))
	}
	return out
}

// fuzzEdgeCaseBlobs are hand-built v2 blobs for the decoder's fast-path
// boundaries: multi-byte gaps, padding the fast path must not accept,
// and a source run that leaves uint32 only at its last gap.
func fuzzEdgeCaseBlobs(weighted bool) [][]byte {
	wide := &SubShard{
		// Destination gaps of 1, 2 and 3 bytes; source gaps likewise.
		Dsts:    []uint32{5, 5 + 300, 5 + 300 + 70000},
		Offsets: []uint32{0, 3, 4, 6},
		Srcs:    []uint32{1, 1 + 200, 1 + 200 + 20000, 0x7f, 16383, 16383 + 2097151},
	}
	if weighted {
		wide.Weights = []float32{1, 2, 3, 4, 5, 6}
	}
	blobs := [][]byte{EncodeSubShardV2(wide, weighted)}
	weights := func(n int) []byte {
		if !weighted {
			return nil
		}
		return make([]byte, 4*n)
	}
	// One dst (gap 7), one source written as 0x80 0x00 — a non-minimal
	// two-byte zero.
	blobs = append(blobs, append([]byte{1, 1, 7, 1, 0x80, 0x00}, weights(1)...))
	// The same with the padded value as the destination gap.
	blobs = append(blobs, append([]byte{1, 1, 0x83, 0x00, 1, 9}, weights(1)...))
	// One dst with two sources: 0xffffffff then a gap of 1 — the sum
	// overflows uint32 only after the run's last edge.
	blobs = append(blobs, append([]byte{1, 2, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 1}, weights(2)...))
	return blobs
}

// FuzzDecodeSubShardV2 throws arbitrary bytes at the v2 decoder. It
// must never panic; it must agree with decodeSubShardV2Ref on whether
// a blob is valid and on every decoded array; and whatever it accepts
// must re-encode to the identical blob (a canonical-order sub-shard has
// exactly one v2 encoding).
func FuzzDecodeSubShardV2(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		for _, blob := range fuzzSeedBlobs(weighted) {
			f.Add(blob, weighted)
		}
		for _, blob := range fuzzEdgeCaseBlobs(weighted) {
			f.Add(blob, weighted)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte, weighted bool) {
		ss, err := DecodeSubShardV2(blob, weighted)
		ref, refErr := decodeSubShardV2Ref(blob, weighted)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder and reference disagree: err=%v, reference err=%v", err, refErr)
		}
		if err != nil {
			return
		}
		for _, arr := range []struct {
			name      string
			got, want []uint32
		}{{"dsts", ss.Dsts, ref.Dsts}, {"offsets", ss.Offsets, ref.Offsets}, {"srcs", ss.Srcs, ref.Srcs}} {
			if !slices.Equal(arr.got, arr.want) {
				t.Fatalf("%s differ from the reference: %v vs %v", arr.name, arr.got, arr.want)
			}
		}
		if len(ss.Weights) != len(ref.Weights) || (ss.Weights == nil) != (ref.Weights == nil) {
			t.Fatalf("weights: %d vs reference %d", len(ss.Weights), len(ref.Weights))
		}
		for k := range ss.Weights {
			if math.Float32bits(ss.Weights[k]) != math.Float32bits(ref.Weights[k]) {
				t.Fatalf("weight %d differs from the reference", k)
			}
		}
		// Structural invariants the decoder promises.
		if len(ss.Offsets) != len(ss.Dsts)+1 || int(ss.Offsets[len(ss.Dsts)]) != len(ss.Srcs) {
			t.Fatalf("inconsistent shape: %d dsts, %d offsets, %d srcs",
				len(ss.Dsts), len(ss.Offsets), len(ss.Srcs))
		}
		for k := 1; k < len(ss.Dsts); k++ {
			if ss.Dsts[k] <= ss.Dsts[k-1] {
				t.Fatalf("dsts not strictly ascending at %d", k)
			}
		}
		for k := range ss.Dsts {
			for t2 := ss.Offsets[k] + 1; t2 < ss.Offsets[k+1]; t2++ {
				if ss.Srcs[t2] < ss.Srcs[t2-1] {
					t.Fatalf("srcs of dst %d descend at %d", k, t2)
				}
			}
		}
		re := EncodeSubShardV2(ss, weighted)
		if !bytes.Equal(re, blob) {
			t.Fatalf("accepted blob is not canonical: decode/encode changed %d -> %d bytes",
				len(blob), len(re))
		}
	})
}

// FuzzDecodeSubShardV1 throws arbitrary bytes at the fixed-width v1
// decoder: it must never panic, whatever it accepts must have monotone
// offsets that end at the edge count (the engine indexes sources
// through them), and it must re-encode to the identical blob.
func FuzzDecodeSubShardV1(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		for _, blob := range fuzzSeedBlobs(weighted) {
			ss, err := DecodeSubShardV2(blob, weighted)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(EncodeSubShard(ss, weighted), weighted)
		}
	}
	// Counts 0xffffffff and 2 wrap to a sum of 1 in uint32 arithmetic.
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0,
		0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 9, 0, 0, 0}, false)
	f.Fuzz(func(t *testing.T, blob []byte, weighted bool) {
		ss, err := DecodeSubShard(blob, weighted)
		if err != nil {
			return
		}
		if len(ss.Offsets) != len(ss.Dsts)+1 || int(ss.Offsets[len(ss.Dsts)]) != len(ss.Srcs) {
			t.Fatalf("inconsistent shape: %d dsts, %d offsets, %d srcs",
				len(ss.Dsts), len(ss.Offsets), len(ss.Srcs))
		}
		for k := range ss.Dsts {
			if ss.Offsets[k+1] < ss.Offsets[k] {
				t.Fatalf("offsets descend at dst %d", k)
			}
		}
		if weighted != (ss.Weights != nil) {
			t.Fatalf("weighted=%v but weights %v", weighted, ss.Weights != nil)
		}
		re := EncodeSubShard(ss, weighted)
		if !bytes.Equal(re, blob) {
			t.Fatalf("accepted blob does not re-encode identically: %d -> %d bytes", len(blob), len(re))
		}
	})
}
