// Package storage implements the on-disk Destination-Sorted Sub-Shard
// (DSSS) store of NXgraph (paper §II-A and §III-A).
//
// A graph with n vertices and m edges is stored as:
//
//   - P equal-sized vertex intervals (interval k owns the dense id range
//     [k·⌈n/P⌉, (k+1)·⌈n/P⌉));
//   - P² sub-shards: SS[i][j] holds every edge whose source lies in
//     interval i and destination in interval j, sorted by destination id
//     and, within one destination, by source id;
//   - shard S[j] is the column of sub-shards {SS[i][j] : i}, i.e. all edges
//     whose destination lies in interval j.
//
// Sub-shards use a compressed sparse layout: the distinct destination ids,
// per-destination source counts, and the concatenated sorted source lists.
// This is the paper's "efficient compressed sparse format"; the average
// in-degree d of Table II is edges/distinctDsts of a sub-shard.
//
// The physical layout is a single shards.dat file holding all P² blobs
// row-major (whole sub-shard rows are contiguous — the order SPU streaming
// and DPU's ToHub phase consume them in), plus a JSON meta document, a
// degree file, an id-map file, an attribute file used by the disk-based
// update strategies, and an optional transposed replica for algorithms
// that traverse reverse edges (WCC, SCC, HITS).
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Format constants.
const (
	// MetaMagic identifies a DSSS store's meta document.
	MetaMagic = "NXGRAPH-DSSS"
	// FormatV1 is the original fixed-width CSR blob layout: uint32
	// destination ids, counts and source ids (see EncodeSubShard).
	FormatV1 = 1
	// FormatV2 is the delta+varint compressed blob layout: destination
	// and per-destination source lists are gap-encoded as LEB128 varints,
	// weights stay fixed-width in a trailing section (see
	// EncodeSubShardV2). 2.5–4× smaller on disk for typical graphs.
	FormatV2 = 2
	// DefaultFormatVersion is the format newly written stores use.
	DefaultFormatVersion = FormatV2
	// ShardMagic heads shards.dat.
	ShardMagic = uint32(0x4e584752) // "NXGR"
)

// maxSupportedVersion caps the store formats this build reads. It is a
// variable only so tests can simulate an older binary opening a newer
// store; everything else treats it as a constant equal to FormatV2.
var maxSupportedVersion = FormatV2

// File names inside a store directory.
const (
	MetaFile    = "meta.json"
	DegreeFile  = "degrees.bin"
	IDMapFile   = "idmap.bin"
	ShardsFile  = "shards.dat"
	TShardsFile = "shards_t.dat"
	AttrsFile   = "attrs.bin"
	HubsFile    = "hubs.dat"
)

// SubShardInfo locates one sub-shard blob inside shards.dat.
type SubShardInfo struct {
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
	Edges  int64 `json:"edges"`
	Dsts   int64 `json:"dsts"` // distinct destination vertices
}

// Meta is the JSON-serialized description of a store.
type Meta struct {
	Magic        string `json:"magic"`
	Version      int    `json:"version"`
	Name         string `json:"name"`
	NumVertices  uint32 `json:"num_vertices"`
	NumEdges     int64  `json:"num_edges"`
	P            int    `json:"p"`
	Weighted     bool   `json:"weighted"`
	HasTranspose bool   `json:"has_transpose"`
	// SubShards is indexed row-major: entry i*P+j is SS[i][j]. This
	// matches the physical order in shards.dat, where row i (all
	// sub-shards with source interval i) is contiguous — the order the
	// row-phase of every update strategy streams edges in.
	SubShards []SubShardInfo `json:"sub_shards"`
	// TSubShards indexes shards_t.dat for the transposed graph, in the
	// same row-major order (of the transposed matrix).
	TSubShards []SubShardInfo `json:"t_sub_shards,omitempty"`
}

// IntervalSize returns ⌈n/P⌉, the number of vertex ids per interval.
func (m *Meta) IntervalSize() uint32 {
	if m.P <= 0 {
		return 0
	}
	return (m.NumVertices + uint32(m.P) - 1) / uint32(m.P)
}

// IntervalOf returns the interval owning vertex v.
func (m *Meta) IntervalOf(v uint32) int { return int(v / m.IntervalSize()) }

// IntervalRange returns the [lo, hi) dense-id range of interval k.
func (m *Meta) IntervalRange(k int) (lo, hi uint32) {
	size := m.IntervalSize()
	lo = uint32(k) * size
	hi = lo + size
	if hi > m.NumVertices || k == m.P-1 {
		hi = m.NumVertices
	}
	if lo > m.NumVertices {
		lo = m.NumVertices
	}
	return lo, hi
}

// IntervalLen returns the number of vertices in interval k.
func (m *Meta) IntervalLen(k int) int {
	lo, hi := m.IntervalRange(k)
	return int(hi - lo)
}

// SubShardAt returns the info for SS[i][j].
func (m *Meta) SubShardAt(i, j int) SubShardInfo { return m.SubShards[i*m.P+j] }

// Validate checks internal consistency of the meta document.
func (m *Meta) Validate() error {
	if m.Magic != MetaMagic {
		return fmt.Errorf("storage: bad magic %q (want %q)", m.Magic, MetaMagic)
	}
	if m.Version < FormatV1 || m.Version > maxSupportedVersion {
		// No "storage:" prefix — Open wraps this with the store path.
		return fmt.Errorf("store format version %d found, this build reads v%d..v%d"+
			" (v1 fixed-width stores come from `nxpre -format 1`,"+
			" v2 delta+varint stores from `nxpre -format 2` or any default build)",
			m.Version, FormatV1, maxSupportedVersion)
	}
	if m.P <= 0 {
		return fmt.Errorf("storage: non-positive P %d", m.P)
	}
	if len(m.SubShards) != m.P*m.P {
		return fmt.Errorf("storage: %d sub-shard entries, want %d", len(m.SubShards), m.P*m.P)
	}
	if m.HasTranspose && len(m.TSubShards) != m.P*m.P {
		return fmt.Errorf("storage: %d transpose entries, want %d", len(m.TSubShards), m.P*m.P)
	}
	if err := checkExtents(m.SubShards, false); err != nil {
		return err
	}
	if m.HasTranspose {
		if err := checkExtents(m.TSubShards, true); err != nil {
			return err
		}
	}
	var edges int64
	for _, ss := range m.SubShards {
		edges += ss.Edges
	}
	if edges != m.NumEdges {
		return fmt.Errorf("storage: sub-shards hold %d edges, meta says %d", edges, m.NumEdges)
	}
	return nil
}

// shardHeaderLen is the size of the magic+version header that opens
// shards.dat and shards_t.dat; blobs start after it.
const shardHeaderLen = 8

// checkExtents rejects index entries no writer produces: negative
// fields, more destinations than edges, and a blob that would start
// inside the shard file header. Extents past the end of the file are
// checked by Open, which knows the file sizes.
func checkExtents(infos []SubShardInfo, transpose bool) error {
	for k, info := range infos {
		switch {
		case info.Offset < 0 || info.Length < 0 || info.Edges < 0 || info.Dsts < 0:
			return fmt.Errorf("storage: %s: negative field in %+v", indexEntryName(k, transpose), info)
		case info.Dsts > info.Edges:
			return fmt.Errorf("storage: %s: %d dsts but %d edges", indexEntryName(k, transpose), info.Dsts, info.Edges)
		case info.Length > 0 && info.Offset < shardHeaderLen:
			return fmt.Errorf("storage: %s: blob at offset %d overlaps the %d-byte shard header",
				indexEntryName(k, transpose), info.Offset, shardHeaderLen)
		}
	}
	return nil
}

// indexEntryName names index entry k of the forward or transpose
// sub-shard index for error messages.
func indexEntryName(k int, transpose bool) string {
	if transpose {
		return fmt.Sprintf("t_sub_shards[%d]", k)
	}
	return fmt.Sprintf("sub_shards[%d]", k)
}

// SubShard is one decoded destination-sorted sub-shard.
//
// For destination Dsts[k], the sources are Srcs[Offsets[k]:Offsets[k+1]]
// (sorted ascending), with parallel Weights when the graph is weighted.
type SubShard struct {
	Dsts    []uint32
	Offsets []uint32 // len(Dsts)+1
	Srcs    []uint32
	Weights []float32 // nil when unweighted
}

// NumEdges returns the edge count of the sub-shard.
func (ss *SubShard) NumEdges() int { return len(ss.Srcs) }

// MemBytes returns the decoded in-memory footprint of the sub-shard's
// arrays — the unit the shared block cache budgets.
func (ss *SubShard) MemBytes() int64 {
	b := int64(len(ss.Dsts)+len(ss.Offsets)+len(ss.Srcs)) * 4
	if ss.Weights != nil {
		b += int64(len(ss.Weights)) * 4
	}
	return b
}

// NumDsts returns the number of distinct destination vertices.
func (ss *SubShard) NumDsts() int { return len(ss.Dsts) }

// AvgInDegree returns d, the average in-degree of the sub-shard's
// destinations (paper Table II), or 0 for an empty sub-shard.
func (ss *SubShard) AvgInDegree() float64 {
	if len(ss.Dsts) == 0 {
		return 0
	}
	return float64(len(ss.Srcs)) / float64(len(ss.Dsts))
}

// EncodedSize returns the byte length of the blob encoding.
func encodedSize(dsts, edges int, weighted bool) int64 {
	sz := int64(8) + int64(dsts)*8 + int64(edges)*4
	if weighted {
		sz += int64(edges) * 4
	}
	return sz
}

// EncodeSubShard serializes ss into a FormatV1 blob. Layout
// (little-endian):
//
//	uint32 dstCount | uint32 edgeCount
//	[dstCount]uint32 dst ids
//	[dstCount]uint32 per-dst source counts
//	[edgeCount]uint32 source ids
//	[edgeCount]float32 weights        (weighted stores only)
func EncodeSubShard(ss *SubShard, weighted bool) []byte {
	buf := make([]byte, encodedSize(len(ss.Dsts), len(ss.Srcs), weighted))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(ss.Dsts)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(ss.Srcs)))
	p := 8
	for _, d := range ss.Dsts {
		binary.LittleEndian.PutUint32(buf[p:], d)
		p += 4
	}
	for k := range ss.Dsts {
		binary.LittleEndian.PutUint32(buf[p:], ss.Offsets[k+1]-ss.Offsets[k])
		p += 4
	}
	for _, s := range ss.Srcs {
		binary.LittleEndian.PutUint32(buf[p:], s)
		p += 4
	}
	if weighted {
		for i := range ss.Srcs {
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[i]
			}
			binary.LittleEndian.PutUint32(buf[p:], float32bits(w))
			p += 4
		}
	}
	return buf
}

// DecodeSubShard parses a FormatV1 blob produced by EncodeSubShard.
func DecodeSubShard(buf []byte, weighted bool) (*SubShard, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("storage: sub-shard blob too short (%d bytes)", len(buf))
	}
	dstCount := int(binary.LittleEndian.Uint32(buf[0:4]))
	edgeCount := int(binary.LittleEndian.Uint32(buf[4:8]))
	want := encodedSize(dstCount, edgeCount, weighted)
	if int64(len(buf)) != want {
		return nil, fmt.Errorf("storage: sub-shard blob is %d bytes, want %d (dsts=%d edges=%d)",
			len(buf), want, dstCount, edgeCount)
	}
	ss := &SubShard{
		Dsts:    make([]uint32, dstCount),
		Offsets: make([]uint32, dstCount+1),
		Srcs:    make([]uint32, edgeCount),
	}
	p := 8
	for k := 0; k < dstCount; k++ {
		ss.Dsts[k] = binary.LittleEndian.Uint32(buf[p:])
		p += 4
	}
	// The sum is checked as it grows, so offsets never wrap around and
	// stay monotone for every blob accepted.
	var sum uint64
	for k := 0; k < dstCount; k++ {
		sum += uint64(binary.LittleEndian.Uint32(buf[p:]))
		p += 4
		if sum > uint64(edgeCount) {
			return nil, fmt.Errorf("storage: sub-shard counts exceed %d edges", edgeCount)
		}
		ss.Offsets[k+1] = uint32(sum)
	}
	if int(sum) != edgeCount {
		return nil, fmt.Errorf("storage: sub-shard counts sum to %d, want %d edges", sum, edgeCount)
	}
	for k := 0; k < edgeCount; k++ {
		ss.Srcs[k] = binary.LittleEndian.Uint32(buf[p:])
		p += 4
	}
	if weighted {
		ss.Weights = make([]float32, edgeCount)
		for k := 0; k < edgeCount; k++ {
			ss.Weights[k] = float32frombits(binary.LittleEndian.Uint32(buf[p:]))
			p += 4
		}
	}
	return ss, nil
}

// EncodeSubShardV2 serializes ss into a FormatV2 blob. The sub-shard
// must be in canonical order — destinations strictly ascending, sources
// non-descending within each destination (the sharder, SortSubShard and
// NewSubShardFromEdges all guarantee this) — because both sorted lists
// are gap-encoded. Layout:
//
//	uvarint dstCount | uvarint edgeCount
//	uvarint dst[0], then uvarint(dst[k]−dst[k−1])        (strictly ascending)
//	[dstCount]uvarint per-dst source counts
//	per dst: uvarint src[lo], then uvarint(src[t]−src[t−1])  (gap 0 = parallel edge)
//	[edgeCount]float32 weights, little-endian             (weighted stores only)
//
// Weights stay fixed-width in a trailing section located at
// len(blob) − 4·edgeCount, so unweighted decode never touches them and
// weighted decode finds them without scanning the varint region.
func EncodeSubShardV2(ss *SubShard, weighted bool) []byte {
	nd, ne := len(ss.Dsts), len(ss.Srcs)
	// Capacity guess: headers ≤ 10, most gaps and counts 1–2 bytes.
	buf := make([]byte, 0, 10+3*nd+3*ne)
	buf = appendUvarint(buf, uint32(nd))
	buf = appendUvarint(buf, uint32(ne))
	prev := uint32(0)
	for k, d := range ss.Dsts {
		if k == 0 {
			buf = appendUvarint(buf, d)
		} else {
			buf = appendUvarint(buf, d-prev)
		}
		prev = d
	}
	for k := range ss.Dsts {
		buf = appendUvarint(buf, ss.Offsets[k+1]-ss.Offsets[k])
	}
	for k := range ss.Dsts {
		lo, hi := ss.Offsets[k], ss.Offsets[k+1]
		prev = 0
		for t := lo; t < hi; t++ {
			s := ss.Srcs[t]
			if t == lo {
				buf = appendUvarint(buf, s)
			} else {
				buf = appendUvarint(buf, s-prev)
			}
			prev = s
		}
	}
	if weighted {
		off := len(buf)
		buf = append(buf, make([]byte, 4*ne)...)
		for i := 0; i < ne; i++ {
			w := float32(1)
			if ss.Weights != nil {
				w = ss.Weights[i]
			}
			binary.LittleEndian.PutUint32(buf[off+4*i:], float32bits(w))
		}
	}
	return buf
}

// DecodeSubShardV2 parses a blob produced by EncodeSubShardV2. It
// validates every structural invariant (minimal varints, strictly
// ascending destinations, non-zero counts summing to the edge count,
// non-descending sources that fit uint32, the varint region ending
// exactly at the weight section), so arbitrary bytes produce an error,
// never a panic — the contract the fuzz target exercises.
//
// It runs on every cold read of a v2 store, so it is written for speed:
// the one- and two-byte varint cases (over 90% of the values in an
// interval-partitioned store) are decoded inline and branch-free in each
// loop, with uvarint32Slow handling longer values and the blob's last
// byte; the three index arrays share one allocation; and sources decode
// in one flat loop over all edges, summed in a uint64 whose overflow is
// checked once per blob — a destination's running sum only grows, so
// that accepts exactly the blobs a per-edge check would.
func DecodeSubShardV2(buf []byte, weighted bool) (*SubShard, error) {
	dc, p := uvarint32(buf, 0)
	if p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: truncated dst count")
	}
	ec, p := uvarint32(buf, p)
	if p < 0 {
		return nil, fmt.Errorf("storage: v2 blob: truncated edge count")
	}
	dstCount, edgeCount := int(dc), int(ec)
	end := len(buf)
	if weighted {
		end -= 4 * edgeCount
	}
	// Every destination needs at least one gap byte, one count byte and
	// one source byte; rejecting impossible counts up front also bounds
	// the allocations below against hostile headers.
	if end < p || end-p < 2*dstCount+edgeCount || edgeCount < dstCount {
		return nil, fmt.Errorf("storage: v2 blob: %d bytes cannot hold %d dsts / %d edges",
			len(buf), dstCount, edgeCount)
	}
	// One allocation for the three index arrays; the full-slice caps keep
	// an append to one from writing into the next.
	arr := make([]uint32, 2*dstCount+1+edgeCount)
	ss := &SubShard{
		Dsts:    arr[:dstCount:dstCount],
		Offsets: arr[dstCount : 2*dstCount+1 : 2*dstCount+1],
		Srcs:    arr[2*dstCount+1:],
	}
	v := buf[:end] // varint region; p never legally reaches past it

	// Each loop below decodes a varint x at p with the same inline fast
	// path. It reads two bytes c, c2 and lets m = c>>7 pick between a
	// one-byte value (c) and a two-byte one (c&0x7f | c2<<7) without a
	// branch, because one- and two-byte values interleave unpredictably.
	// Its one branch — rarely taken, so well predicted — sends a
	// two-byte candidate whose c2 is not in [1, 0x7f] to uvarint32Slow:
	// c2 ≥ 0x80 starts a longer value and c2 = 0 is zero padding, which
	// uvarint32Slow rejects. A value starting at the region's last byte
	// takes uvarint32Slow too.
	dsts := ss.Dsts
	var d uint64
	for k := range dsts {
		var x uint32
		if q := p + 1; q < end {
			c, c2 := v[p], v[q]
			m := uint32(c >> 7)
			if m*uint32((uint(c2-1)+1)>>7) == 0 {
				x = uint32(c&0x7f) | uint32(c2)<<7&-m
				p = q + int(m)
			} else if x, p = uvarint32Slow(v, p); p < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated dst gap %d", k)
			}
		} else if x, p = uvarint32Slow(v, p); p < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated dst gap %d", k)
		}
		if k > 0 && x == 0 {
			return nil, fmt.Errorf("storage: v2 blob: dst %d not ascending", k)
		}
		d += uint64(x)
		if d > math.MaxUint32 {
			return nil, fmt.Errorf("storage: v2 blob: dst %d not ascending", k)
		}
		dsts[k] = uint32(d)
	}

	offs := ss.Offsets
	var sum uint64
	for k := 0; k < dstCount; k++ {
		var x uint32
		if q := p + 1; q < end {
			c, c2 := v[p], v[q]
			m := uint32(c >> 7)
			if m*uint32((uint(c2-1)+1)>>7) == 0 {
				x = uint32(c&0x7f) | uint32(c2)<<7&-m
				p = q + int(m)
			} else if x, p = uvarint32Slow(v, p); p < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated count %d", k)
			}
		} else if x, p = uvarint32Slow(v, p); p < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated count %d", k)
		}
		if x == 0 {
			// A destination is listed only if it has sources; rejecting
			// zero keeps the encoding bijective and the source loop's
			// first-raw-then-gaps shape unconditional.
			return nil, fmt.Errorf("storage: v2 blob: dst %d has zero sources", k)
		}
		sum += uint64(x)
		if sum > uint64(edgeCount) {
			return nil, fmt.Errorf("storage: v2 blob: counts exceed %d edges", edgeCount)
		}
		offs[k+1] = uint32(sum)
	}
	if sum != uint64(edgeCount) {
		return nil, fmt.Errorf("storage: v2 blob: counts sum to %d, want %d edges", sum, edgeCount)
	}

	// Sources: per destination a raw first value — a gap from 0 — then
	// gaps (0 = a parallel edge). Runs are short in a skewed graph, so a
	// loop per destination would mispredict its exit at almost every
	// run; instead one flat loop walks all edges, and the running sum s
	// restarts from 0 at each run's first edge, found without a branch:
	// srcs (zero from make) holds 1 at every run start until the loop
	// overwrites it. A run's sum only grows, so OR-ing every sum into
	// ovf catches any that left uint32 with one check at the end.
	srcs := ss.Srcs
	for _, o := range offs[:dstCount] {
		srcs[o] = 1
	}
	var s, ovf uint64
	for t := range srcs {
		var x uint32
		if q := p + 1; q < end {
			c, c2 := v[p], v[q]
			m := uint32(c >> 7)
			if m*uint32((uint(c2-1)+1)>>7) == 0 {
				x = uint32(c&0x7f) | uint32(c2)<<7&-m
				p = q + int(m)
			} else if x, p = uvarint32Slow(v, p); p < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated source %d", t)
			}
		} else if x, p = uvarint32Slow(v, p); p < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated source %d", t)
		}
		s = s&(uint64(srcs[t])-1) + uint64(x)
		ovf |= s
		srcs[t] = uint32(s)
	}
	if ovf > math.MaxUint32 {
		return nil, fmt.Errorf("storage: v2 blob: source overflows uint32")
	}
	if p != end {
		return nil, fmt.Errorf("storage: v2 blob: %d trailing bytes", end-p)
	}
	if weighted {
		ss.Weights = make([]float32, edgeCount)
		for k := 0; k < edgeCount; k++ {
			ss.Weights[k] = float32frombits(binary.LittleEndian.Uint32(buf[end+4*k:]))
		}
	}
	return ss, nil
}

// EncodeSubShardAs serializes ss in the given format version.
// FormatV2 requires canonical order; see EncodeSubShardV2.
func EncodeSubShardAs(ss *SubShard, weighted bool, version int) []byte {
	if version == FormatV1 {
		return EncodeSubShard(ss, weighted)
	}
	return EncodeSubShardV2(ss, weighted)
}

// DecodeSubShardAs parses a blob written in the given format version.
func DecodeSubShardAs(buf []byte, weighted bool, version int) (*SubShard, error) {
	if version == FormatV1 {
		return DecodeSubShard(buf, weighted)
	}
	return DecodeSubShardV2(buf, weighted)
}
