package storage

import (
	"encoding/binary"
	"fmt"
)

// decodeSubShardV2Ref is the straightforward v2 decoder the format
// shipped with, kept as the reference FuzzDecodeSubShardV2 holds
// DecodeSubShardV2 to: both must accept and reject the same blobs and
// produce the same arrays. It validates every structural invariant
// (monotone destinations, monotone sources, counts summing to the edge
// count, the varint region ending exactly at the weight section), one
// varint and one overflow check at a time.
func decodeSubShardV2Ref(buf []byte, weighted bool) (*SubShard, error) {
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
	ss := &SubShard{
		Dsts:    make([]uint32, dstCount),
		Offsets: make([]uint32, dstCount+1),
		Srcs:    make([]uint32, edgeCount),
	}
	v := buf[:end] // varint region; p never legally reaches past it
	var d uint32
	for k := 0; k < dstCount; k++ {
		gap, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated dst gap %d", k)
		}
		p = np
		if k == 0 {
			d = gap
		} else {
			nd := uint64(d) + uint64(gap)
			if gap == 0 || nd > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: dst %d not ascending", k)
			}
			d = uint32(nd)
		}
		ss.Dsts[k] = d
	}
	var sum uint64
	for k := 0; k < dstCount; k++ {
		c, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated count %d", k)
		}
		p = np
		if c == 0 {
			// A destination is listed only if it has sources; rejecting
			// zero keeps the encoding bijective and the source loop's
			// first-raw-then-gaps shape unconditional.
			return nil, fmt.Errorf("storage: v2 blob: dst %d has zero sources", k)
		}
		sum += uint64(c)
		if sum > uint64(edgeCount) {
			return nil, fmt.Errorf("storage: v2 blob: counts exceed %d edges", edgeCount)
		}
		ss.Offsets[k+1] = uint32(sum)
	}
	if sum != uint64(edgeCount) {
		return nil, fmt.Errorf("storage: v2 blob: counts sum to %d, want %d edges", sum, edgeCount)
	}
	srcs, t := ss.Srcs, 0
	for k := 0; k < dstCount; k++ {
		n := int(ss.Offsets[k+1]) - t
		s, np := uvarint32(v, p)
		if np < 0 {
			return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
		}
		p = np
		// Short-run fast paths: the skewed graphs DSSS targets give most
		// destinations 1–3 sources per sub-shard cell, so the common runs
		// decode straight-line with no inner loop.
		switch n {
		case 1:
			srcs[t] = s
			t++
			continue
		case 2:
			srcs[t] = s
			g, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
			}
			p = np
			s2 := uint64(s) + uint64(g)
			if s2 > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: source overflow at dst %d", k)
			}
			srcs[t+1] = uint32(s2)
			t += 2
			continue
		}
		srcs[t] = s
		t++
		for i := 1; i < n; i++ {
			g, np := uvarint32(v, p)
			if np < 0 {
				return nil, fmt.Errorf("storage: v2 blob: truncated sources of dst %d", k)
			}
			p = np
			ns := uint64(s) + uint64(g)
			if ns > 1<<32-1 {
				return nil, fmt.Errorf("storage: v2 blob: source overflow at dst %d", k)
			}
			s = uint32(ns)
			srcs[t] = s
			t++
		}
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
