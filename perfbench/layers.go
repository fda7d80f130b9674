package main

import (
	"bytes"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"nxgraph/internal/diskio"
	"nxgraph/internal/dynamic"
	"nxgraph/internal/engine"
	"nxgraph/internal/model"
	"nxgraph/internal/storage"
	"nxgraph/internal/trace"
)

// schedule returns the open-loop arrival offsets of a Poisson process
// at rate per second over d. The same seed gives the same schedule.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*6151 + 1))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// residentMB reads the process's resident set size.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// traceTotals folds run timelines into per-iteration engine figures.
// Self time is a span's duration minus the part of it its child spans
// cover.
type traceTotals struct {
	runs, iters                    int
	computeUS, stallUS             int64
	gatherUS, applyUS, overlayUS   int64
	edges, runUS                   int64
	bytesRead, bytesWritten, drops int64
	blockReads                     int64
}

func (t *traceTotals) add(tl trace.Timeline) {
	t.runs++
	t.drops += tl.DroppedSpans
	for _, s := range tl.Steps {
		t.iters++
		t.computeUS += s.ComputeUS
		t.stallUS += s.StallUS
		t.edges += s.Edges
		t.bytesRead += s.BytesRead
		t.bytesWritten += s.BytesWritten
		t.blockReads += s.BlocksMiss
	}
	self := selfTimes(tl.Spans)
	for i, s := range tl.Spans {
		switch s.Kind {
		case trace.KindGather:
			t.gatherUS += self[i]
		case trace.KindApply:
			t.applyUS += self[i]
		case trace.KindOverlay:
			t.overlayUS += self[i]
		case trace.KindRun:
			t.runUS += s.DurUS
		}
	}
}

func (t *traceTotals) perIterMS(us int64) float64 { return t.perIter(us) / 1e3 }

func (t *traceTotals) perIter(n int64) float64 { return ratio(float64(n), float64(t.iters)) }

// selfTimes returns each span's duration minus the union of its
// children's intervals, clipped to the span.
func selfTimes(spans []trace.Span) []int64 {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		lo, hi := s.StartUS, s.StartUS+s.DurUS
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, end := int64(0), lo
		for _, k := range ks {
			a, b := max(k.lo, end), min(k.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[i] = s.DurUS - covered
	}
	return out
}

// openStore opens the store under dir on a handle of its own.
func openStore(dir string) (*storage.Store, error) {
	disk, err := diskio.New(dir, diskio.Unthrottled)
	if err != nil {
		return nil, err
	}
	return storage.Open(disk, "dsss")
}

// storagePass times Store.ReadSubShardRaw and Store.DecodeSubShardBlob
// over every sub-shard of the store under dir, on a handle of its own,
// repeating passes for at least minTime and at least three times.
type storagePass struct {
	readMS, decodeMS float64
	edges, rawBytes  int64
	passes           int
}

func timeStorage(dir string, minTime time.Duration) (storagePass, error) {
	st, err := openStore(dir)
	if err != nil {
		return storagePass{}, err
	}
	defer st.Close()
	m := st.Meta()
	dirs := []bool{false}
	if m.HasTranspose {
		dirs = append(dirs, true)
	}
	var reads, decodes []float64
	var res storagePass
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < minTime; pass++ {
		var readNS, decodeNS, edges, raw int64
		for _, tr := range dirs {
			for i := 0; i < m.P; i++ {
				for j := 0; j < m.P; j++ {
					t0 := time.Now()
					blob, err := st.ReadSubShardRaw(i, j, tr)
					t1 := time.Now()
					if err != nil {
						return storagePass{}, err
					}
					ss, err := st.DecodeSubShardBlob(blob)
					t2 := time.Now()
					if err != nil {
						return storagePass{}, err
					}
					readNS += t1.Sub(t0).Nanoseconds()
					decodeNS += t2.Sub(t1).Nanoseconds()
					raw += int64(len(blob))
					edges += int64(ss.NumEdges())
				}
			}
		}
		reads = append(reads, float64(readNS)/1e6)
		decodes = append(decodes, float64(decodeNS)/1e6)
		res.edges, res.rawBytes = edges, raw
	}
	res.readMS, res.decodeMS, res.passes = median(reads), median(decodes), len(reads)
	return res, nil
}

// timeOverlayCompile times DeltaLog.Overlay on the store under dir with
// pending random insertions between existing vertices: each sample
// appends one op, so every call compiles from scratch. It returns the
// median of the samples in ms, and 0 when nothing is pending.
func timeOverlayCompile(dir string, pending int, seed int64) (float64, int, error) {
	if pending <= 0 {
		return 0, 0, nil
	}
	st, err := openStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	ids, err := st.IDMap()
	if err != nil {
		return 0, 0, err
	}
	log, err := dynamic.NewDeltaLog(st)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	add := func() { log.Add(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], 1) }
	for i := 1; i < pending; i++ {
		add()
	}
	const samples = 9
	var out []float64
	for i := 0; i < samples; i++ {
		add()
		t0 := time.Now()
		if _, err := log.Overlay(); err != nil {
			return 0, 0, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return median(out), samples, nil
}

// modelIO is the internal/model Table II prediction, per iteration, for
// the store under dir run with strategy at budget bm. n, m, P, Be and d
// come from the store itself.
func modelIO(st *storage.Store, strategy string, bm int64) model.IO {
	meta := st.Meta()
	var edges, dsts int64
	for _, ss := range meta.SubShards {
		edges += ss.Edges
		dsts += ss.Dsts
	}
	p := model.Params{
		N:  float64(meta.NumVertices),
		M:  float64(meta.NumEdges),
		Ba: engine.Ba,
		Bv: 4, // uint32 vertex ids
		Be: ratio(float64(st.EdgeBytesOnDisk(false)), float64(meta.NumEdges)),
		BM: float64(bm),
		D:  ratio(float64(edges), float64(dsts)),
	}
	switch strategy {
	case "spu":
		return model.SPU(p)
	case "dpu":
		return model.ImplDPU(p)
	default:
		return model.ImplMPU(p)
	}
}
