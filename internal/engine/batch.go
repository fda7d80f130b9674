package engine

import (
	"fmt"
	"math"
)

// BatchControl is the per-lane control surface of a fused run, handed to
// callers that need to steer individual queries (the serving layer
// cancels one job's lane without touching its siblings).
type BatchControl interface {
	// Width returns the number of lanes.
	Width() int
	// CancelLane requests cancellation of lane l. The request takes
	// effect at the next iteration boundary: the lane stops computing,
	// its FinishLanes result becomes nil, and sibling lanes are
	// unaffected. Cancelling a lane that already converged is a no-op
	// (its result stands). Safe to call from any goroutine.
	CancelLane(l int)
}

// NewBatchRun initializes a run of the given programs, one lane each,
// over the engine's store in direction dir — NXgraph's "every decoded
// edge byte should do maximum work" applied across queries instead of
// within one. All programs must share the same Zero value; the engine
// must not be configured with the source-sorted ablation order. The
// delta-overlay snapshot, if any, is captured once and shared by every
// lane — callers fusing queries must ensure they may legally observe the
// same graph version. A single program makes the same run NewRun does.
func (e *Engine) NewBatchRun(ps []Program, dir Direction) (*Run, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("engine: batch run needs at least one program")
	}
	if e.cfg.Order == SrcSortedCoarse {
		return nil, fmt.Errorf("engine: source-sorted ablation does not support fused batch runs")
	}
	zero := ps[0].Zero()
	for l := 1; l < len(ps); l++ {
		if math.Float64bits(ps[l].Zero()) != math.Float64bits(zero) {
			return nil, fmt.Errorf("engine: batch lanes must share one Zero value (lane %d: %v, lane 0: %v)", l, ps[l].Zero(), zero)
		}
	}
	return e.newRun(ps, dir)
}

// Width returns the number of lanes.
func (r *Run) Width() int { return r.L }

// CancelLane implements BatchControl.
func (r *Run) CancelLane(l int) {
	if l >= 0 && l < r.L {
		r.cancelReq[l].Store(true)
	}
}

// LaneCancelled reports whether lane l's cancellation took effect (its
// FinishLanes result will be nil).
func (r *Run) LaneCancelled(l int) bool { return r.cancelled[l] }

// LaneIterations returns the number of iterations lane l participated in.
func (r *Run) LaneIterations(l int) int { return r.laneIters[l] }

// endLaneSpan closes lane l's trace span, if the run has lane spans. tag
// is empty for normal completion, "cancelled" for a cancelled lane.
func (r *Run) endLaneSpan(l int, tag string) {
	if r.laneSpans == nil || r.laneEnded[l] {
		return
	}
	r.laneEnded[l] = true
	sp := r.laneSpans[l]
	sp.Tag = tag
	sp.Count = int64(r.laneIters[l])
	r.tr.End(sp)
}

// zeroSlab resets s to the lanes' shared Zero. The literal-0 branch
// compiles to memclr.
func zeroSlab(s []float64, zero float64) {
	if math.Float64bits(zero) == 0 {
		for i := range s {
			s[i] = 0
		}
	} else {
		fill(s, zero)
	}
}
