package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"roar/internal/ring"
)

// Estimator predicts how long a node would take to finish a sub-query
// covering the given fraction of the id space, measured from now. The
// frontend implements it from speed EWMAs and outstanding work (§4.8);
// the simulator implements it from exact queue state.
type Estimator interface {
	EstimateFinish(id ring.NodeID, size float64) float64
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(ring.NodeID, float64) float64

// EstimateFinish calls f.
func (f EstimatorFunc) EstimateFinish(id ring.NodeID, size float64) float64 { return f(id, size) }

// SubQuery is one slice of a planned query: node Node matches the
// objects with ids in the half-open arc (Lo, Hi]. Hi is the sub-query's
// logical destination (id_query in §4.2); with the default equal split,
// Lo = Hi - 1/pq and the pair encodes exactly conditions (4.1)/(4.2).
// Lo == Hi denotes the full ring (the pq = 1 case); see ring.MatchSpan.
type SubQuery struct {
	Node ring.NodeID
	Ring int // index of the ring the node sits on
	Lo   ring.Point
	Hi   ring.Point
	Est  float64 // estimated finish time
}

// Size returns the match arc length (1 when Lo == Hi, the full ring).
func (s SubQuery) Size() float64 { return ring.MatchSpan(s.Lo, s.Hi) }

// Plan is a complete assignment of one query to servers.
type Plan struct {
	Start ring.Point // chosen starting id on the ring
	PQ    int        // partitioning level used for this query
	Delay float64    // estimated completion time (max over sub-queries)
	Subs  []SubQuery
}

// maxEst recomputes the plan delay from its sub-queries.
func (p *Plan) maxEst() float64 {
	max := 0.0
	for _, s := range p.Subs {
		if s.Est > max {
			max = s.Est
		}
	}
	return max
}

// Schedule runs Algorithm 1 (§4.8.1): it sweeps the query starting point
// over [0, 1/pq), visiting only the ids where some probe point crosses a
// node boundary, and returns the plan with the smallest estimated delay.
// Complexity O(n log pq) for n total nodes.
//
// With multiple rings, each probe point is served by the faster of the
// per-ring owners, and boundary crossings from every ring are swept
// (§4.8.1 "Scheduling for Multiple Rings").
func (pl *Placement) Schedule(pq int, est Estimator) (Plan, error) {
	if pq < pl.p {
		return Plan{}, fmt.Errorf("core: pq=%d below minimum partitioning level p=%d", pq, pl.p)
	}
	for k, r := range pl.rings {
		if r.Len() == 0 {
			return Plan{}, fmt.Errorf("core: ring %d is empty", k)
		}
	}
	nr := len(pl.rings)
	size := 1 / float64(pq)

	// Per-probe, per-ring current owner and its finish estimate.
	owner := make([][]ring.NodeID, pq)
	finish := make([][]float64, pq)
	// best finish per probe = min over rings.
	probeEst := make([]float64, pq)

	h := &crossingHeap{}
	for i := 0; i < pq; i++ {
		owner[i] = make([]ring.NodeID, nr)
		finish[i] = make([]float64, nr)
		base := ring.Norm(float64(i) / float64(pq))
		probeEst[i] = -1
		for k, r := range pl.rings {
			id := r.Owner(base)
			owner[i][k] = id
			finish[i][k] = est.EstimateFinish(id, size)
			if probeEst[i] < 0 || finish[i][k] < probeEst[i] {
				probeEst[i] = finish[i][k]
			}
			// Distance (relative to start=0) at which this probe leaves
			// the current owner: the clockwise distance from the probe
			// base to the owner's range end.
			a, err := r.Range(id)
			if err != nil {
				return Plan{}, err
			}
			d := base.DistCW(a.End())
			if a.IsFull() {
				d = 1 // single-node ring: never crossed within the sweep
			}
			heap.Push(h, crossing{dist: d, probe: i, ring: k})
		}
	}

	delayQ := maxOf(probeEst)
	// Candidate starts are evaluated at the midpoint of each sweep
	// segment between consecutive crossings: the configuration is
	// constant on the open segment, and midpoints are immune to the
	// float rounding that makes exact boundary points ambiguous.
	next := size
	if h.Len() > 0 && (*h)[0].dist < size {
		next = (*h)[0].dist
	}
	bestDelay, bestStart := delayQ, next/2

	for h.Len() > 0 {
		d := (*h)[0].dist
		if d >= size {
			break // swept the whole [0, 1/pq) interval
		}
		// Apply every crossing at this exact distance before judging the
		// configuration: on symmetric rings many probes cross boundaries
		// simultaneously, and intermediate states correspond to no real
		// starting id.
		for h.Len() > 0 && (*h)[0].dist <= d+1e-12 {
			c := heap.Pop(h).(crossing)
			i, k := c.probe, c.ring
			r := pl.rings[k]
			succ, err := r.Successor(owner[i][k])
			if err != nil {
				return Plan{}, err
			}
			owner[i][k] = succ
			wasMax := probeEst[i] == delayQ
			finish[i][k] = est.EstimateFinish(succ, size)
			probeEst[i] = minOf(finish[i])
			if wasMax && probeEst[i] < delayQ {
				delayQ = maxOf(probeEst) // O(pq), amortised per §4.8.1
			} else if probeEst[i] > delayQ {
				delayQ = probeEst[i]
			}
			// Next crossing for this probe on this ring.
			a, err := r.Range(succ)
			if err != nil {
				return Plan{}, err
			}
			base := ring.Norm(float64(i) / float64(pq))
			nd := base.DistCW(a.End())
			if nd <= c.dist {
				nd = 1 // wrapped past the sweep window; retire this entry
			}
			heap.Push(h, crossing{dist: nd, probe: i, ring: k})
		}
		if delayQ < bestDelay {
			next := size
			if h.Len() > 0 && (*h)[0].dist < size {
				next = (*h)[0].dist
			}
			bestDelay, bestStart = delayQ, (d+next)/2
		}
	}

	return pl.planAt(ring.Norm(bestStart), pq, est), nil
}

// planAt materialises the plan for a specific starting id. Each
// sub-query's Lo is the previous probe itself, the first's the last
// probe, so neighbours share their bound exactly and the plan's id spans
// partition the ring: a Lo computed as probe - 1/pq rounds apart from
// the previous Hi and leaves ids between them to no sub-query or to two.
// At pq = 1 this makes Lo == Hi, the full ring.
func (pl *Placement) planAt(start ring.Point, pq int, est Estimator) Plan {
	size := 1 / float64(pq)
	plan := Plan{Start: start, PQ: pq, Subs: make([]SubQuery, 0, pq)}
	lo := start.Add(float64(pq-1) / float64(pq))
	for i := 0; i < pq; i++ {
		probe := start.Add(float64(i) / float64(pq))
		node, rk, fin := pl.fastestOwner(probe, size, est)
		plan.Subs = append(plan.Subs, SubQuery{
			Node: node,
			Ring: rk,
			Lo:   lo,
			Hi:   probe,
			Est:  fin,
		})
		lo = probe
	}
	plan.Delay = plan.maxEst()
	return plan
}

// fastestOwner returns the owner of the probe point with the smallest
// finish estimate across rings.
func (pl *Placement) fastestOwner(probe ring.Point, size float64, est Estimator) (ring.NodeID, int, float64) {
	bestID, bestRing, bestFin := ring.InvalidNode, -1, 0.0
	for k, r := range pl.rings {
		id := r.Owner(probe)
		if id == ring.InvalidNode {
			continue
		}
		fin := est.EstimateFinish(id, size)
		if bestRing < 0 || fin < bestFin {
			bestID, bestRing, bestFin = id, k, fin
		}
	}
	return bestID, bestRing, bestFin
}

// ScheduleRandom is the simple baseline of §4.8.1: try `tries` random
// starting points and keep the best. Used for comparison in the
// scheduling-cost experiments.
func (pl *Placement) ScheduleRandom(pq, tries int, est Estimator, rng *rand.Rand) (Plan, error) {
	if pq < pl.p {
		return Plan{}, fmt.Errorf("core: pq=%d below minimum partitioning level p=%d", pq, pl.p)
	}
	if tries < 1 {
		tries = 1
	}
	var best Plan
	for t := 0; t < tries; t++ {
		start := ring.Norm(rng.Float64() / float64(pq))
		plan := pl.planAt(start, pq, est)
		if t == 0 || plan.Delay < best.Delay {
			best = plan
		}
	}
	return best, nil
}

// ScheduleStrawman is the O(n·pq) deterministic sweep of §4.8.1: iterate
// the starting id over every distinct boundary in [0, 1/pq) and fully
// recompute the plan each time. It must agree with Schedule on the
// achieved delay; the tests and Fig 7.12 rely on this.
func (pl *Placement) ScheduleStrawman(pq int, est Estimator) (Plan, error) {
	if pq < pl.p {
		return Plan{}, fmt.Errorf("core: pq=%d below minimum partitioning level p=%d", pq, pl.p)
	}
	size := 1 / float64(pq)
	// Segment boundaries: every node boundary mapped into [0, 1/pq).
	// The assignment is constant between consecutive boundaries, so we
	// evaluate each segment's midpoint (matching Schedule's convention).
	var bounds []float64
	for _, r := range pl.rings {
		for _, nd := range r.Nodes() {
			f := float64(nd.Start)
			for f >= size {
				f -= size
			}
			bounds = append(bounds, f)
		}
	}
	sort.Float64s(bounds)
	starts := make([]float64, 0, len(bounds)+1)
	if len(bounds) == 0 {
		starts = append(starts, size/2)
	} else {
		starts = append(starts, bounds[0]/2)
		for i := 0; i+1 < len(bounds); i++ {
			starts = append(starts, (bounds[i]+bounds[i+1])/2)
		}
		starts = append(starts, (bounds[len(bounds)-1]+size)/2)
	}
	var best Plan
	first := true
	for _, s := range starts {
		plan := pl.planAt(ring.Norm(s), pq, est)
		if first || plan.Delay < best.Delay {
			best, first = plan, false
		}
	}
	return best, nil
}

// crossing is a heap entry: the sweep distance at which a probe point
// crosses into the next node on one ring.
type crossing struct {
	dist  float64
	probe int
	ring  int
}

type crossingHeap []crossing

func (h crossingHeap) Len() int            { return len(h) }
func (h crossingHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h crossingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *crossingHeap) Push(x interface{}) { *h = append(*h, x.(crossing)) }
func (h *crossingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
