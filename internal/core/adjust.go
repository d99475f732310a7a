package core

import (
	"roar/internal/ring"
	"roar/internal/store"
)

// This file implements the two frontend optimisations of §4.8.2:
// range adjustment (shift work between neighbouring sub-queries, free)
// and sub-query splitting (split the slowest sub-query across extra
// servers, costs per-query overhead).

// AdjustRanges implements range adjustment: it repeatedly takes work
// away from the sub-query that finishes last and pushes it to its plan
// neighbours, aiming to equalise finishing times, subject to the replica
// constraints of §4.8.2 (a neighbour may only absorb object ids it
// already stores). It never changes the number of sub-queries and is
// most effective when the replication level is low (node ranges
// comparable to sub-query sizes).
//
// rounds bounds the number of slowest-subquery iterations; the paper
// describes the per-round work as near constant time.
func (pl *Placement) AdjustRanges(plan Plan, est Estimator, rounds int) Plan {
	n := len(plan.Subs)
	if n < 2 {
		return plan
	}
	out := plan
	out.Subs = append([]SubQuery(nil), plan.Subs...)
	for round := 0; round < rounds; round++ {
		slow := 0
		for i, s := range out.Subs {
			if s.Est > out.Subs[slow].Est {
				slow = i
			}
		}
		improved := false
		// Push work backwards across the slow sub-query's lower boundary
		// (the predecessor's Hi == our Lo), then forwards across its
		// upper boundary (the successor's Lo == our Hi).
		if pl.shiftToPred(out.Subs, slow, est) {
			improved = true
		}
		if pl.shiftToSucc(out.Subs, slow, est) {
			improved = true
		}
		if !improved {
			break
		}
	}
	out.Delay = out.maxEst()
	return out
}

// shiftToPred moves the boundary between sub-queries prev and i
// clockwise by δ: prev absorbs (B, B+δ]. Constraint (§4.8.2, "A < ida"):
// the boundary may move right only as far as prev's range end, so the
// absorbed objects are already replicated on prev.
func (pl *Placement) shiftToPred(subs []SubQuery, i int, est Estimator) bool {
	n := len(subs)
	prev := (i - 1 + n) % n
	if prev == i || subs[prev].Node == subs[i].Node {
		return false
	}
	prevArc, _, err := pl.NodeRange(subs[prev].Node)
	if err != nil {
		return false
	}
	b := subs[i].Lo // current boundary
	maxShift := b.DistCW(prevArc.End())
	if prevArc.IsFull() {
		maxShift = subs[i].Size()
	}
	maxShift = min(maxShift, subs[i].Size())
	delta := pl.equalise(subs[prev].Node, subs[prev].Size(), subs[i].Node, subs[i].Size(), maxShift, est)
	return delta > 0 && pl.moveBound(subs, prev, i, prev, b.Add(delta), est)
}

// shiftToSucc moves the boundary between sub-queries i and next counter-
// clockwise by δ: next absorbs (C-δ, C]. Constraint (§4.8.2,
// "A + 1/pq > idc"): the moved boundary plus the replication length may
// reach back only as far as the successor node's range start, so
// absorbed objects are already replicated on it.
func (pl *Placement) shiftToSucc(subs []SubQuery, i int, est Estimator) bool {
	n := len(subs)
	next := (i + 1) % n
	if next == i || subs[next].Node == subs[i].Node {
		return false
	}
	nextArc, _, err := pl.NodeRange(subs[next].Node)
	if err != nil {
		return false
	}
	repl := 1 / float64(pl.p)
	c := subs[i].Hi // current boundary
	// δ is bounded by the distance from the successor's stored-set start
	// (range start - 1/p) to the boundary.
	maxShift := nextArc.Start.Add(-repl).DistCW(c)
	if nextArc.IsFull() {
		maxShift = subs[i].Size()
	}
	maxShift = min(maxShift, subs[i].Size())
	delta := pl.equalise(subs[next].Node, subs[next].Size(), subs[i].Node, subs[i].Size(), maxShift, est)
	return delta > 0 && pl.moveBound(subs, i, next, next, c.Add(-delta), est)
}

// moveBound moves the bound subs[a].Hi == subs[b].Lo of two plan
// neighbours to x; subs[grow], a or b, absorbs what the other gives up.
// The shift holds only if the absorber's node stores every id of its new
// arc (CanServe) and the other leg stays inside its old arc, both decided
// in id space, so a rounding in the shift can neither send a node ids it
// does not hold nor wrap a leg round the ring (Lo == Hi is the full ring).
func (pl *Placement) moveBound(subs []SubQuery, a, b, grow int, x ring.Point, est Estimator) bool {
	na, nb := subs[a], subs[b]
	na.Hi, nb.Lo = x, x
	absorber, giver, old := na, nb, subs[b]
	if grow == b {
		absorber, giver, old = nb, na, subs[a]
	}
	if !pl.CanServe(absorber.Node, absorber.Lo, absorber.Hi) ||
		len(store.Minus(store.ArcSpans(giver.Lo, giver.Hi), store.ArcSpans(old.Lo, old.Hi))) > 0 {
		return false
	}
	na.Est = est.EstimateFinish(na.Node, na.Size())
	nb.Est = est.EstimateFinish(nb.Node, nb.Size())
	subs[a], subs[b] = na, nb
	return true
}

// equalise finds the shift δ ∈ [0, maxShift] that balances the absorber
// (gaining δ of work) against the slow node (losing δ), by bisection on
// the finish-time difference. Returns 0 when shifting cannot help.
func (pl *Placement) equalise(absorber ring.NodeID, absorberSize float64,
	slow ring.NodeID, slowSize float64, maxShift float64, est Estimator) float64 {
	gap := func(d float64) float64 {
		return est.EstimateFinish(absorber, absorberSize+d) - est.EstimateFinish(slow, slowSize-d)
	}
	if gap(0) >= 0 {
		return 0 // absorber is already as slow as (or slower than) us
	}
	if gap(maxShift) <= 0 {
		return maxShift // absorber stays faster even taking all it can
	}
	lo, hi := 0.0, maxShift
	for it := 0; it < 40; it++ {
		mid := (lo + hi) / 2
		if gap(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// SplitSlowest implements sub-query splitting: the slowest sub-query's
// match arc is halved and each half reassigned to the fastest node able
// to serve it. The process repeats while it improves the plan delay, up
// to maxSplits extra sub-queries. Unlike range adjustment this increases
// the fixed per-query overhead (more messages, more matching threads),
// which §4.8.2 warns about and Fig 6.7 quantifies.
func (pl *Placement) SplitSlowest(plan Plan, est Estimator, maxSplits int) Plan {
	out := plan
	out.Subs = append([]SubQuery(nil), plan.Subs...)
	for split := 0; split < maxSplits; split++ {
		slow := 0
		for i, s := range out.Subs {
			if s.Est > out.Subs[slow].Est {
				slow = i
			}
		}
		s := out.Subs[slow]
		half := s.Size() / 2
		if half <= 0 {
			break
		}
		mid := s.Lo.Add(half)
		a, okA := pl.bestServer(s.Lo, mid, est)
		b, okB := pl.bestServer(mid, s.Hi, est)
		if !okA || !okB {
			break
		}
		newMax := max(a.Est, b.Est)
		// Delay after split: max over the untouched subs and the halves.
		rest := 0.0
		for i, t := range out.Subs {
			if i != slow && t.Est > rest {
				rest = t.Est
			}
		}
		if max(newMax, rest) >= s.Est {
			break // splitting no longer helps
		}
		out.Subs[slow] = a
		out.Subs = append(out.Subs, b)
		out.Delay = out.maxEst()
	}
	out.Delay = out.maxEst()
	return out
}

// bestServer returns the fastest sub-query assignment covering (lo, hi]
// among all nodes (on any ring) that store the whole arc.
func (pl *Placement) bestServer(lo, hi ring.Point, est Estimator) (SubQuery, bool) {
	size := lo.DistCW(hi)
	var best SubQuery
	found := false
	for k, r := range pl.rings {
		if r.Len() == 0 {
			continue
		}
		// Candidates: the owner of hi and every node starting in
		// (hi, lo+1/p]; walk clockwise while CanServe holds.
		id := r.Owner(hi)
		for steps := 0; steps < r.Len(); steps++ {
			if pl.CanServe(id, lo, hi) {
				fin := est.EstimateFinish(id, size)
				if !found || fin < best.Est {
					best = SubQuery{Node: id, Ring: k, Lo: lo, Hi: hi, Est: fin}
					found = true
				}
			} else if steps > 0 {
				break // walked past the replica region
			}
			next, err := r.Successor(id)
			if err != nil {
				break
			}
			id = next
		}
	}
	return best, found
}
