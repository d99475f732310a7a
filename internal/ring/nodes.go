package ring

import (
	"errors"
	"fmt"
	"sort"
)

// NodeID identifies a server on the ring. IDs are assigned by the
// membership layer and are stable across range changes.
type NodeID int

// InvalidNode is returned by lookups on an empty ring.
const InvalidNode NodeID = -1

// NodeRange is one server's contiguous ownership arc. Ranges of all live
// nodes partition the ring: node i owns [Start_i, Start_{i+1}).
type NodeRange struct {
	ID    NodeID
	Start Point
}

// Ring is an ordered set of node ranges partitioning [0, 1). The zero
// value is an empty ring. Ring is not safe for concurrent mutation;
// callers that share a Ring across goroutines must synchronise or use
// Clone to produce immutable snapshots.
type Ring struct {
	// nodes is sorted by Start. Node i owns [nodes[i].Start,
	// nodes[(i+1)%len].Start).
	nodes []NodeRange
	byID  map[NodeID]int // index into nodes
}

// ErrDuplicateNode is returned when inserting an ID already present.
var ErrDuplicateNode = errors.New("ring: duplicate node id")

// ErrNodeNotFound is returned when an operation names an absent node.
var ErrNodeNotFound = errors.New("ring: node not found")

// New returns an empty ring.
func New() *Ring {
	return &Ring{byID: make(map[NodeID]int)}
}

// NewEqual builds a ring of n nodes with ids 0..n-1 and equal ranges.
// It is the common starting configuration for experiments.
func NewEqual(n int) *Ring {
	r := New()
	for i := 0; i < n; i++ {
		// Insertion at exact i/n positions; ignore error (ids unique).
		_ = r.Insert(NodeID(i), Norm(float64(i)/float64(n)))
	}
	return r
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns a copy of the node ranges in ring order.
func (r *Ring) Nodes() []NodeRange {
	out := make([]NodeRange, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// IDs returns all node ids in ring order.
func (r *Ring) IDs() []NodeID {
	out := make([]NodeID, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.ID
	}
	return out
}

// Contains reports whether id is on the ring.
func (r *Ring) Contains(id NodeID) bool {
	_, ok := r.byID[id]
	return ok
}

// Clone returns a deep copy of the ring.
func (r *Ring) Clone() *Ring {
	c := &Ring{nodes: make([]NodeRange, len(r.nodes)), byID: make(map[NodeID]int, len(r.byID))}
	copy(c.nodes, r.nodes)
	for k, v := range r.byID {
		c.byID[k] = v
	}
	return c
}

// Insert adds a node whose range starts at start. The previous owner of
// that point keeps the portion before start; the new node owns from
// start to the next node's start.
func (r *Ring) Insert(id NodeID, start Point) error {
	if _, ok := r.byID[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].Start >= start })
	if i < len(r.nodes) && r.nodes[i].Start == start {
		return fmt.Errorf("ring: node %d already starts at %v", r.nodes[i].ID, start)
	}
	r.nodes = append(r.nodes, NodeRange{})
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = NodeRange{ID: id, Start: start}
	r.reindex(i)
	return nil
}

// Remove deletes a node; its range is absorbed by its predecessor
// (the predecessor's range now extends to the removed node's end).
func (r *Ring) Remove(id NodeID) error {
	i, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, id)
	}
	r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	delete(r.byID, id)
	r.reindex(i)
	return nil
}

// SetStart moves a node's range start (the boundary with its
// predecessor). Moving the boundary clockwise shrinks the node; moving
// it counter-clockwise grows it into the predecessor. The new start must
// remain strictly between the predecessor's start and the node's end;
// on a ring of two nodes, where both are the other node's start, that is
// any point but it.
func (r *Ring) SetStart(id NodeID, start Point) error {
	i, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNodeNotFound, id)
	}
	if len(r.nodes) == 1 {
		r.nodes[i].Start = start
		return nil
	}
	prev := r.nodes[(i-1+len(r.nodes))%len(r.nodes)]
	next := r.nodes[(i+1)%len(r.nodes)]
	// start must lie in (prev.Start, next.Start) going clockwise.
	span := prev.Start.DistCW(next.Start)
	if len(r.nodes) == 2 {
		span = 1
	}
	off := prev.Start.DistCW(start)
	if off <= 0 || off >= span {
		return fmt.Errorf("ring: new start %v for node %d outside (%v,%v)", start, id, prev.Start, next.Start)
	}
	r.nodes[i].Start = start
	// Order may be perturbed if the slice wraps at 0; resort to be safe.
	sort.Slice(r.nodes, func(a, b int) bool { return r.nodes[a].Start < r.nodes[b].Start })
	r.reindex(0)
	return nil
}

func (r *Ring) reindex(from int) {
	for i := from; i < len(r.nodes); i++ {
		r.byID[r.nodes[i].ID] = i
	}
	// Entries before 'from' are still valid only if from>0 shifts didn't
	// touch them; Insert/Remove shift indices at>=i, so refresh all when
	// from==0 was requested or be conservative for small rings.
	if from == 0 {
		for i := range r.nodes {
			r.byID[r.nodes[i].ID] = i
		}
	}
}

// Owner returns the node owning point q, or InvalidNode on an empty ring.
func (r *Ring) Owner(q Point) NodeID {
	i := r.ownerIndex(q)
	if i < 0 {
		return InvalidNode
	}
	return r.nodes[i].ID
}

func (r *Ring) ownerIndex(q Point) int {
	n := len(r.nodes)
	if n == 0 {
		return -1
	}
	// Find the last node with Start <= q; wrap to the last node if q is
	// before the first start.
	i := sort.Search(n, func(i int) bool { return r.nodes[i].Start > q }) - 1
	if i < 0 {
		i = n - 1
	}
	return i
}

// Range returns the ownership arc of node id.
func (r *Ring) Range(id NodeID) (Arc, error) {
	i, ok := r.byID[id]
	if !ok {
		return Arc{}, fmt.Errorf("%w: %d", ErrNodeNotFound, id)
	}
	return r.rangeAt(i), nil
}

func (r *Ring) rangeAt(i int) Arc {
	n := len(r.nodes)
	if n == 1 {
		return FullArc()
	}
	start := r.nodes[i].Start
	end := r.nodes[(i+1)%n].Start
	return ArcBetween(start, end)
}

// Successor returns the node clockwise after id.
func (r *Ring) Successor(id NodeID) (NodeID, error) {
	i, ok := r.byID[id]
	if !ok {
		return InvalidNode, fmt.Errorf("%w: %d", ErrNodeNotFound, id)
	}
	return r.nodes[(i+1)%len(r.nodes)].ID, nil
}

// Predecessor returns the node counter-clockwise before id.
func (r *Ring) Predecessor(id NodeID) (NodeID, error) {
	i, ok := r.byID[id]
	if !ok {
		return InvalidNode, fmt.Errorf("%w: %d", ErrNodeNotFound, id)
	}
	return r.nodes[(i-1+len(r.nodes))%len(r.nodes)].ID, nil
}

// Validate checks the internal invariants: sorted starts, unique ids,
// index map consistency, and full coverage of [0,1). It is used by
// property tests and returns a descriptive error on the first violation.
func (r *Ring) Validate() error {
	if len(r.nodes) != len(r.byID) {
		return fmt.Errorf("ring: %d nodes but %d index entries", len(r.nodes), len(r.byID))
	}
	for i, nr := range r.nodes {
		if j, ok := r.byID[nr.ID]; !ok || j != i {
			return fmt.Errorf("ring: index for node %d is %d, want %d", nr.ID, j, i)
		}
		if i > 0 && r.nodes[i-1].Start >= nr.Start {
			return fmt.Errorf("ring: starts not strictly increasing at %d", i)
		}
		if nr.Start < 0 || nr.Start >= 1 {
			return fmt.Errorf("ring: start %v out of [0,1)", nr.Start)
		}
	}
	// Coverage: sum of range lengths must be 1.
	if len(r.nodes) > 0 {
		total := 0.0
		for i := range r.nodes {
			total += r.rangeAt(i).Length
		}
		if total < 0.9999 || total > 1.0001 {
			return fmt.Errorf("ring: ranges cover %v of the ring, want 1", total)
		}
	}
	return nil
}
