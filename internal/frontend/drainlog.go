package frontend

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
)

// DrainSource reads the coordinator's log: the records with sequence in
// (after, drained], at most max of them, in sequence order, for the
// caller to keep. Fewer than asked means the source's drained watermark
// ends there. A Syncer installs one that asks its coordinator over
// member.drained.
type DrainSource interface {
	DrainedSince(ctx context.Context, after uint64, max int) ([]pps.Encoded, error)
}

// drainLogSize is how many drained records a frontend keeps to bring
// cached answers forward, and what it asks its source for at once (the
// most one member.drained answer carries). Patching the whole window is
// one lane pass over 1 024 records per cached query, ~0.7 ms for one
// slim-encoding predicate on a 2 vCPU AVX-512 host
// (BenchmarkCachePatch/1024), below the ~0.9 ms of CPU a mixed_zipf
// miss costs; an entry older than the window is dropped and fetched
// again instead. At 80 records a second (mixed_zipf's writer) it spans
// ~13 s of writes.
const drainLogSize = proto.MaxDrained

// drainReadTimeout bounds one read from the source. Reads run on the
// frontend's own goroutine, never on a query's, so a slow source only
// delays the window: a hit meanwhile drops its entry and fans out.
const drainReadTimeout = time.Second

// setDrainSource installs where the frontend reads drained records to
// bring its cached answers forward, and starts the goroutine that reads
// them (followDrain). It is called once, before the frontend serves; a
// second call panics. No-op without a cache or a source. Without one,
// or while reads fail, a cached answer computed before the drained
// watermark is dropped at its next hit.
func (f *Frontend) setDrainSource(src DrainSource) {
	d := f.drained
	if d == nil || src == nil {
		return
	}
	if !d.following.CompareAndSwap(false, true) {
		panic("frontend: drain source set twice")
	}
	go f.followDrain(src)
}

// drainLog is a frontend's window on the coordinator's log: the drained
// records with sequence in (lo, lo+len(recs)], each beside its key
// schedule, at most size of them. One goroutine fills it (followDrain);
// a hit only looks at it (view). No element is ever rewritten (the
// window moves by re-slicing and appending), so a span handed out stays
// valid without the lock.
type drainLog struct {
	following atomic.Bool   // a source is installed and followDrain runs
	kick      chan struct{} // the drained watermark advanced (ObserveIngest)
	ahead     chan aheadReq

	mu   sync.Mutex
	size int
	lo   uint64
	recs []pps.Encoded
	ks   []pps.KeySchedule
}

// aheadReq asks followDrain to read through w; it closes done when it
// has tried.
type aheadReq struct {
	w    uint64
	done chan struct{}
}

func newDrainLog() *drainLog {
	return &drainLog{size: drainLogSize, kick: make(chan struct{}, 1), ahead: make(chan aheadReq)}
}

// poke tells followDrain that the watermark advanced. It never blocks:
// a poke already pending covers this one, since followDrain reads the
// watermark after taking it.
func (d *drainLog) poke() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// view returns the records in (after, through] and their schedules if
// the window holds them all; false is a gap.
func (d *drainLog) view(after, through uint64) ([]pps.Encoded, []pps.KeySchedule, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if after < d.lo || through > d.lo+uint64(len(d.recs)) {
		return nil, nil, false
	}
	return d.recs[after-d.lo : through-d.lo], d.ks[after-d.lo : through-d.lo], true
}

// end is the last sequence the window holds.
func (d *drainLog) end() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lo + uint64(len(d.recs))
}

// followDrain is the one reader of src. Whenever the drained watermark
// advances, or a read-ahead asks, it reads the records up to there into
// the window, while the frontend can patch (patcher), until the
// frontend closes. A failed read leaves the window short, a gap for the
// hits that need it, until the next advance.
func (f *Frontend) followDrain(src DrainSource) {
	d := f.drained
	for {
		var w uint64
		var done chan struct{}
		select {
		case <-f.lifeCtx.Done():
			return
		case <-d.kick:
			w = f.ingDrained.Load()
		case ra := <-d.ahead:
			w, done = ra.w, ra.done
		}
		if f.patcher() != nil {
			d.fill(f.lifeCtx, src, w)
		}
		if done != nil {
			close(done)
		}
	}
}

// fill reads from src until the window reaches w, or a read fails or
// comes back empty. A window that cannot reach w from where it ends
// starts afresh size records before w.
func (d *drainLog) fill(ctx context.Context, src DrainSource, w uint64) {
	for {
		hi := d.end()
		if hi >= w {
			return
		}
		from := hi
		if w-hi > uint64(d.size) {
			from = w - uint64(d.size)
		}
		rctx, cancel := context.WithTimeout(ctx, drainReadTimeout)
		recs, err := src.DrainedSince(rctx, from, d.size)
		cancel()
		if err != nil || len(recs) == 0 {
			return
		}
		ks := pps.AppendKeySchedules(make([]pps.KeySchedule, 0, len(recs)), recs)
		d.mu.Lock()
		if from != hi {
			d.lo, d.recs, d.ks = from, nil, nil
		}
		d.recs, d.ks = append(d.recs, recs...), append(d.ks, ks...)
		if over := len(d.recs) - d.size; over > 0 {
			d.lo += uint64(over)
			d.recs, d.ks = d.recs[over:], d.ks[over:]
		}
		d.mu.Unlock()
	}
}

// readAhead has followDrain read the records through drained before the
// frontend is told of it, so the hits that follow find them in the
// window. The Syncer calls it with each polled view; it waits at most
// one read's bound, and does nothing while the frontend cannot patch.
func (f *Frontend) readAhead(ctx context.Context, drained uint64) {
	d := f.drained
	if d == nil || !d.following.Load() || drained <= d.end() || f.patcher() == nil {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, drainReadTimeout)
	defer cancel()
	ra := aheadReq{w: drained, done: make(chan struct{})}
	select {
	case d.ahead <- ra:
	case <-ctx.Done():
		return
	}
	select {
	case <-ra.done:
	case <-ctx.Done():
	}
}

// patcher returns the matcher a patch runs, or nil while the frontend
// cannot patch: no drained-record source, or a node in the view that
// has not answered a probe with the MBits every other node reported (a
// node that reports none, and a frontend that does not probe, disable
// patching).
func (f *Frontend) patcher() *pps.Matcher {
	if f.drained == nil || !f.drained.following.Load() {
		return nil
	}
	var mbits int64
	f.mu.RLock()
	for _, h := range f.nodes {
		b := h.mbits.Load()
		if b <= 0 || (mbits != 0 && b != mbits) {
			f.mu.RUnlock()
			return nil
		}
		mbits = b
	}
	f.mu.RUnlock()
	if mbits == 0 {
		return nil
	}
	if pm := f.matcher.Load(); pm != nil && pm.mbits == mbits {
		return pm.m
	}
	m, err := pps.NewMatcher(pps.ServerParams{MBits: int(mbits)})
	if err != nil {
		return nil
	}
	f.matcher.Store(&patchMatcher{mbits: mbits, m: m})
	return m
}

// patchMatcher is the matcher of the MBits the nodes last agreed on.
type patchMatcher struct {
	mbits int64
	m     *pps.Matcher
}

// patchIDs brings ids, the ascending answer to run's query as of some
// drained watermark, forward over recs, the records drained after it in
// sequence order (ks[i] the key schedule of recs[i]): every id written
// there leaves the answer, and returns if its last write there matches.
// A record's verdict depends on that record alone, so the result is
// what a scan would return over the same writes. Ids the answer holds
// that recs never wrote stay, whatever their sequence.
func patchIDs(ids []uint64, recs []pps.Encoded, ks []pps.KeySchedule, run *pps.Run) []uint64 {
	// Order the writes by id, each id's last write last, and keep that
	// one: last is ascending by id, and so is what matches of it.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(recs[a].ID, recs[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	last := make([]pps.Encoded, 0, len(recs))
	lastKs := make([]pps.KeySchedule, 0, len(recs))
	for j, i := range order {
		if j+1 < len(order) && recs[order[j+1]].ID == recs[i].ID {
			continue
		}
		last = append(last, recs[i])
		lastKs = append(lastKs, ks[i])
	}
	matched := run.MatchScheduled(last, lastKs, make([]uint64, 0, len(last)))

	out := make([]uint64, 0, len(ids)+len(matched))
	w, m := 0, 0
	for _, id := range ids {
		for m < len(matched) && matched[m] < id {
			out = append(out, matched[m])
			m++
		}
		for w < len(last) && last[w].ID < id {
			w++
		}
		if w < len(last) && last[w].ID == id {
			continue // written: matched decides
		}
		out = append(out, id)
	}
	return append(out, matched[m:]...)
}
