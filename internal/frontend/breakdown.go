package frontend

import (
	"time"

	"roar/internal/stats"
)

// phaseWindow is how many of a phase's most recent delays are kept for
// the order statistics of DelayBreakdown.
const phaseWindow = 512

// phaseStat is one phase's delay history in fixed memory: a count and a
// sum over every observation, and a ring of the last phaseWindow of them.
// Guarded by Frontend.statMu.
type phaseStat struct {
	buf   [phaseWindow]float64 // seconds
	idx   int
	count int
	sum   float64
}

func (p *phaseStat) add(d time.Duration) {
	x := d.Seconds()
	p.buf[p.idx] = x
	p.idx = (p.idx + 1) % len(p.buf)
	p.count++
	p.sum += x
}

// retained is the number of observations still in the ring.
func (p *phaseStat) retained() int { return min(p.count, len(p.buf)) }

// summarize digests the phase: N and Mean describe every observation
// since the frontend started, the order statistics and the deviation the
// retained window.
func (p *phaseStat) summarize() stats.Summary {
	n := p.retained()
	s := stats.NewSample(n)
	s.AddAll(p.buf[:n])
	sm := s.Summarize()
	sm.N = p.count
	if p.count > 0 {
		sm.Mean = p.sum / float64(p.count)
	}
	return sm
}

// phaseStats is the per-phase history behind DelayBreakdown.
type phaseStats struct {
	queue, schedule, dispatch, merge, total phaseStat
	hit                                     phaseStat // cache-hit delays, kept out of the fan-out phases
}

// Breakdown reports the per-phase delay digests in seconds (Fig 7.11,
// plus the admission queue wait). Cache hits are kept out of the fan-out
// phases — a hit has no queue, schedule, dispatch, or merge — and
// summarised separately in CacheHit, so the phase means keep describing
// what fan-outs cost. In every Summary, N and Mean cover all queries
// since the frontend started; Min, Max, the percentiles and Stddev cover
// the most recent phaseWindow of them.
type Breakdown struct {
	Queue, Schedule, Dispatch, Merge, Total stats.Summary
	CacheHit                                stats.Summary
}

// DelayBreakdown returns the phase summaries.
func (f *Frontend) DelayBreakdown() Breakdown {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return Breakdown{
		Queue:    f.phases.queue.summarize(),
		Schedule: f.phases.schedule.summarize(),
		Dispatch: f.phases.dispatch.summarize(),
		Merge:    f.phases.merge.summarize(),
		Total:    f.phases.total.summarize(),
		CacheHit: f.phases.hit.summarize(),
	}
}
