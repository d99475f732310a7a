// Consumer: the drain half of the ingest pipeline. One loop reads
// durable batches out of the WAL and pushes each record to the nodes
// that own it, with at-least-once delivery:
//
//   - A batch is ordered by ascending id once, keeping the last write of
//     a repeated id (store.SortedUnique, the order store.Insert applies
//     anyway), so every push is strictly ascending and a replica applies
//     it without sorting.
//   - Routes are re-resolved on every attempt, by one Route call for the
//     whole batch, so a batch that stalls on a dead node is re-routed the
//     moment the coordinator publishes a view without it — this is what
//     makes decommission replay work without any special casing.
//   - What each target has taken is tracked per record of the batch in
//     flight; a retry pushes a target only the records it has not taken,
//     so a partial failure re-delivers only to the nodes that missed it
//     and a route that changes between two attempts cannot pass a
//     partial delivery off as a whole one.
//   - Failures back off exponentially with jitter, bounded by
//     MaxBackoff, and never advance the drained watermark — the WAL
//     keeps the records until delivery succeeds.
//
// Duplicates are the price of at-least-once, and the node side absorbs
// them: store.Insert dedups by record ID (last write wins), so
// re-delivery is a no-op. See docs/INGEST.md for the full contract.
package ingest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"roar/internal/clock"
	"roar/internal/pps"
	"roar/internal/store"
)

// Target is one delivery destination for a record: Key identifies the
// node across attempts (what it has taken is remembered under it) and
// Push performs the delivery RPC. Push must not keep recs, or their
// nonces and filters, after it returns: the consumer reuses the slice,
// and the records are views of the round's byte buffer, which the next
// round overwrites. A push that must keep them copies them, as the
// wire's encode and store.Store.Insert do.
type Target struct {
	Key  string
	Push func(ctx context.Context, recs []pps.Encoded) error
}

// Placement says that record Rec of a batch belongs on Target.
type Placement struct {
	Rec    int
	Target Target
}

// Route resolves the current owners of every record of a batch at once:
// it appends to dst one Placement per (record, owner) pair, in batch
// order, and returns it. The consumer calls it once per delivery
// attempt, so topology and epoch changes take effect at the next
// attempt. An error (e.g. a record with no live owner) fails the whole
// attempt and the batch is retried after backoff.
type Route func(dst []Placement, batch []pps.Encoded) ([]Placement, error)

// ConsumerConfig tunes a Consumer. Zero values take the documented
// defaults.
type ConsumerConfig struct {
	// Route resolves delivery targets. Required.
	Route Route
	// BatchSize caps the records drained per delivery round. Default
	// 1024. The cap binds only on a backlog; a drain that keeps up takes
	// what has been appended since its last round. A round pays a fixed
	// cost (one Route call, one push per target, one wake of the
	// waiters). On the ingest_drain benchmark's backlog 1024 cost less
	// CPU per record than 256, 512 or 2048: at 2048 one round took the
	// writer's whole window, and the writer and the drain stopped
	// overlapping.
	BatchSize int
	// MinBackoff is the first retry delay. Default 10ms.
	MinBackoff time.Duration
	// MaxBackoff caps the exponential retry delay. Default 2s.
	MaxBackoff time.Duration
	// OnAdvance, when set, observes every drained-watermark advance,
	// before Drained reports it and WaitDrained returns on it.
	// Called from the drain goroutine; must not block on the consumer
	// stopping (in particular it must NOT synchronously drive anything
	// that might call Stop).
	OnAdvance func(drained uint64)
	// Logf, when set, receives one line per delivery failure.
	Logf func(format string, args ...any)
	// Clock times the backoff. Nil means clock.Real.
	Clock clock.Clock
}

func (cc ConsumerConfig) withDefaults() ConsumerConfig {
	if cc.BatchSize <= 0 {
		cc.BatchSize = 1024
	}
	if cc.MinBackoff <= 0 {
		cc.MinBackoff = 10 * time.Millisecond
	}
	if cc.MaxBackoff <= 0 {
		cc.MaxBackoff = 2 * time.Second
	}
	cc.Clock = clock.Or(cc.Clock)
	return cc
}

// Consumer drains a WAL to its routed targets.
type Consumer struct {
	wal *WAL
	cfg ConsumerConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	drained uint64
	waitCh  chan struct{} // closed and replaced on every advance
	started bool

	// cur tails the log after the drained watermark. Only the drain
	// goroutine touches it: created at its first read, dropped on any
	// read error (the next read re-positions from drained), closed when
	// the goroutine exits.
	cur *cursor

	// Scratch the drain goroutine reuses from batch to batch: the records
	// read and the bytes they view, the placements Route returns, and the
	// groups' records laid end to end.
	read   []pps.Encoded
	bytes  []byte
	routes []Placement
	pushed []pps.Encoded
}

// NewConsumer binds a consumer to its WAL. Start begins the drain.
func NewConsumer(w *WAL, cfg ConsumerConfig) *Consumer {
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow background — consumer lifetime root; Stop cancels it
	return &Consumer{
		wal:    w,
		cfg:    cfg.withDefaults(),
		ctx:    ctx,
		cancel: cancel,
		waitCh: make(chan struct{}),
	}
}

func (c *Consumer) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Start launches the drain loop, resuming after sequence `from` (0
// drains everything). Idempotent: a second Start is a no-op.
func (c *Consumer) Start(from uint64) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.drained = from
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run()
	}()
}

// Stop halts the drain loop and waits for it to exit. Idempotent.
func (c *Consumer) Stop() {
	c.cancel()
	c.wg.Wait()
}

// Drained returns the watermark: every record with sequence <= Drained
// has been delivered to all of its routed targets at least once.
func (c *Consumer) Drained() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drained
}

// WaitDrained blocks until the drained watermark reaches seq or ctx
// ends.
func (c *Consumer) WaitDrained(ctx context.Context, seq uint64) error {
	for {
		c.mu.Lock()
		d, ch := c.drained, c.waitCh
		c.mu.Unlock()
		if d >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.ctx.Done():
			return errors.New("ingest: consumer stopped")
		case <-ch:
		}
	}
}

func (c *Consumer) run() {
	defer func() {
		if c.cur != nil {
			c.cur.close()
		}
	}()
	for {
		batch, last, err := c.readBatch()
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			c.logf("ingest: reading wal batch after sequence %d: %v", c.Drained(), err)
			if !c.sleep(c.cfg.MinBackoff) {
				return
			}
			continue
		}
		if len(batch) == 0 {
			// Caught up: wait for an append (or stop).
			select {
			case <-c.ctx.Done():
				return
			case <-c.wal.Notify():
			}
			continue
		}
		if !c.deliver(store.SortedUnique(batch)) {
			return
		}
		c.advance(last)
	}
}

// readBatch collects up to BatchSize records after the drained
// watermark: the frames the cursor has not yielded yet, nothing before
// them. A read error drops the cursor. Records read before the error
// are good and are delivered first, so the drain stalls at the last
// good sequence and the error recurs, alone, at the next read.
//
// The cursor lends each record as a view of its read buffer; readBatch
// copies the bytes into c.bytes, which every round reuses, so a round
// allocates nothing per record. The batch's records view c.bytes until
// the next round. A growth mid-round leaves the records before it
// viewing the old array, which nothing writes again.
func (c *Consumer) readBatch() (recs []pps.Encoded, last uint64, err error) {
	if c.cur == nil {
		c.cur = c.wal.newCursor(c.Drained())
	}
	recs, buf := c.read[:0], c.bytes[:0]
	err = c.cur.read(c.cfg.BatchSize, func(seq uint64, rec pps.Encoded) bool {
		at, mid := len(buf), len(buf)+len(rec.Nonce)
		buf = append(append(buf, rec.Nonce...), rec.Filter...)
		rec.Nonce, rec.Filter = buf[at:mid:mid], buf[mid:len(buf):len(buf)]
		recs = append(recs, rec)
		last = seq
		return true
	})
	c.read, c.bytes = recs, buf
	if err != nil {
		c.cur.close()
		c.cur = nil
		if len(recs) > 0 {
			err = nil
		}
	}
	return recs, last, err
}

// deliver pushes one batch to every routed target, retrying with
// backoff until all succeed or the consumer stops. Returns false only
// on stop.
func (c *Consumer) deliver(batch []pps.Encoded) bool {
	// took[key][i]: target key took batch[i] on an attempt that failed
	// elsewhere. Empty unless something fails.
	took := make(map[string][]bool)
	backoff := c.cfg.MinBackoff
	for {
		if c.ctx.Err() != nil {
			return false
		}
		if c.attempt(batch, took) {
			return true
		}
		// Jittered exponential backoff: a uniformly random slice of the
		// current window avoids retry synchronisation across consumers.
		d := c.cfg.MinBackoff + time.Duration(rand.Int63n(int64(backoff)+1))
		if !c.sleep(d) {
			return false
		}
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
}

// attempt makes one delivery pass: route the batch, group by target the
// records that target has not taken yet, push the groups in parallel,
// and record in took what each took. True when every record has been
// taken by every target it routes to now. Route is the router's whole
// share of the attempt, so whatever lock it takes is held for holder
// resolution alone: grouping and the pushes run here.
func (c *Consumer) attempt(batch []pps.Encoded, took map[string][]bool) bool {
	var err error
	if c.routes, err = c.cfg.Route(c.routes[:0], batch); err != nil {
		c.logf("ingest: routing %d records: %v", len(batch), err)
		return false
	}
	type group struct {
		key  string
		push func(context.Context, []pps.Encoded) error
		n    int // records owed
		recs []pps.Encoded
		err  error
	}
	// Count what each target is owed, then lay the groups out end to end
	// in one slice. Placements come in batch order and the batch is
	// ascending, so every group is too.
	var groups []group
	owed := 0
	index := make(map[string]int)
	of := make([]int, len(c.routes)) // of[j]: group of routes[j], -1 if taken
	for j, pl := range c.routes {
		of[j] = -1
		if has := took[pl.Target.Key]; has != nil && has[pl.Rec] {
			continue
		}
		g, ok := index[pl.Target.Key]
		if !ok {
			g = len(groups)
			index[pl.Target.Key] = g
			groups = append(groups, group{key: pl.Target.Key, push: pl.Target.Push})
		}
		of[j] = g
		groups[g].n++
		owed++
	}
	if cap(c.pushed) < owed {
		c.pushed = make([]pps.Encoded, owed)
	}
	at := 0
	for i := range groups {
		g := &groups[i]
		g.recs = c.pushed[at : at : at+g.n]
		at += g.n
	}
	for j, pl := range c.routes {
		if g := of[j]; g >= 0 {
			groups[g].recs = append(groups[g].recs, batch[pl.Rec])
		}
	}
	var wg sync.WaitGroup
	for i := range groups {
		g := &groups[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.push(c.ctx, g.recs)
		}()
	}
	wg.Wait()
	all := true
	for _, g := range groups {
		if g.err != nil {
			c.logf("ingest: pushing %d records to %s: %v", len(g.recs), g.key, g.err)
			all = false
		}
	}
	if all {
		return true
	}
	for j, pl := range c.routes {
		if g := of[j]; g < 0 || groups[g].err != nil {
			continue
		}
		has := took[pl.Target.Key]
		if has == nil {
			has = make([]bool, len(batch))
			took[pl.Target.Key] = has
		}
		has[pl.Rec] = true
	}
	return false
}

// advance publishes a new drained watermark and wakes waiters. OnAdvance
// runs first, so a waiter that sees the watermark also sees whatever
// OnAdvance recorded (the coordinator's IngestDrained, which views carry
// to the frontends' cache fences).
func (c *Consumer) advance(seq uint64) {
	if c.cfg.OnAdvance != nil {
		c.cfg.OnAdvance(seq)
	}
	c.mu.Lock()
	if seq > c.drained {
		c.drained = seq
	}
	ch := c.waitCh
	c.waitCh = make(chan struct{})
	c.mu.Unlock()
	close(ch)
}

// sleep waits for d or the consumer stopping; false means stopped.
func (c *Consumer) sleep(d time.Duration) bool {
	select {
	case <-c.ctx.Done():
		return false
	case <-clock.After(c.cfg.Clock, d):
		return true
	}
}
