// Consumer: the drain half of the ingest pipeline. One loop reads
// durable batches out of the WAL and pushes each record to the nodes
// that own it, with at-least-once delivery:
//
//   - Routes are re-resolved on every attempt, so a batch that stalls
//     on a dead node is re-routed the moment the coordinator publishes
//     a view without it — this is what makes decommission replay work
//     without any special casing.
//   - What each target has taken is tracked per record of the batch in
//     flight; a retry pushes a target only the records it has not taken,
//     so a partial failure re-delivers only to the nodes that missed it
//     and a route that changes between two records of one attempt cannot
//     pass a partial delivery off as a whole one.
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

	"roar/internal/pps"
)

// Target is one delivery destination for a record: Key identifies the
// node across attempts (what it has taken is remembered under it) and
// Push performs the delivery RPC.
type Target struct {
	Key  string
	Push func(ctx context.Context, recs []pps.Encoded) error
}

// Route resolves the current owners of a record. Called fresh on every
// delivery attempt so topology and epoch changes take effect
// immediately. An error (e.g. no live nodes) fails the whole attempt
// and the batch is retried after backoff.
type Route func(rec pps.Encoded) ([]Target, error)

// ConsumerConfig tunes a Consumer. Zero values take the documented
// defaults.
type ConsumerConfig struct {
	// Route resolves delivery targets. Required.
	Route Route
	// BatchSize caps the records drained per delivery round. Default 256.
	BatchSize int
	// MinBackoff is the first retry delay. Default 10ms.
	MinBackoff time.Duration
	// MaxBackoff caps the exponential retry delay. Default 2s.
	MaxBackoff time.Duration
	// OnAdvance, when set, observes every drained-watermark advance.
	// Called from the drain goroutine; must not block on the consumer
	// stopping (in particular it must NOT synchronously drive anything
	// that might call Stop).
	OnAdvance func(drained uint64)
	// Logf, when set, receives one line per delivery failure.
	Logf func(format string, args ...any)
	// After injects the backoff timer (tests). Nil means real time.
	After func(time.Duration) <-chan time.Time
}

func (cc ConsumerConfig) withDefaults() ConsumerConfig {
	if cc.BatchSize <= 0 {
		cc.BatchSize = 256
	}
	if cc.MinBackoff <= 0 {
		cc.MinBackoff = 10 * time.Millisecond
	}
	if cc.MaxBackoff <= 0 {
		cc.MaxBackoff = 2 * time.Second
	}
	if cc.After == nil {
		cc.After = time.After
	}
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
		if !c.deliver(batch) {
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
func (c *Consumer) readBatch() (recs []pps.Encoded, last uint64, err error) {
	if c.cur == nil {
		c.cur = c.wal.newCursor(c.Drained())
	}
	err = c.cur.read(c.cfg.BatchSize, func(seq uint64, rec pps.Encoded) bool {
		recs = append(recs, rec)
		last = seq
		return true
	})
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

// attempt makes one delivery pass: re-resolve routes, group by target
// the records that target has not taken yet, push the groups in
// parallel, and record in took what each took. True when every record
// has been taken by every target it routes to now.
func (c *Consumer) attempt(batch []pps.Encoded, took map[string][]bool) bool {
	type group struct {
		push func(context.Context, []pps.Encoded) error
		recs []pps.Encoded
		idx  []int // recs[j] is batch[idx[j]]
		err  error
	}
	groups := make(map[string]*group)
	for i, rec := range batch {
		targets, err := c.cfg.Route(rec)
		if err != nil {
			c.logf("ingest: routing record %d: %v", rec.ID, err)
			return false
		}
		for _, t := range targets {
			if has := took[t.Key]; has != nil && has[i] {
				continue
			}
			g := groups[t.Key]
			if g == nil {
				g = &group{push: t.Push}
				groups[t.Key] = g
			}
			g.recs = append(g.recs, rec)
			g.idx = append(g.idx, i)
		}
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.push(c.ctx, g.recs)
		}()
	}
	wg.Wait()
	all := true
	for key, g := range groups {
		if g.err != nil {
			c.logf("ingest: pushing %d records to %s: %v", len(g.recs), key, g.err)
			all = false
		}
	}
	if all {
		return true
	}
	for key, g := range groups {
		if g.err != nil {
			continue
		}
		has := took[key]
		if has == nil {
			has = make([]bool, len(batch))
			took[key] = has
		}
		for _, i := range g.idx {
			has[i] = true
		}
	}
	return false
}

// advance publishes a new drained watermark and wakes waiters.
func (c *Consumer) advance(seq uint64) {
	c.mu.Lock()
	if seq > c.drained {
		c.drained = seq
	}
	ch := c.waitCh
	c.waitCh = make(chan struct{})
	c.mu.Unlock()
	close(ch)
	if c.cfg.OnAdvance != nil {
		c.cfg.OnAdvance(seq)
	}
}

// sleep waits for d or the consumer stopping; false means stopped.
func (c *Consumer) sleep(d time.Duration) bool {
	select {
	case <-c.ctx.Done():
		return false
	case <-c.cfg.After(d):
		return true
	}
}
