package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/wire"
)

// fakeNode is a scripted node server: it answers every sub-query with
// one id of its own, records the arc it was asked for, and can hold its
// legs (for a time, or behind a gate), fail its pings and report a queue
// depth.
type fakeNode struct {
	id    uint64
	addr  string
	conns atomic.Int64 // connections accepted

	mu      sync.Mutex
	legs    [][2]float64 // (lo, hi) of each sub-query received
	running int
	peak    int
	hold    time.Duration // every leg takes this long (cancellable)
	gate    chan struct{} // non-nil: every leg waits for its close (cancellable)
	depth   int           // reported queue depth
	pings   int
}

// countingListener counts the connections a fakeNode accepts: the pool
// width is visible at the peer as sockets.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func startFakeNode(t *testing.T, id int) *fakeNode {
	t.Helper()
	fn := &fakeNode{id: uint64(id)}
	d := wire.NewDispatcher()
	d.Register(proto.MNodeQuery, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.QueryReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		fn.mu.Lock()
		fn.legs = append(fn.legs, [2]float64{req.Lo, req.Hi})
		fn.running++
		fn.peak = max(fn.peak, fn.running)
		hold, gate, depth := fn.hold, fn.gate, fn.depth
		fn.mu.Unlock()
		defer func() {
			fn.mu.Lock()
			fn.running--
			fn.mu.Unlock()
		}()
		if hold > 0 {
			select {
			case <-time.After(hold):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return proto.QueryResp{IDs: []uint64{fn.id}, Scanned: 1, QueueDepth: depth}, nil
	})
	d.Register(proto.MNodePing, func(context.Context, string, wire.Body) (interface{}, error) {
		fn.mu.Lock()
		defer fn.mu.Unlock()
		fn.pings++
		return nil, errors.New("fake node: still down")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeListener(countingListener{ln, &fn.conns}, d.Handle)
	t.Cleanup(func() { srv.Close() })
	fn.addr = srv.Addr()
	return fn
}

func (fn *fakeNode) set(hold time.Duration, depth int) {
	fn.mu.Lock()
	fn.hold, fn.depth = hold, depth
	fn.mu.Unlock()
}

// takeLegs returns the arcs received since the last call.
func (fn *fakeNode) takeLegs() [][2]float64 {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	out := fn.legs
	fn.legs = nil
	return out
}

func (fn *fakeNode) peakConcurrency() int {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.peak
}

func (fn *fakeNode) pingCount() int {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.pings
}

// optBed is n equal-range fake nodes on one ring at partitioning level
// p, and a frontend built from cfg that has their view installed.
type optBed struct {
	fe    *Frontend
	nodes []*fakeNode
}

func newOptBed(t *testing.T, n, p int, cfg Config) *optBed {
	t.Helper()
	b := &optBed{}
	v := proto.View{Epoch: 1, P: p}
	for i := 0; i < n; i++ {
		fn := startFakeNode(t, i)
		b.nodes = append(b.nodes, fn)
		v.Nodes = append(v.Nodes, proto.NodeInfo{ID: i, Start: float64(i) / float64(n), Addr: fn.addr})
	}
	b.fe = New(cfg)
	t.Cleanup(b.fe.Close)
	if err := b.fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	return b
}

var optSpec = QuerySpec{Plain: &proto.PlainQuery{Terms: []string{"w"}}}

func (b *optBed) query(t *testing.T, spec QuerySpec) Result {
	t.Helper()
	res, err := b.fe.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// concurrent runs k copies of optSpec at once and fails on any error.
func (b *optBed) concurrent(t *testing.T, k int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.fe.Query(context.Background(), optSpec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// legSizes returns the sizes of the arcs every node received since the
// last call, sorted.
func (b *optBed) legSizes() []float64 {
	var out []float64
	for _, fn := range b.nodes {
		for _, l := range fn.takeLegs() {
			out = append(out, ring.MatchSpan(ring.Norm(l[0]), ring.Norm(l[1])))
		}
	}
	sort.Float64s(out)
	return out
}

// allSlowBed is the bed of the hedge-limit rows: 8 nodes at p = 4 and
// PQ = 8, so every node owns one leg of every plan, each holding its
// leg well past a 10 ms hedge delay: every primary wants a hedge.
func allSlowBed(t *testing.T, cfg Config) *optBed {
	cfg.PQ, cfg.HedgeDelay, cfg.ProbeInterval = 8, 10*time.Millisecond, -1
	b := newOptBed(t, 8, 4, cfg)
	for _, fn := range b.nodes {
		fn.set(150*time.Millisecond, 0)
	}
	return b
}

// deepNodeBed is the bed of the two §4.8.2 plan-optimisation rows: the
// same every-node-owns-a-leg geometry, where node 0 has reported a deep
// queue, so its leg is the one estimated to finish last.
func deepNodeBed(t *testing.T, cfg Config) *optBed {
	cfg.PQ, cfg.ProbeInterval = 8, -1
	b := newOptBed(t, 8, 4, cfg)
	b.nodes[0].set(0, 8)
	b.query(t, optSpec) // every node answers once: the depth report is in
	b.legSizes()
	return b
}

// TestConfigOptions builds a frontend from each Config field set to a
// non-default value and checks the effect a caller can observe. Every
// field of Config has a row (the last sub-test counts them), so an
// option that stops doing anything shows up as a row with nothing left
// to assert.
func TestConfigOptions(t *testing.T) {
	rows := map[string]func(t *testing.T){
		"Name": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{Name: "fe-7", ProbeInterval: -1})
			if got := b.fe.HealthReport().FE; got != "fe-7" {
				t.Errorf("health report names the frontend %q, want fe-7", got)
			}
		},
		"PQ": func(t *testing.T) {
			b := newOptBed(t, 4, 1, Config{PQ: 4, ProbeInterval: -1})
			if res := b.query(t, optSpec); res.SubQueries != 4 {
				t.Errorf("PQ 4 over a p = 1 view sent %d sub-queries, want 4", res.SubQueries)
			}
		},
		"RangeAdjust": func(t *testing.T) {
			b := deepNodeBed(t, Config{RangeAdjust: true})
			b.query(t, optSpec)
			sizes := b.legSizes()
			if len(sizes) != 8 || sizes[7]-sizes[0] < 1e-6 {
				t.Errorf("range adjustment left the legs equal: %v", sizes)
			}
			var sum float64
			for _, s := range sizes {
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("adjusted legs cover %v of the ring, want 1", sum)
			}
		},
		"MaxSplits": func(t *testing.T) {
			b := deepNodeBed(t, Config{MaxSplits: 2})
			if res := b.query(t, optSpec); res.SubQueries <= 8 {
				t.Errorf("splitting the slowest leg sent %d sub-queries, want more than 8", res.SubQueries)
			}
		},
		"SubQueryTimeout": func(t *testing.T) {
			b := newOptBed(t, 8, 4, Config{PQ: 8, SubQueryTimeout: 40 * time.Millisecond, ProbeInterval: -1})
			const hold = 2 * time.Second
			b.nodes[0].set(hold, 0)
			start := time.Now()
			res := b.query(t, optSpec)
			if res.Failures == 0 || time.Since(start) >= hold {
				t.Errorf("held leg: %d failures after %v, want the timer to fire and the §4.4 re-dispatch to answer", res.Failures, time.Since(start))
			}
		},
		"Seed": func(t *testing.T) {
			// The seed draws the §4.4 bracket pair around a failed node:
			// the nodes that receive a second leg in each query.
			pairs := func(seed int64) [][]uint64 {
				b := newOptBed(t, 16, 4, Config{PQ: 16, Seed: seed, ProbeInterval: -1})
				b.fe.MarkFailed(0)
				var out [][]uint64
				for i := 0; i < 12; i++ {
					b.query(t, optSpec)
					var pair []uint64
					for _, fn := range b.nodes {
						if len(fn.takeLegs()) == 2 {
							pair = append(pair, fn.id)
						}
					}
					out = append(out, pair)
				}
				return out
			}
			a, again, other := pairs(1), pairs(1), pairs(2)
			if !reflect.DeepEqual(a, again) {
				t.Errorf("same seed, different repair pairs:\n%v\n%v", a, again)
			}
			if reflect.DeepEqual(a, other) {
				t.Errorf("seeds 1 and 2 drew the same 12 repair pairs: %v", a)
			}
		},
		"PoolSize": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{PoolSize: 3, ProbeInterval: -1})
			for i := 0; i < 6; i++ {
				b.query(t, optSpec)
			}
			if got := b.nodes[0].conns.Load(); got != 3 {
				t.Errorf("node accepted %d connections, want the pool's 3", got)
			}
		},
		"MaxInFlight": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{MaxInFlight: 1, ProbeInterval: -1})
			b.nodes[0].set(20*time.Millisecond, 0)
			b.concurrent(t, 4)
			if peak := b.nodes[0].peakConcurrency(); peak != 1 {
				t.Errorf("node saw %d legs at once under an admission window of 1", peak)
			}
		},
		"QueueTimeout": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond, ProbeInterval: -1})
			b.nodes[0].set(300*time.Millisecond, 0)
			first := make(chan error, 1)
			go func() {
				_, err := b.fe.Query(context.Background(), optSpec)
				first <- err
			}()
			for b.nodes[0].peakConcurrency() == 0 {
				time.Sleep(time.Millisecond) // until the first query holds the slot
			}
			if _, err := b.fe.Query(context.Background(), optSpec); !errors.Is(err, ErrOverloaded) {
				t.Errorf("queued query got %v, want ErrOverloaded", err)
			}
			if err := <-first; err != nil {
				t.Error(err)
			}
		},
		"NodeMaxOutstanding": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{NodeMaxOutstanding: 1, ProbeInterval: -1})
			b.nodes[0].set(20*time.Millisecond, 0)
			b.concurrent(t, 4)
			if peak := b.nodes[0].peakConcurrency(); peak != 1 {
				t.Errorf("node saw %d legs at once under a credit cap of 1", peak)
			}
		},
		"HedgeDelay": func(t *testing.T) {
			b := newOptBed(t, 8, 4, Config{PQ: 8, HedgeDelay: 20 * time.Millisecond, ProbeInterval: -1})
			b.nodes[0].set(time.Second, 0)
			if res := b.query(t, optSpec); res.Hedges == 0 || res.HedgeWins == 0 || res.Source != SourceHedged {
				t.Errorf("slow leg: hedges=%d wins=%d source=%q, want a winning hedge", res.Hedges, res.HedgeWins, res.Source)
			}
		},
		"HedgeQuantile": func(t *testing.T) {
			// No fixed delay: the hedge delay is the median of the observed leg
			// latencies (at least minHedgeDelay) once
			// latWarmup of them are in. Unbudgeted, so that a warm-up leg that
			// crosses that median cannot spend the slow leg's tokens.
			b := newOptBed(t, 8, 4, Config{PQ: 8, HedgeQuantile: 0.5, HedgeBudgetFraction: -1, ProbeInterval: -1})
			if res := b.query(t, optSpec); res.Hedges != 0 {
				t.Fatalf("hedged with no latency history: %+v", res)
			}
			for i := 0; i < 2*latWarmup/8; i++ {
				b.query(t, optSpec)
			}
			b.nodes[0].set(time.Second, 0)
			if res := b.query(t, optSpec); res.HedgeWins == 0 {
				t.Errorf("slow leg after warm-up: hedges=%d wins=%d, want a winning hedge", res.Hedges, res.HedgeWins)
			}
		},
		"ProbeInterval": func(t *testing.T) {
			b := newOptBed(t, 2, 1, Config{ProbeInterval: 5 * time.Millisecond})
			b.fe.MarkFailed(0)
			start := time.Now()
			for b.nodes[0].pingCount() < 5 {
				// The default cadence needs 2.5 s for five probes.
				if time.Since(start) > 2*time.Second {
					t.Fatalf("%d probes in %v at a 5 ms interval", b.nodes[0].pingCount(), time.Since(start))
				}
				time.Sleep(time.Millisecond)
			}
			off := newOptBed(t, 2, 1, Config{ProbeInterval: -1})
			off.fe.MarkFailed(0)
			time.Sleep(50 * time.Millisecond)
			if n := off.nodes[0].pingCount(); n != 0 {
				t.Errorf("%d probes with probing disabled", n)
			}
		},
		"HedgeBudgetFraction": func(t *testing.T) {
			b := allSlowBed(t, Config{HedgeBudgetFraction: -1})
			if res := b.query(t, optSpec); res.Hedges != 8 || res.HedgesDenied != 0 {
				t.Errorf("unbudgeted: %d hedges, %d denied, want all 8 legs hedged", res.Hedges, res.HedgesDenied)
			}
			d := allSlowBed(t, Config{})
			if res := d.query(t, optSpec); res.HedgesDenied == 0 {
				t.Errorf("default budget denied nothing on an all-slow cluster: %+v", res)
			}
		},
		"HedgeBudgetBurst": func(t *testing.T) {
			b := allSlowBed(t, Config{HedgeBudgetBurst: 12})
			res := b.query(t, optSpec)
			if res.HedgedSubs <= defaultHedgeBudgetBurst || res.HedgedSubs > 12 {
				t.Errorf("burst 12 launched %d hedged legs, want more than the default %d and at most 12", res.HedgedSubs, defaultHedgeBudgetBurst)
			}
		},
		"HedgeMaxPerQuery": func(t *testing.T) {
			b := allSlowBed(t, Config{HedgeBudgetFraction: -1, HedgeMaxPerQuery: 2})
			if res := b.query(t, optSpec); res.HedgedSubs > 2 || res.HedgesDenied == 0 {
				t.Errorf("per-query cap 2: %d hedged legs, %d denied", res.HedgedSubs, res.HedgesDenied)
			}
		},
		"ShedHighWater": func(t *testing.T) {
			b := newOptBed(t, 2, 1, Config{PQ: 2, ShedHighWater: 5, ProbeInterval: -1})
			low := optSpec
			low.Priority = PriorityLow
			b.query(t, low) // below the mark nothing sheds
			for _, fn := range b.nodes {
				fn.set(0, 9)
			}
			b.query(t, optSpec) // both nodes report their depth
			if _, err := b.fe.Query(context.Background(), low); !errors.Is(err, ErrShed) {
				t.Errorf("low-priority query over the high-water mark got %v, want ErrShed", err)
			}
			b.query(t, optSpec) // normal priority still runs
		},
		"CacheBudget": func(t *testing.T) {
			b := newOptBed(t, 1, 1, Config{CacheBudget: 1 << 20, ProbeInterval: -1})
			if res := b.query(t, optSpec); res.Source != SourceFanout {
				t.Errorf("first query came from %q", res.Source)
			}
			if res := b.query(t, optSpec); res.Source != SourceCache || res.SubQueries != 0 {
				t.Errorf("repeat came from %q with %d sub-queries, want the cache", res.Source, res.SubQueries)
			}
		},
		"TenantRate": func(t *testing.T) {
			// Burst defaults to 8 at this rate; bulk work is metered even idle.
			checkBulkQuota(t, Config{TenantRate: 1e-4, ProbeInterval: -1}, 8)
		},
		"TenantBurst": func(t *testing.T) {
			checkBulkQuota(t, Config{TenantRate: 1e-4, TenantBurst: 2, ProbeInterval: -1}, 2)
		},
	}
	for name, check := range rows {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			check(t)
		})
	}
	t.Run("every field has a row", func(t *testing.T) {
		ct := reflect.TypeOf(Config{})
		for i := 0; i < ct.NumField(); i++ {
			if _, ok := rows[ct.Field(i).Name]; !ok {
				t.Errorf("Config.%s has no behavioural row", ct.Field(i).Name)
			}
		}
		if len(rows) != ct.NumField() {
			t.Errorf("%d rows for %d Config fields", len(rows), ct.NumField())
		}
	})
}

// checkBulkQuota sends bulk-priority queries from one tenant: exactly
// burst of them pass, the next is shed, and another tenant is untouched.
func checkBulkQuota(t *testing.T, cfg Config, burst int) {
	t.Helper()
	b := newOptBed(t, 1, 1, cfg)
	bulk := optSpec
	bulk.Tenant, bulk.Priority = "batch", PriorityBulk
	for i := 0; i < burst; i++ {
		if _, err := b.fe.Query(context.Background(), bulk); err != nil {
			t.Fatalf("bulk query %d of a burst of %d: %v", i, burst, err)
		}
	}
	if _, err := b.fe.Query(context.Background(), bulk); !errors.Is(err, ErrTenantShed) {
		t.Errorf("bulk query past a burst of %d got %v, want ErrTenantShed", burst, err)
	}
	bulk.Tenant = "other"
	if _, err := b.fe.Query(context.Background(), bulk); err != nil {
		t.Errorf("a second tenant was shed with the first: %v", err)
	}
}

// TestApplyViewKeepsClients: a change of p (the paper's reconfiguration
// path) and a quarantine flip re-publish the same nodes at the same
// addresses; the frontend must keep their clients, and with them the
// open connections. Only a node whose address changed is redialled.
func TestApplyViewKeepsClients(t *testing.T) {
	// PQ = n: every node serves one leg of every query, so four queries
	// dial both pool slots of all eight nodes.
	b := newOptBed(t, 8, 2, Config{PQ: 8, PoolSize: 2, ProbeInterval: -1})
	for i := 0; i < 4; i++ {
		b.query(t, optSpec)
	}
	clients := func() map[ring.NodeID]*wire.Client {
		b.fe.mu.RLock()
		defer b.fe.mu.RUnlock()
		out := map[ring.NodeID]*wire.Client{}
		for id, h := range b.fe.nodes {
			out[id] = h.client
		}
		return out
	}
	accepted := func() (n int64) {
		for _, fn := range b.nodes {
			n += fn.conns.Load()
		}
		return n
	}
	before, conns := clients(), accepted()

	v := b.fe.View()
	v.Epoch, v.P = 2, 4
	v.Nodes = append([]proto.NodeInfo(nil), v.Nodes...)
	v.Nodes[1].Quarantined = true
	if err := b.fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if res := b.query(t, optSpec); len(res.IDs) != 7 {
			t.Fatalf("after the view change %d nodes answered, want the 7 not quarantined", len(res.IDs))
		}
	}
	if after := clients(); !reflect.DeepEqual(after, before) {
		t.Errorf("a p change replaced node clients:\nbefore %v\nafter  %v", before, after)
	}
	if got := accepted(); got != conns {
		t.Errorf("a p change opened %d new connections", got-conns)
	}

	if before[1] == nil || len(before) != 8 || conns != 16 {
		t.Fatalf("bed: %d clients, %d connections; want 8 and 16", len(before), conns)
	}

	moved := startFakeNode(t, 3)
	v.Epoch = 3
	v.Nodes = append([]proto.NodeInfo(nil), v.Nodes...)
	v.Nodes[3].Addr = moved.addr
	if err := b.fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	after := clients()
	for id, cl := range before {
		if same := after[id] == cl; same != (id != 3) {
			t.Errorf("node %d: client kept = %v after only node 3 moved", id, same)
		}
	}
}

// TestApplyViewFromParentJSON applies view bytes as the previous
// release's coordinator publishes them (proto's TestViewBytesUnchanged
// pins that today's coordinator emits the same bytes, which is the other
// direction), and the same view carrying the retired "tuning" key, which
// must change nothing.
func TestApplyViewFromParentJSON(t *testing.T) {
	const parent = `{"epoch":7,"p":2,"nodes":[{"id":0,"ring":0,"start":0,"addr":"127.0.0.1:7001"},{"id":1,"ring":0,"start":0.5,"addr":"127.0.0.1:7002","quarantined":true},{"id":2,"ring":1,"start":0.25,"addr":"127.0.0.1:7003"}],"term":3,"ingested":41,"drained":40}`
	withKey := strings.Replace(parent, `"term":3`, `"tuning":{"pool_size":9,"max_in_flight":1,"node_max_outstanding":1},"term":3`, 1)
	for _, raw := range []string{parent, withKey} {
		var v proto.View
		if err := json.Unmarshal([]byte(raw), &v); err != nil {
			t.Fatal(err)
		}
		fe := New(Config{MaxInFlight: 4, ProbeInterval: -1})
		if err := fe.ApplyView(v); err != nil {
			t.Fatal(err)
		}
		got := fe.View()
		if got.Epoch != 7 || got.Term != 3 || got.P != 2 || len(got.Nodes) != 3 || got.Drained != 40 {
			t.Errorf("installed view %+v", got)
		}
		if h := fe.Health(); h[0] != "healthy" || h[1] != "quarantined" || h[2] != "healthy" {
			t.Errorf("health after apply: %v", h)
		}
		if cap(fe.admit) != 4 {
			t.Errorf("admission window %d after applying a view, want the configured 4", cap(fe.admit))
		}
		fe.Close()
	}
}

// TestDelayBreakdownBounded: the per-phase history is a fixed window
// with a running count and sum, so a long-lived frontend's memory does
// not grow with the queries it has served, while N and Mean still
// describe every one of them.
func TestDelayBreakdownBounded(t *testing.T) {
	b := newOptBed(t, 1, 1, Config{CacheBudget: 1 << 20, ProbeInterval: -1})
	// A clock that steps on every reading, by 1 ms for the first half of
	// the run and 3 ms after: the mean over all queries then differs
	// from the mean over any recent window.
	const total = 10 * phaseWindow
	var mu sync.Mutex
	now, step := time.Unix(1e9, 0), time.Millisecond
	b.fe.nowFn = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(step)
		return now
	}
	var fanSum, hitSum time.Duration
	bypass := optSpec
	bypass.CacheControl = proto.CacheBypass
	for i := 0; i < total; i++ {
		if i == total/2 {
			mu.Lock()
			step = 3 * time.Millisecond
			mu.Unlock()
		}
		fanSum += b.query(t, bypass).Delay
		res := b.query(t, optSpec) // the first is a fan-out too, then hits
		if res.Source == SourceCache {
			hitSum += res.Delay
		} else {
			fanSum += res.Delay
		}
	}
	bd := b.fe.DelayBreakdown()
	if bd.Total.N != total+1 || bd.CacheHit.N != total-1 || bd.Dispatch.N != total+1 {
		t.Errorf("N: total %d, dispatch %d, cache hit %d; want %d, %d, %d",
			bd.Total.N, bd.Dispatch.N, bd.CacheHit.N, total+1, total+1, total-1)
	}
	if want := fanSum.Seconds() / float64(total+1); math.Abs(bd.Total.Mean-want) > 1e-9 {
		t.Errorf("Total.Mean = %v, want %v over every fan-out", bd.Total.Mean, want)
	}
	if want := hitSum.Seconds() / float64(total-1); math.Abs(bd.CacheHit.Mean-want) > 1e-9 {
		t.Errorf("CacheHit.Mean = %v, want %v over every hit", bd.CacheHit.Mean, want)
	}
	if bd.Total.P50 <= bd.Total.Mean {
		t.Errorf("P50 %v does not describe the recent (slower) window; mean %v", bd.Total.P50, bd.Total.Mean)
	}
	b.fe.statMu.Lock()
	defer b.fe.statMu.Unlock()
	for name, p := range map[string]*phaseStat{
		"queue": &b.fe.phases.queue, "schedule": &b.fe.phases.schedule, "dispatch": &b.fe.phases.dispatch,
		"merge": &b.fe.phases.merge, "total": &b.fe.phases.total, "hit": &b.fe.phases.hit,
	} {
		if p.retained() != phaseWindow {
			t.Errorf("%s retains %d samples of %d observed, want the window's %d", name, p.retained(), p.count, phaseWindow)
		}
	}
}
