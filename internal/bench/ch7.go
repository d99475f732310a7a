package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"roar/internal/cluster"
	"roar/internal/core"
	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ptn"
	"roar/internal/ring"
	"roar/internal/sim"
	"roar/internal/stats"
	"roar/internal/workload"
)

// Chapter 7 experiments: the real TCP cluster. Node speeds are
// calibrated (objects/second throttles) so the shapes track the paper's
// heterogeneous Hen testbed rather than this machine's scheduler noise.

func init() {
	register(Experiment{ID: "fig7.1", Title: "Delay and throughput vs p (PPS_LM: high fixed cost)", Run: fig71})
	register(Experiment{ID: "fig7.2", Title: "Delay and throughput vs p (PPS_LC: low fixed cost)", Run: fig72})
	register(Experiment{ID: "fig7.3", Title: "Per-node CPU load vs p", Run: fig73})
	register(Experiment{ID: "fig7.4", Title: "Update overhead vs replication level", Run: fig74})
	register(Experiment{ID: "tab7.2", Title: "Energy savings at p=5 vs p=47", Run: tab72})
	register(Experiment{ID: "fig7.5", Title: "Changing p dynamically under load steps", Run: fig75})
	register(Experiment{ID: "fig7.6", Title: "Node failures: delay and completeness", Run: fig76})
	register(Experiment{ID: "fig7.7", Title: "Fast load balancing with pq > p", Run: fig77})
	register(Experiment{ID: "fig7.9", Title: "Range load balancing convergence", Run: fig79})
	register(Experiment{ID: "fig7.11", Title: "Delay breakdown at the frontend", Run: fig711})
	register(Experiment{ID: "tab7.3", Title: "Large-scale deployment (EC2 stand-in)", Run: tab73})
	register(Experiment{ID: "fig7.12", Title: "Frontend scheduling delay: PTN vs ROAR", Run: fig712})
	register(Experiment{ID: "fig7.13", Title: "Observed server processing speeds", Run: fig713})
	register(Experiment{ID: "fig7.14", Title: "End-to-end delay: ROAR vs PTN", Run: fig714})
}

// benchCluster spins a throttled cluster with a loaded corpus.
func benchCluster(nodes, p, corpusN int, speeds []float64, fe frontend.Config, fixed time.Duration) (*cluster.Cluster, []pps.Document, error) {
	c, err := cluster.Start(cluster.Options{
		Nodes: nodes, P: p, NodeSpeeds: speeds, Frontend: fe,
		FixedQueryCost: fixed, Seed: 42, Encoder: &benchEncoderConfig,
	})
	if err != nil {
		return nil, nil, err
	}
	docs, recs, err := sharedCorpus(corpusN)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	if err := c.LoadEncoded(recs); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, docs, nil
}

// throughput drives the cluster closed-loop with `workers` clients for
// `dur`, returning completed queries/sec and the delay sample.
func throughput(c *cluster.Cluster, q pps.Query, workers int, dur time.Duration) (float64, *stats.Sample, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   int
		delays  = stats.NewSample(256)
		firstEr error
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
				mu.Lock()
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				total++
				delays.Add(res.Delay.Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return 0, nil, firstEr
	}
	return float64(total) / dur.Seconds(), delays, nil
}

func delayThroughputVsP(id, title string, fixed time.Duration, quick bool) (Table, error) {
	n, corpusN := 12, 4000
	dur := 700 * time.Millisecond
	if !quick {
		n, corpusN = 24, 20000
		dur = 3 * time.Second
	}
	t := Table{ID: id, Title: title,
		Columns: []string{"p", "unloaded delay", "p90", "queries/s (4 clients)"}}
	speeds := workload.UniformSpeeds(n, 150000)
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	for _, p := range divisorsOf(n) {
		if p < 2 {
			continue
		}
		c, _, err := benchCluster(n, p, corpusN, speeds, frontend.Config{}, fixed)
		if err != nil {
			return t, err
		}
		// Latency: one sequential client on an idle system (the paper's
		// per-query measurement), then throughput under closed-loop load.
		delays := stats.NewSample(20)
		for i := 0; i < 20; i++ {
			res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				c.Close()
				return t, err
			}
			delays.Add(res.Delay.Seconds())
		}
		qps, _, err := throughput(c, q, 4, dur)
		c.Close()
		if err != nil {
			return t, err
		}
		t.AddRow(fi(p), fms(time.Duration(delays.Mean()*float64(time.Second))),
			fms(time.Duration(delays.Percentile(90)*float64(time.Second))), f1(qps))
	}
	t.Notes = "delay falls with p (parallelism); throughput peaks at small p and erodes as fixed per-sub-query costs multiply"
	return t, nil
}

func fig71(quick bool) (Table, error) {
	return delayThroughputVsP("fig7.1", "Delay/throughput vs p, high fixed cost (PPS_LM)", 2*time.Millisecond, quick)
}

func fig72(quick bool) (Table, error) {
	return delayThroughputVsP("fig7.2", "Delay/throughput vs p, low fixed cost (PPS_LC)", 200*time.Microsecond, quick)
}

func fig73(quick bool) (Table, error) {
	n, corpusN := 12, 4000
	queries := 40
	if !quick {
		n, corpusN, queries = 24, 20000, 200
	}
	t := Table{ID: "fig7.3", Title: "Average per-node busy fraction at fixed offered load",
		Columns: []string{"p", "mean busy frac", "max busy frac", "imbalance"}}
	speeds := workload.UniformSpeeds(n, 150000)
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	for _, p := range []int{2, n / 2} {
		c, _, err := benchCluster(n, p, corpusN, speeds, frontend.Config{}, time.Millisecond)
		if err != nil {
			return t, err
		}
		wall0 := time.Now()
		for i := 0; i < queries; i++ {
			if _, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q}); err != nil {
				c.Close()
				return t, err
			}
			time.Sleep(5 * time.Millisecond) // fixed offered load
		}
		wall := time.Since(wall0).Seconds()
		st := c.NodeStats(context.Background())
		busy := make([]float64, len(st))
		var sum, max float64
		for i, s := range st {
			busy[i] = float64(s.BusyNanos) / 1e9 / wall
			sum += busy[i]
			if busy[i] > max {
				max = busy[i]
			}
		}
		t.AddRow(fi(p), f3(sum/float64(len(st))), f3(max), f3(stats.LoadImbalance(busy)))
		c.Close()
	}
	t.Notes = "same offered load: larger p spreads each query thinner but pays fixed cost on more nodes, raising total busy time"
	return t, nil
}

// updateBatch is the number of re-encrypted records one IngestPut of
// fig74's update stream carries.
const updateBatch = 64

func fig74(quick bool) (Table, error) {
	n, corpusN := 12, 3000
	dur := 600 * time.Millisecond
	if !quick {
		n, corpusN = 24, 12000
		dur = 2 * time.Second
	}
	t := Table{ID: "fig7.4", Title: "Query throughput with a concurrent update stream, by r",
		Columns: []string{"r", "p", "replicas/update", "queries/s (no updates)", "queries/s (with updates)"}}
	speeds := workload.UniformSpeeds(n, 150000)
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	for _, r := range []int{2, 4, 6} {
		p := n / r
		c, docs, err := benchCluster(n, p, corpusN, speeds, frontend.Config{}, 500*time.Microsecond)
		if err != nil {
			return t, err
		}
		base, _, err := throughput(c, q, 3, dur)
		if err != nil {
			c.Close()
			return t, err
		}
		// Update stream: re-encrypt existing objects and append them to
		// the log, updateBatch per call. It is joined, and its last append
		// drained, before its counters are read and the cluster closed.
		stop, done := make(chan struct{}), make(chan struct{})
		updated := map[uint64]bool{}
		var last uint64
		var updErr error
		go func() {
			defer close(done)
			rng := rand.New(rand.NewSource(1))
			batch := make([]pps.Encoded, updateBatch)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					if batch[i], updErr = c.Enc.EncryptDocument(docs[rng.Intn(len(docs))]); updErr != nil {
						return
					}
				}
				if last, updErr = c.IngestPut(context.Background(), batch...); updErr != nil {
					return
				}
				for _, rec := range batch {
					updated[rec.ID] = true
				}
			}
		}()
		loaded, _, err := throughput(c, q, 3, dur)
		close(stop)
		<-done
		if err == nil {
			err = updErr
		}
		if err == nil && last > 0 {
			err = c.WaitIngestDrained(context.Background(), last)
		}
		// The replicas of an update are the nodes that store it once
		// the drain has delivered it.
		replicas := 0
		for id := range updated {
			for _, nd := range c.Nodes() {
				if _, ok := nd.Store().Get(id); ok {
					replicas++
				}
			}
		}
		c.Close()
		if err != nil {
			return t, err
		}
		perUpdate := 0.0
		if len(updated) > 0 {
			perUpdate = float64(replicas) / float64(len(updated))
		}
		t.AddRow(fi(r), fi(p), f1(perUpdate), f1(base), f1(loaded))
	}
	t.Notes = "the drain delivers each update to the ~r+1 nodes whose stored sets hold it, so an update's cost grows with r"
	return t, nil
}

func tab72(quick bool) (Table, error) {
	n := 45 // the paper's 43-47 Hen nodes
	queries := 1500
	if quick {
		queries = 500
	}
	t := Table{ID: "tab7.2", Title: "Energy at p=5 vs p=47-equivalent (sim, Dell 1950 wattage)",
		Columns: []string{"p", "mean delay (s)", "utilisation", "watts total", "savings"}}
	rng := rand.New(rand.NewSource(1))
	speeds := workload.LogNormalSpeeds(n, 1, 0.3, rng)
	var capacity float64
	for _, s := range speeds {
		capacity += s
	}
	model := workload.Dell1950
	var baseWatts float64
	for _, p := range []int{45, 5} {
		cfg := sim.Config{Algo: sim.ROAR, N: n, P: p, Speeds: speeds,
			Rate: 0.15 * capacity, NumQueries: queries, Seed: 2,
			ProportionalRanges: true, FixedOverhead: 0.01}
		res, err := sim.Run(cfg)
		if err != nil {
			return t, err
		}
		watts := float64(n) * (model.IdleWatts + res.Utilisation*(model.ActiveWatts-model.IdleWatts))
		savings := "-"
		if baseWatts == 0 {
			baseWatts = watts
		} else {
			savings = fmt.Sprintf("%.1f%%", (baseWatts-watts)/baseWatts*100)
		}
		t.AddRow(fi(p), delayCell(res), f3(res.Utilisation), f0(watts), savings)
	}
	t.Notes = "paper Table 7.2: running at p=5 instead of p=47 cuts energy by reducing per-query fixed work"
	return t, nil
}

func fig75(quick bool) (Table, error) {
	n, corpusN := 12, 4000
	phaseQ := 25
	if !quick {
		n, corpusN, phaseQ = 24, 16000, 80
	}
	t := Table{ID: "fig7.5", Title: "Dynamic p adaptation under load steps (delay target 25ms)",
		Columns: []string{"phase", "offered load", "p", "mean delay", "action"}}
	speeds := workload.UniformSpeeds(n, 120000)
	c, _, err := benchCluster(n, 2, corpusN, speeds, frontend.Config{}, 500*time.Microsecond)
	if err != nil {
		return t, err
	}
	defer c.Close()
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	const target = 0.025
	phases := []struct {
		name    string
		pause   time.Duration
		workers int
	}{
		{"low load", 10 * time.Millisecond, 1},
		{"high load", 0, 3},
		{"low load again", 10 * time.Millisecond, 1},
	}
	for _, ph := range phases {
		// Measure, then let the controller react (§4.5: raising p is
		// instant; lowering p waits for data movement).
		mean, err := measurePhase(c, q, ph.workers, ph.pause, phaseQ)
		if err != nil {
			return t, err
		}
		action := "hold"
		p := c.Coord.P()
		switch {
		case mean > target && p < n/2:
			newP := p * 2
			if err := c.Coord.ChangeP(context.Background(), newP); err != nil {
				return t, err
			}
			if err := c.SyncView(); err != nil {
				return t, err
			}
			action = fmt.Sprintf("raise p %d->%d (instant)", p, newP)
		case mean < target/3 && p > 2:
			newP := p / 2
			if err := c.Coord.ChangeP(context.Background(), newP); err != nil {
				return t, err
			}
			if err := c.SyncView(); err != nil {
				return t, err
			}
			action = fmt.Sprintf("lower p %d->%d (after replication)", p, newP)
		}
		mean2, err := measurePhase(c, q, ph.workers, ph.pause, phaseQ)
		if err != nil {
			return t, err
		}
		t.AddRow(ph.name, fmt.Sprintf("%d workers", ph.workers), fi(c.Coord.P()),
			fms(time.Duration(mean2*float64(time.Second))), action)
		_ = mean
	}
	t.Notes = "the system tracks the delay target by moving p, not by adding servers (§7.4)"
	return t, nil
}

func measurePhase(c *cluster.Cluster, q pps.Query, workers int, pause time.Duration, queries int) (float64, error) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		s   = stats.NewSample(queries)
		err error
	)
	per := queries / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res, e := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
				mu.Lock()
				if e != nil && err == nil {
					err = e
				} else if e == nil {
					s.Add(res.Delay.Seconds())
				}
				mu.Unlock()
				if pause > 0 {
					time.Sleep(pause)
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return 0, err
	}
	return s.Mean(), nil
}

func fig76(quick bool) (Table, error) {
	n, corpusN, kills := 15, 4000, 3
	if !quick {
		n, corpusN, kills = 40, 16000, 8
	}
	t := Table{ID: "fig7.6", Title: fmt.Sprintf("%d node failures: delay and completeness", kills),
		Columns: []string{"phase", "mean delay", "sub-queries/query", "complete"}}
	speeds := workload.UniformSpeeds(n, 150000)
	c, docs, err := benchCluster(n, 5, corpusN, speeds,
		frontend.Config{SubQueryTimeout: 400 * time.Millisecond}, 300*time.Microsecond)
	if err != nil {
		return t, err
	}
	defer c.Close()
	word := popularWord(docs)
	want := map[uint64]bool{}
	for _, d := range docs {
		for _, k := range d.Keywords {
			if k == word {
				want[d.ID] = true
				break
			}
		}
	}
	q, err := slimEncoder.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		return t, err
	}
	phase := func(name string) error {
		s := stats.NewSample(10)
		subs := 0
		complete := true
		rounds := 8
		for i := 0; i < rounds; i++ {
			res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				return err
			}
			s.Add(res.Delay.Seconds())
			subs += res.SubQueries
			got := map[uint64]bool{}
			for _, id := range res.IDs {
				got[id] = true
			}
			for id := range want {
				if !got[id] {
					complete = false
				}
			}
		}
		t.AddRow(name, fms(time.Duration(s.Mean()*float64(time.Second))),
			f1(float64(subs)/float64(rounds)), fmt.Sprintf("%v", complete))
		return nil
	}
	if err := phase("before failures"); err != nil {
		return t, err
	}
	for i := 0; i < kills; i++ {
		if err := c.KillNode(i); err != nil {
			return t, err
		}
	}
	if err := phase("after failures (fallback)"); err != nil {
		return t, err
	}
	for i := 0; i < kills; i++ {
		if err := c.RecoverFailure(context.Background(), i); err != nil {
			return t, err
		}
	}
	if err := phase("after recovery"); err != nil {
		return t, err
	}
	t.Notes = "every phase stays complete (100% harvest); failures add split sub-queries and a detection bump, recovery restores baseline"
	return t, nil
}

func fig77(quick bool) (Table, error) {
	n, corpusN := 12, 6000
	queries := 30
	if !quick {
		n, corpusN, queries = 24, 24000, 120
	}
	t := Table{ID: "fig7.7", Title: "Fast load balancing with pq > p (one 8x-slow node)",
		Columns: []string{"pq", "mean delay", "p50", "p99"}}
	speeds := workload.UniformSpeeds(n, 200000)
	speeds[0] = 25000 // the straggler
	p := 3
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	for _, mult := range []int{1, 2, 4} {
		c, _, err := benchCluster(n, p, corpusN, speeds,
			frontend.Config{PQ: p * mult}, 200*time.Microsecond)
		if err != nil {
			return t, err
		}
		s := stats.NewSample(queries)
		for i := 0; i < queries; i++ {
			res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				c.Close()
				return t, err
			}
			s.Add(res.Delay.Seconds())
		}
		c.Close()
		t.AddRow(fi(p*mult),
			fms(time.Duration(s.Mean()*float64(time.Second))),
			fms(time.Duration(s.Percentile(50)*float64(time.Second))),
			fms(time.Duration(s.Percentile(99)*float64(time.Second))))
	}
	t.Notes = "larger pq shrinks the straggler's share and the tail (Figs 7.7/7.8); the speed EWMA then routes around it"
	return t, nil
}

func fig79(quick bool) (Table, error) {
	n, corpusN := 10, 5000
	rounds, queriesPerRound := 5, 20
	if !quick {
		n, corpusN, rounds, queriesPerRound = 20, 20000, 10, 60
	}
	t := Table{ID: "fig7.9", Title: "Range load balancing: imbalance and delay per round",
		Columns: []string{"round", "range/speed imbalance", "busy imbalance", "mean delay"}}
	// Heterogeneous true speeds but uniform hints: ranges start equal
	// and must converge toward speed-proportional.
	rng := rand.New(rand.NewSource(3))
	speeds := workload.LogNormalSpeeds(n, 150000, 0.5, rng)
	c, err := cluster.Start(cluster.Options{
		Nodes: n, P: n / 2, NodeSpeeds: speeds,
		SpeedHints: workload.UniformSpeeds(n, 1), Seed: 7,
		Encoder: &benchEncoderConfig,
	})
	if err != nil {
		return t, err
	}
	defer c.Close()
	_, recs, err := sharedCorpus(corpusN)
	if err != nil {
		return t, err
	}
	if err := c.LoadEncoded(recs); err != nil {
		return t, err
	}
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	prevBusy := make([]int64, n)
	// rangeSpeedImbalance is the structural metric: a node's expected
	// load is its range divided by its speed; perfect balancing drives
	// this ratio uniform.
	rangeSpeedImbalance := func() (float64, map[ring.NodeID]float64) {
		v := c.Coord.View()
		byID := map[int]float64{}
		sorted := append([]proto.NodeInfo(nil), v.Nodes...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
		for i, ni := range sorted {
			next := sorted[(i+1)%len(sorted)].Start
			length := next - ni.Start
			if length <= 0 {
				length += 1
			}
			byID[ni.ID] = length
		}
		loads := map[ring.NodeID]float64{}
		var vals []float64
		for i, id := range c.NodeIDs() {
			l := byID[int(id)] / speeds[i]
			loads[id] = l
			vals = append(vals, l)
		}
		return stats.LoadImbalance(vals), loads
	}
	for round := 0; round < rounds; round++ {
		s := stats.NewSample(queriesPerRound)
		w0 := time.Now()
		for i := 0; i < queriesPerRound; i++ {
			res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				return t, err
			}
			s.Add(res.Delay.Seconds())
		}
		wall := time.Since(w0).Seconds()
		st := c.NodeStats(context.Background())
		busy := make([]float64, n)
		for i, sr := range st {
			busy[i] = float64(sr.BusyNanos-prevBusy[i]) / 1e9 / wall
			prevBusy[i] = sr.BusyNanos
		}
		structural, loads := rangeSpeedImbalance()
		t.AddRow(fi(round), f3(structural), f3(stats.LoadImbalance(busy)),
			fms(time.Duration(s.Mean()*float64(time.Second))))
		// Balance on the structural proxy, as the membership server does
		// (§4.9: range over processing power, not instantaneous load).
		if _, err := c.Coord.BalanceStep(context.Background(), loads, 0.3); err != nil {
			return t, err
		}
		if err := c.SyncView(); err != nil {
			return t, err
		}
	}
	t.Notes = "structural (range/speed) imbalance falls as ranges migrate toward speed-proportional (Figs 7.9/7.10)"
	return t, nil
}

func fig711(quick bool) (Table, error) {
	n, corpusN := 12, 5000
	queries := 30
	if !quick {
		n, corpusN, queries = 24, 20000, 150
	}
	t := Table{ID: "fig7.11", Title: "Delay breakdown as seen at the frontend",
		Columns: []string{"phase", "mean", "p90", "share"}}
	speeds := workload.UniformSpeeds(n, 150000)
	c, _, err := benchCluster(n, 4, corpusN, speeds, frontend.Config{}, 300*time.Microsecond)
	if err != nil {
		return t, err
	}
	defer c.Close()
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	// One sample per phase of the Result, in the row order below.
	names := []string{"queue", "scheduling", "dispatch+match", "merge", "total"}
	phases := make([]*stats.Sample, len(names))
	for i := range phases {
		phases[i] = stats.NewSample(queries)
	}
	for i := 0; i < queries; i++ {
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			return t, err
		}
		for j, d := range []time.Duration{res.Queue, res.Schedule, res.Dispatch, res.Merge, res.Delay} {
			phases[j].Add(d.Seconds())
		}
	}
	total := phases[len(phases)-1].Mean()
	for j, s := range phases {
		t.AddRow(names[j], fms(time.Duration(s.Mean()*float64(time.Second))),
			fms(time.Duration(s.Percentile(90)*float64(time.Second))),
			fmt.Sprintf("%.1f%%", s.Mean()/total*100))
	}
	t.Notes = "dispatch (network + remote matching) dominates; scheduling, admission queueing and merge are small slices (paper Fig 7.11)"
	return t, nil
}

func tab73(quick bool) (Table, error) {
	n, corpusN := 200, 3000
	queries := 25
	if !quick {
		n, corpusN, queries = 1000, 10000, 100
	}
	t := Table{ID: "tab7.3", Title: fmt.Sprintf("ROAR on %d servers (EC2 stand-in on loopback)", n),
		Columns: []string{"metric", "value"}}
	c, err := cluster.Start(cluster.Options{Nodes: n, P: n / 10, Seed: 11,
		Encoder: &benchEncoderConfig})
	if err != nil {
		return t, err
	}
	defer c.Close()
	_, recs, err := sharedCorpus(corpusN)
	if err != nil {
		return t, err
	}
	if err := c.LoadEncoded(recs); err != nil {
		return t, err
	}
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	s := stats.NewSample(queries)
	var sched time.Duration
	for i := 0; i < queries; i++ {
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			return t, err
		}
		s.Add(res.Delay.Seconds())
		sched += res.Schedule
	}
	t.AddRow("servers", fi(n))
	t.AddRow("partitioning level p", fi(n/10))
	t.AddRow("mean query delay", fms(time.Duration(s.Mean()*float64(time.Second))))
	t.AddRow("p50", fms(time.Duration(s.Percentile(50)*float64(time.Second))))
	t.AddRow("p99", fms(time.Duration(s.Percentile(99)*float64(time.Second))))
	t.AddRow("mean scheduling time", fms(sched/time.Duration(queries)))
	t.Notes = "paper Table 7.3: 1000 EC2 servers; scheduling stays in the low milliseconds at p=100"
	return t, nil
}

func fig712(quick bool) (Table, error) {
	ns := []int{100, 300, 1000}
	if !quick {
		ns = []int{100, 300, 1000, 3000}
	}
	t := Table{ID: "fig7.12", Title: "Frontend scheduling delay vs n (p = n/10)",
		Columns: []string{"n", "ROAR Alg1", "ROAR strawman", "PTN scan"}}
	for _, n := range ns {
		rng := rand.New(rand.NewSource(5))
		r := ring.New()
		id := ring.NodeID(0)
		for r.Len() < n {
			if err := r.Insert(id, ring.Norm(rng.Float64())); err == nil {
				id++
			}
		}
		pl, err := core.NewPlacement(n/10, r)
		if err != nil {
			return t, err
		}
		speeds := map[ring.NodeID]float64{}
		for _, nid := range r.IDs() {
			speeds[nid] = 0.5 + rng.Float64()*10
		}
		est := core.EstimatorFunc(func(nid ring.NodeID, size float64) float64 {
			return size / speeds[nid]
		})
		timeIt := func(f func() error) (time.Duration, error) {
			reps := 5
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return time.Since(t0) / time.Duration(reps), nil
		}
		alg1, err := timeIt(func() error { _, err := pl.Schedule(n/10, est); return err })
		if err != nil {
			return t, err
		}
		straw, err := timeIt(func() error { _, err := pl.ScheduleStrawman(n/10, est); return err })
		if err != nil {
			return t, err
		}
		pc, err := startPTNLayoutOnly(n, n/10, speeds)
		if err != nil {
			return t, err
		}
		scan, err := timeIt(func() error { _, err := pc.Schedule(est, nil); return err })
		if err != nil {
			return t, err
		}
		t.AddRow(fi(n), fms(alg1), fms(straw), fms(scan))
	}
	t.Notes = "Algorithm 1 is O(n log p) vs the strawman's O(n·p); PTN's linear scan is cheapest (paper: ROAR ~3x PTN at n=1000)"
	return t, nil
}

func fig713(quick bool) (Table, error) {
	n, corpusN := 8, 5000
	queries := 40
	if !quick {
		n, corpusN, queries = 16, 20000, 150
	}
	t := Table{ID: "fig7.13", Title: "Configured vs frontend-observed server speeds",
		Columns: []string{"node", "configured obj/s", "observed (norm.)", "expected (norm.)"}}
	speeds := make([]float64, n)
	for i := range speeds {
		if i%2 == 0 {
			speeds[i] = 200000
		} else {
			speeds[i] = 50000
		}
	}
	c, _, err := benchCluster(n, n/2, corpusN, speeds, frontend.Config{PQ: n}, 0)
	if err != nil {
		return t, err
	}
	defer c.Close()
	q, err := missQuery()
	if err != nil {
		return t, err
	}
	for i := 0; i < queries; i++ {
		if _, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q}); err != nil {
			return t, err
		}
	}
	estimates := c.FE.SpeedEstimates()
	// Normalise both scales by their fastest entry.
	var maxEst, maxCfg float64
	for _, v := range estimates {
		if v > maxEst {
			maxEst = v
		}
	}
	for _, v := range speeds {
		if v > maxCfg {
			maxCfg = v
		}
	}
	for i, nid := range c.NodeIDs() {
		est, ok := estimates[int(nid)]
		if !ok {
			continue
		}
		t.AddRow(fi(int(nid)), f0(speeds[i]), f3(est/maxEst), f3(speeds[i]/maxCfg))
	}
	t.Notes = "EWMA speed estimates recover the configured 4x fast/slow split (paper Fig 7.13)"
	return t, nil
}

func fig714(quick bool) (Table, error) {
	n, corpusN := 12, 6000
	queries := 30
	if !quick {
		n, corpusN, queries = 24, 24000, 120
	}
	p := n / 4
	t := Table{ID: "fig7.14", Title: "End-to-end query delay: ROAR vs PTN (heterogeneous pool)",
		Columns: []string{"algorithm", "mean", "p50", "p90", "p99"}}
	rng := rand.New(rand.NewSource(9))
	speeds := workload.LogNormalSpeeds(n, 150000, 0.5, rng)
	_, recs, err := sharedCorpus(corpusN)
	if err != nil {
		return t, err
	}
	q, err := missQuery()
	if err != nil {
		return t, err
	}

	// ROAR.
	c, err := cluster.Start(cluster.Options{Nodes: n, P: p, NodeSpeeds: speeds,
		SpeedHints: speeds, Seed: 13, Encoder: &benchEncoderConfig})
	if err != nil {
		return t, err
	}
	if err := c.LoadEncoded(recs); err != nil {
		c.Close()
		return t, err
	}
	roarS := stats.NewSample(queries)
	var roarIDs []uint64
	for i := 0; i < queries; i++ {
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			c.Close()
			return t, err
		}
		roarS.Add(res.Delay.Seconds())
		roarIDs = res.IDs
	}
	c.Close()

	// PTN on identical hardware.
	pc, err := startPTN(n, p, speeds, 0)
	if err != nil {
		return t, err
	}
	defer pc.close()
	if err := pc.load(recs); err != nil {
		return t, err
	}
	ptnS := stats.NewSample(queries)
	var ptnIDs []uint64
	for i := 0; i < queries; i++ {
		ids, d, err := pc.query(context.Background(), q)
		if err != nil {
			return t, err
		}
		ptnS.Add(d.Seconds())
		ptnIDs = ids
	}
	if len(roarIDs) != len(ptnIDs) {
		t.Notes = fmt.Sprintf("WARNING: result sets differ (%d vs %d)", len(roarIDs), len(ptnIDs))
	}
	add := func(name string, s *stats.Sample) {
		t.AddRow(name,
			fms(time.Duration(s.Mean()*float64(time.Second))),
			fms(time.Duration(s.Percentile(50)*float64(time.Second))),
			fms(time.Duration(s.Percentile(90)*float64(time.Second))),
			fms(time.Duration(s.Percentile(99)*float64(time.Second))))
	}
	add("ROAR", roarS)
	add("PTN", ptnS)
	if t.Notes == "" {
		t.Notes = "paper Fig 7.14: PTN slightly ahead (r^p vs r·choices), ROAR close behind — the price of cheap reconfiguration"
	}
	return t, nil
}

// startPTNLayoutOnly builds a PTN layout without node servers, for the
// pure scheduling benchmark.
func startPTNLayoutOnly(n, p int, speeds map[ring.NodeID]float64) (*ptn.PTN, error) {
	ids := make([]ring.NodeID, n)
	for i := range ids {
		ids[i] = ring.NodeID(i)
	}
	return ptn.NewBalanced(ids, speeds, p)
}
