// Power savings with multiple rings (§4.7, §4.9.1): nodes live on two
// rings, each holding a full copy of the data. At night (low load) one
// ring is powered down entirely — queries keep working off the other —
// and brought back in the morning with only a delta refresh, because
// returning nodes keep their ranges.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"roar/internal/cluster"
	"roar/internal/pps"
	"roar/internal/workload"
)

func main() {
	const nodes = 12
	c, err := cluster.Start(cluster.Options{
		Nodes: nodes,
		Rings: 2, // §4.7: r/2 replicas per ring, full coverage each
		P:     3,
		Seed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	docs, err := c.GenerateCorpus(4000)
	if err != nil {
		log.Fatal(err)
	}
	word := docs[0].Keywords[0]
	query := func(phase string) int {
		res, err := c.Query(context.Background(), pps.And,
			pps.Predicate{Kind: pps.Keyword, Word: word})
		if err != nil {
			log.Fatalf("%s: %v", phase, err)
		}
		fmt.Printf("%-28s %d matches, %v, %d sub-queries\n",
			phase, len(res.IDs), res.Delay.Round(time.Millisecond), res.SubQueries)
		return len(res.IDs)
	}

	day := query("daytime, both rings:")

	// Night falls: power down ring 1. Half the fleet sleeps.
	if err := c.SetRingEnabled(context.Background(), 1, false); err != nil {
		log.Fatal(err)
	}
	night := query("night, ring 1 off:")
	if night != day {
		log.Fatalf("answers changed when the ring went down: %d vs %d", night, day)
	}
	m := workload.Dell1950
	sleeping := nodes / 2
	fmt.Printf("  -> %d nodes asleep: saving ≈ %.0f W (idle draw alone)\n",
		sleeping, float64(sleeping)*m.IdleWatts)

	// Morning: ring 1 returns; nodes kept their ranges so only the
	// overnight delta is re-pushed (here: everything is idempotent).
	before := c.Coord.ObjectsPushed()
	if err := c.SetRingEnabled(context.Background(), 1, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  -> ring 1 back: %d records refreshed\n", c.Coord.ObjectsPushed()-before)
	morning := query("morning, both rings:")
	if morning != day {
		log.Fatalf("answers changed after the ring returned: %d vs %d", morning, day)
	}
	fmt.Println("all phases returned identical results — 100% harvest throughout")
}
