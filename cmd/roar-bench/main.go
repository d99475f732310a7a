// Command roar-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	roar-bench -list
//	roar-bench -run fig6.1
//	roar-bench -run all [-full]
//
// Quick mode (default) uses laptop-scale parameters; -full runs the
// paper-scale sweeps. Output is one aligned text table per experiment,
// titled with the paper artifact it regenerates; the system's measured
// end-to-end and per-layer numbers are in benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"roar/internal/bench"
)

func main() {
	var (
		list = flag.Bool("list", false, "list experiments and exit")
		run  = flag.String("run", "", "experiment id to run, or 'all'")
		full = flag.Bool("full", false, "paper-scale parameters (slow)")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: roar-bench -run <id>   (or -run all)")
		}
		return
	}

	exps := bench.All()
	if *run != "all" {
		e, ok := bench.Get(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	quick := !*full
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
