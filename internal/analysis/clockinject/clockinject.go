// Package clockinject bans direct wall-clock access in packages whose
// control loops run on an injected clock.Clock. The dispatcher, hedging,
// health, autoscale and replica loops are all tested on a clock.Fake
// (frontend.Config.Clock, membership.Config.Clock); one stray time.Now
// or time.After in those packages silently reintroduces wall-clock
// dependence — tests go flaky, and the deterministic budget/hysteresis
// proofs stop covering the shipped code path.
//
// Both calls (time.Now()) and bare references (now = time.Now) are
// flagged, and each sanctioned touchpoint carries a
// `//lint:allow wallclock`, which keeps the packages' complete
// wall-clock surface greppable: clock.Real's two methods, and the
// cluster harness's waits on real elections.
package clockinject

import (
	"go/ast"

	"roar/internal/analysis"
)

// Packages lists the import-path segments naming the injected-clock
// packages. A package is covered when its import path's last segment is
// in this list.
var Packages = map[string]bool{
	"frontend":    true,
	"membership":  true, // includes the autoscale controller and replica
	"cluster":     true,
	"coordclient": true, // failover backoff must be test-steerable
	"clock":       true, // Real's two touchpoints are the whole sanctioned surface
}

// banned are the time package's wall-clock entry points. time.Duration
// arithmetic and time.Time values are fine — only reading or waiting on
// the real clock is restricted.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// Analyzer is the clockinject pass.
var Analyzer = &analysis.Analyzer{
	Name:     "clockinject",
	AllowKey: "wallclock",
	Doc: "bans direct time.Now/Sleep/After/Since/NewTimer/NewTicker in injected-clock " +
		"packages (frontend, membership, cluster); route through the injected clock or " +
		"annotate the sanctioned wall-clock touchpoint with //lint:allow wallclock",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Packages[lastSegment(pass.Path)] {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue // tests drive the fake clocks and real timeouts alike
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			if analysis.PkgNameOf(pass, id) != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"direct time.%s in injected-clock package %q; use the injected clock, or annotate the sanctioned touchpoint with //lint:allow wallclock",
				sel.Sel.Name, lastSegment(pass.Path))
			return true
		})
	}
	return nil
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
