// Package registry enumerates the roar-lint analyzer suite. It lives
// apart from the framework so analyzers can import
// roar/internal/analysis without a cycle; the driver and the
// analyzers' shared tests import this package instead.
package registry

import (
	"roar/internal/analysis"
	"roar/internal/analysis/atomicfields"
	"roar/internal/analysis/clockinject"
	"roar/internal/analysis/ctxhygiene"
	"roar/internal/analysis/lockdiscipline"
)

// All returns the full suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfields.Analyzer,
		clockinject.Analyzer,
		ctxhygiene.Analyzer,
		lockdiscipline.Analyzer,
	}
}
