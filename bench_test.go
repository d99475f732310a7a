// Package roar's top-level benchmarks: one testing.B target per table
// and figure of the paper's evaluation. Each benchmark regenerates its
// artifact in quick (laptop-scale) mode; `cmd/roar-bench -run <id>
// [-full]` prints the same rows at either scale.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The absolute times reported by testing.B measure the harness, not the
// paper's hardware; benchmark/README.md has the end-to-end benchmark
// and its measured tables.
package roar

import (
	"testing"

	"roar/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(true)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Chapter 5 — Privacy Preserving Search (single machine).

func BenchmarkFig5_1_BandwidthModel(b *testing.B)    { benchExperiment(b, "fig5.1") }
func BenchmarkFig5_4_PipelineStages(b *testing.B)    { benchExperiment(b, "fig5.4") }
func BenchmarkFig5_5_MatchThreads(b *testing.B)      { benchExperiment(b, "fig5.5") }
func BenchmarkFig5_6_CollectionScaling(b *testing.B) { benchExperiment(b, "fig5.6") }
func BenchmarkFig5_7_LMvsLC(b *testing.B)            { benchExperiment(b, "fig5.7") }

// Chapter 6 — analytic comparison (simulator over the real scheduler).

func BenchmarkFig6_1_DelayVsP(b *testing.B)             { benchExperiment(b, "fig6.1") }
func BenchmarkFig6_2_DelayVsN(b *testing.B)             { benchExperiment(b, "fig6.2") }
func BenchmarkFig6_3_DelayVsLoad(b *testing.B)          { benchExperiment(b, "fig6.3") }
func BenchmarkFig6_4_DelayVsHeterogeneity(b *testing.B) { benchExperiment(b, "fig6.4") }
func BenchmarkFig6_5_EstimationError(b *testing.B)      { benchExperiment(b, "fig6.5") }
func BenchmarkFig6_6_RaisingPQ(b *testing.B)            { benchExperiment(b, "fig6.6") }
func BenchmarkFig6_7_MechanismAblation(b *testing.B)    { benchExperiment(b, "fig6.7") }
func BenchmarkFig6_8_Unavailability(b *testing.B)       { benchExperiment(b, "fig6.8") }
func BenchmarkTab6_2_MessageCosts(b *testing.B)         { benchExperiment(b, "tab6.2") }

// Chapter 7 — experimental evaluation (real TCP cluster).

func BenchmarkFig7_1_DelayThroughputVsP_LM(b *testing.B) { benchExperiment(b, "fig7.1") }
func BenchmarkFig7_2_DelayThroughputVsP_LC(b *testing.B) { benchExperiment(b, "fig7.2") }
func BenchmarkFig7_3_NodeCPULoad(b *testing.B)           { benchExperiment(b, "fig7.3") }
func BenchmarkFig7_4_UpdateOverhead(b *testing.B)        { benchExperiment(b, "fig7.4") }
func BenchmarkTab7_2_EnergySavings(b *testing.B)         { benchExperiment(b, "tab7.2") }
func BenchmarkFig7_5_DynamicP(b *testing.B)              { benchExperiment(b, "fig7.5") }
func BenchmarkFig7_6_NodeFailures(b *testing.B)          { benchExperiment(b, "fig7.6") }
func BenchmarkFig7_7_FastLoadBalancing(b *testing.B)     { benchExperiment(b, "fig7.7") }
func BenchmarkFig7_9_RangeLoadBalancing(b *testing.B)    { benchExperiment(b, "fig7.9") }
func BenchmarkFig7_11_DelayBreakdown(b *testing.B)       { benchExperiment(b, "fig7.11") }
func BenchmarkTab7_3_LargeScale(b *testing.B)            { benchExperiment(b, "tab7.3") }
func BenchmarkFig7_12_SchedulingDelay(b *testing.B)      { benchExperiment(b, "fig7.12") }
func BenchmarkFig7_13_ObservedSpeeds(b *testing.B)       { benchExperiment(b, "fig7.13") }
func BenchmarkFig7_14_ROARvsPTN(b *testing.B)            { benchExperiment(b, "fig7.14") }
