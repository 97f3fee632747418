package benches_test

// Scale-path benchmarks, shared with the gridlab bench subcommand via
// the registry. Run with:
//
//	go test ./internal/perf/benches -bench Scale -benchmem
//
// sharp/verify-batch-64 vs sharp/verify-chain is the batching
// acceptance gate: per-ticket verification of a shared-prefix batch
// must be at least 3x cheaper than the naive chain walk.

import (
	"testing"

	"repro/internal/perf/benches"
)

func BenchmarkScale(b *testing.B) {
	for _, spec := range benches.Scale() {
		b.Run(spec.Name, spec.Fn)
	}
}

func BenchmarkGSI(b *testing.B) {
	for _, spec := range benches.GSI() {
		b.Run(spec.Name, spec.Fn)
	}
}

// TestBatchVerifySpeedup asserts the >=3x amortization gate using the
// registry's own benchmark bodies, so CI enforces it without depending
// on wall-clock baselines: it times one naive chain verify against the
// per-ticket cost of the 64-ticket memoized batch.
func TestBatchVerifySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	specs := benches.Scale()
	var chainNs, batchNs float64
	for _, s := range specs {
		r := testing.Benchmark(s.Fn)
		perEvent := float64(r.T.Nanoseconds()) / float64(r.N) / s.EventsPerOp
		switch s.Name {
		case "sharp/verify-chain":
			chainNs = perEvent
		case "sharp/verify-batch-64":
			batchNs = perEvent
		}
	}
	if chainNs == 0 || batchNs == 0 {
		t.Fatalf("missing specs: chain=%v batch=%v", chainNs, batchNs)
	}
	speedup := chainNs / batchNs
	t.Logf("verify-chain %.0f ns/ticket, verify-batch-64 %.0f ns/ticket, speedup %.2fx", chainNs, batchNs, speedup)
	if speedup < 3 {
		t.Fatalf("batch verify speedup %.2fx, want >= 3x", speedup)
	}
}
