// Package benches registers the concrete benchmark specs the repository
// tracks for regressions: sim-kernel microbenchmarks (schedule/fire,
// cancel churn, ticker steady state), gatekeeper admission, and
// chaos-sweep macrobenchmarks.
// The same specs back the bench test files (go test -bench) and the
// gridlab bench subcommand, so the committed BENCH_baseline.json and
// ad-hoc test runs measure identical bodies.
package benches

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultlab"
	"repro/internal/perf/bench"
	"repro/internal/perf/chaos"
	"repro/internal/sim"
)

// scheduleFire builds a fresh engine per iteration, schedules n events
// over a spread of virtual times, and drains the queue — the kernel's
// push/pop churn path.
func scheduleFire(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine(1)
			for j := 0; j < n; j++ {
				e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
			}
			e.Run()
		}
	}
}

// cancelChurn schedules n events, cancels every other one (exercising
// lazy tombstones and compaction), and drains the rest.
func cancelChurn(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine(1)
			evs := make([]sim.Event, 0, n)
			for j := 0; j < n; j++ {
				evs = append(evs, e.Schedule(time.Duration(j%997)*time.Millisecond, func() {}))
			}
			for j := 0; j < len(evs); j += 2 {
				e.Cancel(evs[j])
			}
			e.Run()
		}
	}
}

// ticker drives one ticker for n ticks per iteration — the steady-state
// node-recycling path, allocation-free after warmup.
func ticker(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		count := 0
		//gridlint:ignore snapcapture microbenchmark counter on a throwaway engine that is never snapshotted
		tk := e.NewTicker(time.Second, func() { count++ })
		defer tk.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.RunUntil(e.Now() + time.Duration(n)*time.Second)
		}
	}
}

// snapshotBench measures Engine.Snapshot over an engine with n pending
// events — the deep walker's capture cost.
func snapshotBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Snapshot()
		}
	}
}

// forkBench measures Snapshot.Fork: one capture, b.N rewinds, each
// followed by a short replay so the restored heap is actually exercised.
func forkBench(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration(j%997)*time.Millisecond, func() {})
		}
		snap := e.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap.Fork()
			e.RunUntil(time.Millisecond)
		}
	}
}

// fluidChurn measures the max-min allocator under flow churn: a
// clustered topology (16 clusters of 4 resources, consumers confined to
// one cluster) with a steady pool of 64 long-lived consumers, through
// `ops` remove+add pairs. Components stay small, so the incremental
// dirty-set allocator re-fills ~4 consumers per change where the full
// reference mode re-fills all 64 and reschedules every completion event
// — the committed baseline pins the incremental entry at ≥2× the
// admitted+removed flows/sec of the full one.
func fluidChurn(ops int, full bool) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine(1)
			s := sim.NewFluidSystem(e)
			s.SetFullRecompute(full)
			const clusters, per = 16, 4
			res := make([]*sim.FluidResource, clusters*per)
			for j := range res {
				res[j] = s.NewResource(fmt.Sprintf("r%d", j), 100)
			}
			// Long-lived consumers (work far beyond the horizon) so the
			// measured cost is pure add/remove reallocation churn.
			add := func(c, k int) *sim.FluidConsumer {
				fc := &sim.FluidConsumer{Name: "f", Weight: 1 + float64(k%3)}
				s.Add(fc, 1e12, res[c*per+k%per], res[c*per+(k+1)%per])
				return fc
			}
			live := make([]*sim.FluidConsumer, 0, clusters*4)
			for c := 0; c < clusters; c++ {
				for k := 0; k < 4; k++ {
					live = append(live, add(c, k))
				}
			}
			for op := 0; op < ops; op++ {
				idx := op % len(live)
				s.Remove(live[idx])
				live[idx] = add(op%clusters, op)
				e.RunUntil(e.Now() + time.Millisecond)
			}
		}
	}
}

// Fluid returns the fluid-kernel churn benchmarks: the incremental
// allocator and the full-recompute reference running the identical
// churn script (the differential gates prove their outputs identical;
// these measure the cost gap).
func Fluid() []bench.Spec {
	const ops = 1000
	return []bench.Spec{{
		Name:        "fluid/churn-1k",
		EventsPerOp: 2 * ops, // flows admitted + removed per iteration
		Fn:          fluidChurn(ops, false),
	}, {
		Name:        "fluid/incremental-vs-full",
		EventsPerOp: 2 * ops,
		Fn:          fluidChurn(ops, true),
	}}
}

// Kernel returns the sim-kernel microbenchmark specs. sizes lists the
// schedule/fire churn sizes; Smoke uses the small ones, the bench test
// files add the 1M-event variant.
func Kernel(sizes ...int) []bench.Spec {
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000}
	}
	var specs []bench.Spec
	for _, n := range sizes {
		specs = append(specs, bench.Spec{
			Name:        benchName("kernel/schedule-fire", n),
			EventsPerOp: float64(n),
			Fn:          scheduleFire(n),
		})
	}
	specs = append(specs,
		bench.Spec{Name: "kernel/cancel-churn-10k", EventsPerOp: 10_000, Fn: cancelChurn(10_000)},
		bench.Spec{Name: "kernel/ticker-1k", EventsPerOp: 1_000, Fn: ticker(1_000)},
		bench.Spec{Name: "kernel/snapshot-10k", EventsPerOp: 10_000, Fn: snapshotBench(10_000)},
		bench.Spec{Name: "kernel/fork-10k", EventsPerOp: 10_000, Fn: forkBench(10_000)},
	)
	return specs
}

// Sweep returns the chaos-sweep macrobenchmarks: a shrunken scenario
// (4 sites, 90-minute horizon) over one seed × all profiles, run through
// the parallel executor at workers=1 so the measurement is the single-run
// cost, not host parallelism. The warm-fork spec builds each seed's
// federation once and re-forks it per profile (the production Sweep
// path); the cold-start spec rebuilds per cell, preserved as the
// reference the fork speedup is judged against — gridlab bench reports
// both in sweeps/sec, and the baseline pins warm strictly above cold.
func Sweep() []bench.Spec {
	cfg := faultlab.DefaultChaosConfig()
	cfg.Sites = 4
	cfg.Target = 2
	cfg.Horizon = 90 * time.Minute
	cfg.Converge = 15 * time.Minute
	profiles := faultlab.Profiles()
	return []bench.Spec{{
		Name:        "sweep/chaos-small",
		SweepsPerOp: float64(len(profiles)),
		Fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chaos.Sweep(1, 1, profiles, cfg, 1)
			}
		},
	}, {
		Name:        "sweep/chaos-small-cold",
		SweepsPerOp: float64(len(profiles)),
		Fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := &faultlab.SweepResult{}
				for _, p := range profiles {
					res.Add(faultlab.RunChaos(1, p, cfg))
				}
			}
		},
	}}
}

// All returns the full registry the gridlab bench subcommand runs.
func All() []bench.Spec {
	return append(append(append(append(Kernel(), Fluid()...), Scale()...), GSI()...), Sweep()...)
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%s-%dm", prefix, n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%s-%dk", prefix, n/1_000)
	default:
		return fmt.Sprintf("%s-%d", prefix, n)
	}
}
