package benches

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/mds"
	"repro/internal/perf/bench"
	"repro/internal/sharp"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// depth4Tickets builds n depth-4 SHARP tickets that share a three-link
// delegation prefix (authority -> agent -> sub -> sub2, then one leaf
// resale each) — the shape RedeemBatch amortizes: n×4 link signatures
// presented, 3+n distinct after dedup.
func depth4Tickets(n int) (tickets []*sharp.Ticket, authKey []byte) {
	eng := sim.NewEngine(1)
	rng := eng.ForkRand()
	nm := capability.NewNodeManager("S", eng, rng, map[capability.ResourceType]float64{capability.CPU: 1e9})
	signer := identity.NewPrincipal("auth", rng)
	auth := sharp.NewAuthority(eng, "S", signer, nm, map[capability.ResourceType]float64{capability.CPU: 1e9})
	agent := sharp.NewAgent(identity.NewPrincipal("agent", rng))
	sub := sharp.NewAgent(identity.NewPrincipal("sub", rng))
	sub2 := sharp.NewAgent(identity.NewPrincipal("sub2", rng))
	sm := identity.NewPrincipal("sm", rng)

	root, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, float64(n), 0, time.Hour)
	if err != nil {
		panic(err)
	}
	if err := agent.Acquire(root); err != nil {
		panic(err)
	}
	mid, err := agent.Sell(sub.Name, sub.Key(), "S", capability.CPU, float64(n), 0, time.Hour)
	if err != nil {
		panic(err)
	}
	if err := sub.Acquire(mid[0]); err != nil {
		panic(err)
	}
	mid2, err := sub.Sell(sub2.Name, sub2.Key(), "S", capability.CPU, float64(n), 0, time.Hour)
	if err != nil {
		panic(err)
	}
	if err := sub2.Acquire(mid2[0]); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		leaves, err := sub2.Sell(sm.Name, sm.Public(), "S", capability.CPU, 1, 0, time.Hour)
		if err != nil {
			panic(err)
		}
		tickets = append(tickets, leaves...)
	}
	return tickets, signer.Public()
}

// verifyChain measures the naive path: one full depth-4 chain
// verification (four ed25519 checks) per ticket, no memoization.
func verifyChain() func(b *testing.B) {
	return func(b *testing.B) {
		tickets, key := depth4Tickets(1)
		t := tickets[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.Verify(key, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// verifyBatch64 measures the amortized path: 64 shared-prefix tickets
// verified through a fresh memo cache per iteration (64×4 = 256 link
// signatures presented, 67 distinct ed25519 checks). The committed
// baseline pins this at >=3x the per-ticket throughput of
// sharp/verify-chain — the batching acceptance gate.
func verifyBatch64() func(b *testing.B) {
	return func(b *testing.B) {
		tickets, key := depth4Tickets(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := identity.NewSigCache(identity.DefaultSigCacheCap)
			for _, t := range tickets {
				if err := t.Verify(key, 0, cache); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// registerRegion measures steady-state soft-state refresh into a warm
// sharded region index: n records re-registered per iteration, each
// rewriting its dense slot in place (alloc-free after warmup).
func registerRegion(n int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine(1)
		net := simnet.New(eng)
		net.AddSite("R", 0, 0)
		net.AddHost("bench/index", "R", 1e9)
		rg := mds.NewRegionIndex(eng, net, "bench/index", "bench", nil)
		attrs := make(map[string]string, 4)
		regs := make([]mds.Registration, n)
		cpus := make([]string, n)
		load := make([]string, n)
		for j := range regs {
			regs[j] = mds.Registration{Rec: mds.Record{
				Name:   fmt.Sprintf("s%03d/n%03d", j/100, j%100),
				Source: fmt.Sprintf("s%03d", j/100),
				Attrs:  attrs,
			}, TTL: time.Hour}
			cpus[j] = fmt.Sprint(2 << uint(j%4))
			load[j] = fmt.Sprint(j % 32)
		}
		// Attr values are precomputed: the benchmark isolates the index's
		// register path, which is alloc-free in steady state.
		fill := func(j int) {
			attrs["os"] = "linux"
			attrs["cpus"] = cpus[j]
			attrs["load"] = load[j]
			attrs["site"] = regs[j].Rec.Source
		}
		for j := range regs {
			fill(j)
			if err := rg.RegisterRecord(regs[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range regs {
				fill(j)
				if err := rg.RegisterRecord(regs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// querySharded measures root fan-out over a sharded federation: 8
// regions × 1,250 records, a fixed query mix (prunable, broad, and
// numeric-range shapes) per iteration.
func querySharded() func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine(1)
		net := simnet.New(eng)
		net.AddSite("HQ", 0, 0)
		net.AddHost("root/index", "HQ", 1e9)
		root := mds.NewRootIndex(eng, net, "root/index")
		in := mds.NewInterner()
		const regions, perRegion = 8, 1250
		attrs := make(map[string]string, 4)
		for r := 0; r < regions; r++ {
			name := fmt.Sprintf("R%02d", r)
			host := name + "/index"
			net.AddHost(host, "HQ", 1e9)
			rg := mds.NewRegionIndex(eng, net, host, name, in)
			for j := 0; j < perRegion; j++ {
				attrs["region"] = name
				attrs["os"] = "linux"
				attrs["cpus"] = fmt.Sprint(2 << uint(j%4))
				attrs["load"] = fmt.Sprint(j % 32)
				if err := rg.RegisterRecord(mds.Registration{Rec: mds.Record{
					Name:   fmt.Sprintf("%s/n%05d", name, j),
					Source: name,
					Attrs:  attrs,
				}, TTL: time.Hour}); err != nil {
					b.Fatal(err)
				}
			}
			root.AttachRegion(rg)
			root.AbsorbSummary(rg.Summary(time.Hour))
		}
		queries := []mds.Query{
			{Filters: []mds.Filter{{Attr: "region", Op: mds.FEq, Value: "R03"}}, Limit: 10},
			{Filters: []mds.Filter{{Attr: "os", Op: mds.FEq, Value: "linux"}}, Limit: 10},
			{Filters: []mds.Filter{{Attr: "cpus", Op: mds.FGe, Value: "16"}}, Limit: 10},
			{Filters: []mds.Filter{{Attr: "ghost", Op: mds.FEq, Value: "x"}}},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := root.QueryShards(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// Scale returns the PR-10 scale-path benchmarks: batched SHARP
// verification vs the naive chain walk, and the sharded MDS hot paths.
func Scale() []bench.Spec {
	return []bench.Spec{
		{Name: "sharp/verify-chain", EventsPerOp: 1, Fn: verifyChain()},
		{Name: "sharp/verify-batch-64", EventsPerOp: 64, Fn: verifyBatch64()},
		{Name: "mds/register-10k", EventsPerOp: 10_000, Fn: registerRegion(10_000)},
		{Name: "mds/query-sharded", EventsPerOp: 4, Fn: querySharded()},
	}
}
