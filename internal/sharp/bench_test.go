package sharp

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sim"
)

func benchAuthority(b *testing.B) (*Authority, *Agent, *identity.Principal) {
	b.Helper()
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(1))
	nm := capability.NewNodeManager("S", eng, rng, map[capability.ResourceType]float64{capability.CPU: 1e9})
	auth := NewAuthority(eng, "S", identity.NewPrincipal("auth", rng), nm,
		map[capability.ResourceType]float64{capability.CPU: 1e9})
	return auth, NewAgent(identity.NewPrincipal("agent", rng)), identity.NewPrincipal("sm", rng)
}

func BenchmarkIssueTicket(b *testing.B) {
	auth, agent, _ := benchAuthority(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 0.001, 0, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDelegatedTicket(b *testing.B) {
	auth, agent, sm := benchAuthority(b)
	tk, _ := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 10, 0, time.Hour)
	agent.Acquire(tk)
	subs, _ := agent.Sell(sm.Name, sm.Public(), "S", capability.CPU, 5, 0, time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := subs[0].Verify(auth.Key(), time.Minute, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRedeem(b *testing.B) {
	auth, agent, _ := benchAuthority(b)
	tickets := make([]*Ticket, b.N)
	for i := range tickets {
		tk, err := auth.IssueTicket(agent.Name, agent.Key(), capability.CPU, 0.0001, 0, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		tickets[i] = tk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auth.Redeem(tickets[i]); err != nil {
			b.Fatal(err)
		}
	}
}
