package benches

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gsi"
	"repro/internal/identity"
	"repro/internal/perf/bench"
)

// admitFixture builds a site policy over a CA-issued user and its
// delegated proxies — the chain shape a chaos run's GRAM submits present
// at the gatekeeper: one proxy link plus the user certificate.
func admitFixture(proxies int) (*identity.CA, *gsi.SitePolicy, []*identity.Credential) {
	rng := rand.New(rand.NewSource(1))
	ca := identity.NewCA("vo-ca", 1e6*time.Hour, rng)
	user := identity.NewPrincipal("chaos-user", rng)
	cred := identity.UserCredential(user, ca.IssueUser(user, 0, 1e5*time.Hour))
	creds := make([]*identity.Credential, proxies)
	for i := range creds {
		p, err := cred.Delegate("chaos-user/p", 0, 100*time.Hour, nil, rng)
		if err != nil {
			panic(err)
		}
		creds[i] = p
	}
	gm := gsi.NewGridmap()
	gm.Map(cred.Subject(), "chaos")
	return ca, &gsi.SitePolicy{Gridmap: gm}, creds
}

// admit runs one gatekeeper admission and fails the benchmark on refusal.
func admit(b *testing.B, pol *gsi.SitePolicy, cred *identity.Credential) {
	if _, _, err := pol.Admit(cred, "submit", time.Hour); err != nil {
		b.Fatal(err)
	}
}

// admitRepeat measures the memoized path: a fresh verifier per iteration
// admits one proxy chain n times, so an iteration pays the chain's two
// signature checks once and answers the rest from the memo.
func admitRepeat(n int) func(b *testing.B) {
	return func(b *testing.B) {
		ca, pol, creds := admitFixture(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol.Auth = &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)}
			for j := 0; j < n; j++ {
				admit(b, pol, creds[0])
			}
		}
	}
}

// admitFresh measures the miss path: every admission presents a proxy the
// verifier has never seen, through a fresh verifier, so every link pays a
// real ed25519.Verify plus the memo's digest and insert — the bound on
// what a memo miss costs.
func admitFresh() func(b *testing.B) {
	return func(b *testing.B) {
		ca, pol, creds := admitFixture(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol.Auth = &gsi.ChainAuthenticator{Verifier: identity.NewVerifier(ca)}
			admit(b, pol, creds[i%len(creds)])
		}
	}
}

// GSI returns the gatekeeper-admission benchmarks: one proxy chain
// admitted 1k times (the chaos sweep's pattern) and a fresh proxy per
// admission (the cost of a memo miss).
func GSI() []bench.Spec {
	return []bench.Spec{
		{Name: "gsi/admit-repeat", EventsPerOp: 1_000, Fn: admitRepeat(1_000)},
		{Name: "gsi/admit-fresh", EventsPerOp: 1, Fn: admitFresh()},
	}
}
