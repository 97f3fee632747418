package adversary

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
	"repro/internal/sharp"
	"repro/internal/sim"
)

const hour = time.Hour

type fixture struct {
	eng      *sim.Engine
	auth     *sharp.Authority
	nm       *capability.NodeManager
	rng      *rand.Rand
	attacker *identity.Principal
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(7))
	signer := identity.NewPrincipal("authority@A", rng)
	nm := capability.NewNodeManager("A", eng, rng, map[capability.ResourceType]float64{
		capability.CPU: 10,
	})
	auth := sharp.NewAuthority(eng, "A", signer, nm, map[capability.ResourceType]float64{
		capability.CPU: 10,
	})
	auth.SetOversellFactor(100)
	return &fixture{eng: eng, auth: auth, nm: nm, rng: rng,
		attacker: identity.NewPrincipal("mallory", rng)}
}

// buyDirect issues a ticket straight to the attacker (standing in for a
// ticket legitimately bought from a broker).
func (f *fixture) buyDirect(t *testing.T, amount float64, nb, na time.Duration) *sharp.Ticket {
	t.Helper()
	tk, err := f.auth.IssueTicket(f.attacker.Name, f.attacker.Public(), capability.CPU, amount, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestOversellBrokerDoubleSellRejectedAtRedeem(t *testing.T) {
	f := newFixture(t)
	byz := NewOversellBroker(identity.NewPrincipal("byz-broker", f.rng), 10, 1)
	root, err := f.auth.IssueTicket(byz.SellerName(), byz.Key(), capability.CPU, 2, 0, 4*hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := byz.Acquire(root); err != nil {
		t.Fatal(err)
	}
	// Announced inventory is the oversubscription lie: Factor× stock.
	if got := byz.Inventory("A", capability.CPU); got != 20 {
		t.Fatalf("inventory = %v; want 20 (10× the real 2)", got)
	}
	buyer1 := identity.NewPrincipal("sm-1", f.rng)
	buyer2 := identity.NewPrincipal("sm-2", f.rng)
	sold1, err := byz.Sell(buyer1.Name, buyer1.Public(), "A", capability.CPU, 0.5, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	// Second sale re-uses the first delegation verbatim — the same
	// inventory sold to a different service manager.
	sold2, err := byz.Sell(buyer2.Name, buyer2.Public(), "A", capability.CPU, 0.5, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	if byz.ReplaySoldN != 1 {
		t.Fatalf("ReplaySoldN = %d; want 1", byz.ReplaySoldN)
	}
	if sold1[0].Leaf().Hash() != sold2[0].Leaf().Hash() {
		t.Fatal("double-sell did not re-use the same ticket")
	}
	// Both tickets verify — the fraud is invisible cryptographically.
	if err := sold2[0].Verify(f.auth.Key(), time.Minute, nil); err != nil {
		t.Fatalf("double-sold ticket fails verify: %v", err)
	}
	// First redeem wins; the second is caught by the replay cache.
	if _, err := f.auth.Redeem(sold1[0]); err != nil {
		t.Fatalf("first redeem: %v", err)
	}
	_, err = f.auth.Redeem(sold2[0])
	if !errors.Is(err, sharp.ErrReplayed) || !errors.Is(err, sharp.ErrDoubleSpend) {
		t.Fatalf("second redeem = %v; want ErrReplayed (and ErrDoubleSpend)", err)
	}
}

func TestOversellBrokerBudgetExhausts(t *testing.T) {
	f := newFixture(t)
	byz := NewOversellBroker(identity.NewPrincipal("byz-broker", f.rng), 2, 0)
	root, _ := f.auth.IssueTicket(byz.SellerName(), byz.Key(), capability.CPU, 1, 0, 4*hour)
	if err := byz.Acquire(root); err != nil {
		t.Fatal(err)
	}
	buyer := identity.NewPrincipal("sm-1", f.rng)
	// Factor 2 over a 1-CPU root: two full-amount sales clear, the third
	// fails even for a liar.
	for i := 0; i < 2; i++ {
		if _, err := byz.Sell(buyer.Name, buyer.Public(), "A", capability.CPU, 1, 0, hour); err != nil {
			t.Fatalf("sale %d: %v", i, err)
		}
	}
	if _, err := byz.Sell(buyer.Name, buyer.Public(), "A", capability.CPU, 1, 0, hour); !errors.Is(err, sharp.ErrInventory) {
		t.Fatalf("over-budget sale = %v; want ErrInventory", err)
	}
}

func TestForgeriesRejectedTyped(t *testing.T) {
	f := newFixture(t)
	legit := f.buyDirect(t, 1, 0, hour)
	now := time.Minute

	if err := TamperAmount(legit, 3).Verify(f.auth.Key(), now, nil); !errors.Is(err, sharp.ErrBadSignature) {
		t.Fatalf("tampered amount = %v; want ErrBadSignature", err)
	}
	forged := SelfIssuedRoot(f.attacker, "A", capability.CPU, 5, 0, hour, 99)
	if err := forged.Verify(f.auth.Key(), now, nil); !errors.Is(err, sharp.ErrBadChain) {
		t.Fatalf("self-issued root = %v; want ErrBadChain", err)
	}
	donor := f.buyDirect(t, 1, 0, hour)
	if err := SpliceChains(legit, donor).Verify(f.auth.Key(), now, nil); !errors.Is(err, sharp.ErrBadChain) {
		t.Fatalf("spliced chain = %v; want ErrBadChain", err)
	}
	// The widened delegation is validly signed by the rightful leaf
	// holder — only the narrowing rule can reject it. This also pins
	// claimTBS against sharp's encoding: drift would surface here as
	// ErrBadSignature.
	if err := WidenDelegation(legit, f.attacker, 4, 100).Verify(f.auth.Key(), now, nil); !errors.Is(err, sharp.ErrAmountWidened) {
		t.Fatalf("widened delegation = %v; want ErrAmountWidened", err)
	}
	// Redeem applies the same verification.
	if _, err := f.auth.Redeem(forged); !errors.Is(err, sharp.ErrBadChain) {
		t.Fatalf("redeem self-issued = %v; want ErrBadChain", err)
	}
}

func TestRenegeAuthority(t *testing.T) {
	f := newFixture(t)
	ren := NewRenegeAuthority(f.auth, 2)
	t1 := f.buyDirect(t, 1, 0, hour)
	t2 := f.buyDirect(t, 1, 0, hour)
	if _, err := ren.Redeem(t1); err != nil {
		t.Fatalf("first redeem: %v", err)
	}
	// Every 2nd valid redeem is reneged with a fake conflict...
	_, err := ren.Redeem(t2)
	if !errors.Is(err, sharp.ErrConflict) {
		t.Fatalf("reneged redeem = %v; want ErrConflict", err)
	}
	if ren.RenegedN != 1 {
		t.Fatalf("RenegedN = %d; want 1", ren.RenegedN)
	}
	// ...and the ticket is burned: retrying it now replays.
	if _, err := ren.Redeem(t2); !errors.Is(err, sharp.ErrReplayed) {
		t.Fatalf("retry after renege = %v; want ErrReplayed", err)
	}
}

func TestShrinkAuthority(t *testing.T) {
	f := newFixture(t)
	shr := NewShrinkAuthority(f.eng, f.auth, 0.5)
	tk := f.buyDirect(t, 1, 0, 2*hour)
	lease, err := shr.Redeem(tk)
	if err != nil {
		t.Fatal(err)
	}
	// Before the shrink point the lease is honored.
	f.eng.RunUntil(30 * time.Minute)
	if _, err := f.nm.Bind(lease.CapID); err != nil {
		t.Fatalf("capability gone before shrink point: %v", err)
	}
	// After Frac of the term the site has silently reclaimed it.
	f.eng.RunUntil(90 * time.Minute)
	if shr.ShrunkN != 1 {
		t.Fatalf("ShrunkN = %d; want 1", shr.ShrunkN)
	}
	if _, err := f.nm.Bind(lease.CapID); err == nil {
		t.Fatal("capability still bindable after silent shrink")
	}
	// The holder discovers the theft only when renewing.
	renew := f.buyDirect(t, 1, 0, 4*hour)
	if _, err := shr.Renew(lease.ID, renew); !errors.Is(err, sharp.ErrUnknownLease) {
		t.Fatalf("renew shrunk lease = %v; want ErrUnknownLease", err)
	}
}
