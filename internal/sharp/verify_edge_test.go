package sharp

import (
	"errors"
	"testing"
	"time"

	"repro/internal/capability"
	"repro/internal/identity"
)

// TestVerifyWindowEdges pins the exact boundary semantics of the leaf
// validity window: [NotBefore, NotAfter) — inclusive start, exclusive
// end.
func TestVerifyWindowEdges(t *testing.T) {
	f := newFixture(t)
	tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, 10*time.Minute, hour)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		now     time.Duration
		wantErr error
	}{
		{"before window", 10*time.Minute - time.Nanosecond, ErrExpired},
		{"notBefore == now (inclusive)", 10 * time.Minute, nil},
		{"mid window", 30 * time.Minute, nil},
		{"last valid instant", hour - time.Nanosecond, nil},
		{"notAfter == now (exclusive)", hour, ErrExpired},
		{"after window", hour + time.Minute, ErrExpired},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tk.Verify(f.auth.Key(), tc.now, nil)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Verify(now=%v) = %v; want %v", tc.now, err, tc.wantErr)
			}
		})
	}
}

// TestRedeemClockSkewEdges drives the same window edges through
// Authority.Redeem under clock skew: a fast site clock (positive skew)
// expires tickets early, a slow one (negative skew) refuses
// not-yet-valid tickets the holder believes are live.
func TestRedeemClockSkewEdges(t *testing.T) {
	cases := []struct {
		name    string
		skew    time.Duration
		nb, na  time.Duration
		wantErr error
	}{
		{"no skew, live", 0, 0, hour, nil},
		{"fast clock expires early", 45 * time.Minute, 0, 30 * time.Minute, ErrExpired},
		{"fast clock inside grace", 30*time.Minute - RedeemGrace, 0, 30 * time.Minute, ErrExpired},
		{"fast clock just outside grace", 30*time.Minute - RedeemGrace - time.Nanosecond, 0, 30 * time.Minute, nil},
		{"slow clock sees future ticket", -time.Minute, 0, hour, ErrExpired},
		{"slow clock, early-enough start", -time.Minute, -time.Minute, hour, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			nb := tc.nb
			if nb < 0 {
				// IssueTicket offsets are absolute engine times; model an
				// "already valid for a while" ticket by advancing the engine
				// instead of issuing into the past.
				f.eng.RunUntil(-nb)
				nb = 0
			}
			tk, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 2, nb, tc.na)
			if err != nil {
				t.Fatal(err)
			}
			f.auth.SetClockSkew(tc.skew)
			if got := f.auth.ClockSkew(); got != tc.skew {
				t.Fatalf("ClockSkew() = %v; want %v", got, tc.skew)
			}
			_, err = f.auth.Redeem(tk)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Redeem(skew=%v, window=[%v,%v)) = %v; want %v",
					tc.skew, tc.nb, tc.na, err, tc.wantErr)
			}
		})
	}
}

// TestMultiHopWidenRejected walks a three-hop delegation chain where
// every link narrows correctly except the last, whose amount exceeds
// its parent: Verify must pinpoint it as ErrAmountWidened (not a
// signature or chain error — the claim is validly signed by the
// rightful holder).
func TestMultiHopWidenRejected(t *testing.T) {
	f := newFixture(t)
	root, err := f.auth.IssueTicket(f.agent.Name, f.agent.Key(), capability.CPU, 4, 0, hour)
	if err != nil {
		t.Fatal(err)
	}
	mid := identity.NewPrincipal("reseller", f.rng)
	hop1, err := root.Delegate(f.agent.signer, mid.Name, mid.Public(), 2, 0, hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Honest sub-delegation of the narrowed amount still verifies.
	ok, err := hop1.Delegate(mid, f.sm.Name, f.sm.Public(), 2, 0, hour, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Verify(f.auth.Key(), time.Minute, nil); err != nil {
		t.Fatalf("honest 3-hop chain: %v", err)
	}
	// Delegate itself refuses to widen...
	if _, err := hop1.Delegate(mid, f.sm.Name, f.sm.Public(), 3, 0, hour, 3); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("widening Delegate = %v; want ErrAmountWidened", err)
	}
	// ...so forge the widened third hop directly: a validly signed claim
	// for 3 CPU hanging off the 2-CPU hop. Only the narrowing rule can
	// catch it.
	leaf := hop1.Leaf()
	c := Claim{
		Site:       leaf.Site,
		Type:       leaf.Type,
		Amount:     3,
		NotBefore:  leaf.NotBefore,
		NotAfter:   leaf.NotAfter,
		Issuer:     mid.Name,
		IssuerKey:  mid.Public(),
		Holder:     f.sm.Name,
		HolderKey:  f.sm.Public(),
		Serial:     4,
		ParentHash: leaf.Hash(),
	}
	c.Sig = mid.Sign(c.tbs())
	widened := &Ticket{Chain: append(append([]Claim(nil), hop1.Chain...), c)}
	if err := widened.Verify(f.auth.Key(), time.Minute, nil); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("widened 3-hop chain = %v; want ErrAmountWidened", err)
	}
	if _, err := f.auth.Redeem(widened); !errors.Is(err, ErrAmountWidened) {
		t.Fatalf("redeem widened chain = %v; want ErrAmountWidened", err)
	}
}
