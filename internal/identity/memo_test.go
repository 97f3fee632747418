package identity

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Differential memo-safety gate for Verifier.Validate. The memoized
// verifier must return exactly what an uncached one returns — same
// subject, same errors.Is class — for the genuine chain and for every
// mutant of it, whether the memo already holds the genuine chain's
// signatures (warm) or nothing (cold). The uncached reference runs the
// same checks with every signature answered by a direct ed25519.Verify.

var validateErrs = []error{
	ErrExpired, ErrBadSignature, ErrUntrustedRoot, ErrNotCA, ErrBrokenChain,
	ErrProxyFromProxy, ErrRevoked, ErrRightsEscalate, ErrEmptyChain,
}

// uncached returns a verifier trusting roots whose signature checks
// bypass the memo.
func uncached(roots ...*CA) *Verifier {
	v := NewVerifier(roots...)
	v.sigs = nil
	return v
}

// cloneCred deep-copies a credential so a mutant never aliases the
// genuine chain's certificates.
func cloneCred(cr *Credential) *Credential {
	out := &Credential{Holder: cr.Holder, Chain: make([]*Certificate, len(cr.Chain))}
	for i, c := range cr.Chain {
		cc := *c
		cc.SubjectKey = append(ed25519.PublicKey(nil), c.SubjectKey...)
		cc.IssuerKey = append(ed25519.PublicKey(nil), c.IssuerKey...)
		if c.Rights != nil {
			cc.Rights = append([]string{}, c.Rights...)
		}
		cc.Signature = append([]byte(nil), c.Signature...)
		out.Chain[i] = &cc
	}
	return out
}

// delegateUnchecked signs one more proxy link onto cr without Delegate's
// depth limit, so over-depth chains can be presented to Validate.
func delegateUnchecked(cr *Credential, name string, now, life time.Duration, rng *rand.Rand) *Credential {
	p := NewPrincipal(name, rng)
	c := &Certificate{
		Subject: name, SubjectKey: p.pub,
		Issuer: cr.Holder.Name, IssuerKey: cr.Holder.pub,
		NotBefore: now, NotAfter: now + life, IsProxy: true,
	}
	c.Signature = cr.Holder.Sign(c.tbs())
	return &Credential{Holder: p, Chain: append([]*Certificate{c}, cr.Chain...)}
}

type memoCase struct {
	name string
	cred *Credential
	// signed names the chain link whose signed content the mutant
	// altered (-1 for none); the oracle must reject that link's
	// signature.
	signed int
}

// memoFixture builds a three-link chain (proxy with restricted rights,
// unrestricted proxy, user certificate) and its mutant table.
func memoFixture(t *testing.T) (ca *CA, genuine *Credential, now time.Duration, cases []memoCase) {
	t.Helper()
	rng, ca, _, cred, _ := setup(t)
	p1, err := cred.Delegate("alice/p1", hour, 100*hour, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	genuine, err = p1.Delegate("alice/p2", hour, 50*hour, []string{"submit", "read"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	now = 10 * hour

	fields := []struct {
		name string
		mut  func(c *Certificate)
	}{
		{"Subject", func(c *Certificate) { c.Subject += "x" }},
		{"SubjectKey", func(c *Certificate) { c.SubjectKey[0] ^= 1 }},
		{"Issuer", func(c *Certificate) { c.Issuer += "x" }},
		{"IssuerKey", func(c *Certificate) { c.IssuerKey[0] ^= 1 }},
		{"NotBefore", func(c *Certificate) { c.NotBefore-- }},
		{"NotAfter", func(c *Certificate) { c.NotAfter++ }},
		{"IsCA", func(c *Certificate) { c.IsCA = !c.IsCA }},
		{"IsProxy", func(c *Certificate) { c.IsProxy = !c.IsProxy }},
		{"Rights", func(c *Certificate) {
			if c.Rights == nil {
				c.Rights = []string{}
			} else {
				c.Rights = append(c.Rights, "admin")
			}
		}},
		{"Serial", func(c *Certificate) { c.Serial++ }},
		{"Signature", func(c *Certificate) { c.Signature[0] ^= 1 }},
	}
	cases = append(cases, memoCase{"genuine", genuine, -1})
	for i := range genuine.Chain {
		for _, f := range fields {
			m := cloneCred(genuine)
			f.mut(m.Chain[i])
			cases = append(cases, memoCase{fmt.Sprintf("link%d/%s", i, f.name), m, i})
		}
	}

	thief := NewPrincipal("thief", rng)
	cases = append(cases, memoCase{"swapped-holder", &Credential{Holder: thief, Chain: genuine.Chain}, -1})

	// A rogue CA reusing the trusted CA's name: every signature in the
	// chain is genuine under the rogue key, so only the root check can
	// reject it.
	rogue := NewCA(ca.Name, 1000*hour, rng)
	mallory := NewPrincipal("/O=Grid/CN=alice", rng)
	rogueCred := UserCredential(mallory, rogue.IssueUser(mallory, 0, 500*hour))
	rogueProxy, err := rogueCred.Delegate("alice/p1", hour, 100*hour, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, memoCase{"untrusted-root", rogueProxy, -1})

	deep := genuine
	for len(deep.Chain) <= MaxProxyDepth {
		deep = delegateUnchecked(deep, "alice/deep", hour, 10*hour, rng)
	}
	cases = append(cases, memoCase{"over-depth", deep, -1})
	return ca, genuine, now, cases
}

// sameVerdict reports whether two Validate results agree on subject and
// on errors.Is for every validation error.
func sameVerdict(s1 string, e1 error, s2 string, e2 error) bool {
	if s1 != s2 || (e1 == nil) != (e2 == nil) {
		return false
	}
	for _, target := range validateErrs {
		if errors.Is(e1, target) != errors.Is(e2, target) {
			return false
		}
	}
	return true
}

func TestValidateMemoMatchesUncached(t *testing.T) {
	ca, genuine, now, cases := memoFixture(t)
	warm := NewVerifier(ca)
	if _, err := warm.Validate(genuine, now); err != nil {
		t.Fatalf("genuine chain: %v", err)
	}
	if hits := warm.Sigs().Hits; hits != 0 {
		t.Fatalf("first validation hit the memo %d times", hits)
	}
	ref := uncached(ca)
	for _, tc := range cases {
		wantS, wantE := ref.Validate(tc.cred, now)
		if tc.name == "genuine" {
			if wantE != nil || wantS != "/O=Grid/CN=alice" {
				t.Fatalf("reference rejects genuine chain: %q %v", wantS, wantE)
			}
		} else if wantE == nil {
			t.Errorf("%s: reference accepted a mutant", tc.name)
		}
		if tc.signed >= 0 && tc.cred.Chain[tc.signed].VerifySignature() {
			t.Errorf("%s: oracle accepts the mutated link's signature", tc.name)
		}
		cold := NewVerifier(ca)
		// Twice on the warm verifier: the second run sees whatever the
		// first one memoized from the mutant's own intact links.
		for round, v := range []*Verifier{warm, warm, cold} {
			gotS, gotE := v.Validate(tc.cred, now)
			if !sameVerdict(gotS, gotE, wantS, wantE) {
				t.Errorf("%s (run %d): memoized (%q, %v), uncached (%q, %v)",
					tc.name, round, gotS, gotE, wantS, wantE)
			}
		}
	}
	if warm.Sigs().Hits == 0 {
		t.Error("warm verifier never hit its memo")
	}
}

func TestValidateMemoStillExpiresAndRevokes(t *testing.T) {
	ca, genuine, now, _ := memoFixture(t)
	v := NewVerifier(ca)
	if _, err := v.Validate(genuine, now); err != nil {
		t.Fatalf("genuine chain: %v", err)
	}
	leaf := genuine.Leaf()
	for _, at := range []time.Duration{leaf.NotBefore - 1, leaf.NotAfter, leaf.NotAfter + hour} {
		if _, err := v.Validate(genuine, at); !errors.Is(err, ErrExpired) {
			t.Errorf("cached chain at %v: %v, want ErrExpired", at, err)
		}
	}
	if _, err := v.Validate(genuine, now); err != nil {
		t.Fatalf("genuine chain after expiry probes: %v", err)
	}
	for i, c := range genuine.Chain {
		rv := NewVerifier(ca)
		if _, err := rv.Validate(genuine, now); err != nil {
			t.Fatalf("genuine chain: %v", err)
		}
		rv.Revoke(c)
		if _, err := rv.Validate(genuine, now); !errors.Is(err, ErrRevoked) {
			t.Errorf("cached chain with link %d revoked: %v, want ErrRevoked", i, err)
		}
	}
}
