package chaos

import (
	"testing"

	"repro/internal/faultlab"
)

// defaultSeedChainVerifies is the exact number of real ed25519.Verify
// calls gatekeeper admission pays for default-config chaos seed 1 across
// its three forked profiles, read from the federation Verifier's memo
// misses. Every GRAM submit re-presents the same two-link proxy chain, so
// the count is the chain's two signatures once per profile (each fork
// rewinds the memo to the build-time snapshot), not two per submit: the
// same seed presents 268 link signatures, which an unmemoized gatekeeper
// verifies one by one.
const defaultSeedChainVerifies = 6

// chainVerifies runs seeds [1, 1+seeds) of the default chaos grid at the
// given worker count and returns each seed's summed ChainVerifies.
func chainVerifies(seeds, workers int) []int {
	profiles := faultlab.Profiles()
	out := make([]int, seeds)
	for i, rep := range Reports(1, seeds, profiles, faultlab.DefaultChaosConfig(), workers) {
		out[i/len(profiles)] += rep.ChainVerifies
	}
	return out
}

// TestChainVerifyWorkCount pins gatekeeper admission's signature work
// exactly: one default-config seed's count equals the committed figure,
// and every seed's count is the same at one worker and at eight.
func TestChainVerifyWorkCount(t *testing.T) {
	const seeds = 4
	w1 := chainVerifies(seeds, 1)
	if w1[0] != defaultSeedChainVerifies {
		t.Errorf("seed 1 chain verifies = %d, want %d", w1[0], defaultSeedChainVerifies)
	}
	w8 := chainVerifies(seeds, 8)
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Errorf("seed %d chain verifies: %d at -workers 1, %d at -workers 8", 1+i, w1[i], w8[i])
		}
	}
}
