package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
)

// Batched signature verification and a bounded verification memo.
//
// ed25519.Verify dominates every SHARP redeem at scale: a delegation
// chain of depth d costs d verifications, and a redeem batch of n
// tickets sold from one stocked ticket repeats the same d-1 prefix
// signatures n times. Both redundancies are pure: signature validity is
// a deterministic function of (public key, message, signature), so a
// triple verified once never needs verifying again. SigCache memoizes
// that function across calls; Batch additionally deduplicates within
// one collection pass, so a 64-ticket batch over depth-4 chains costs
// ~67 verifications instead of 256.
//
// Security argument (the PR 9 forgery kit stays defeated): only
// *successful* verifications enter the cache, keyed by a SHA-256 digest
// over the exact (key, message, signature) triple. A tampered claim
// changes the message, a swapped issuer changes the key, a re-signed
// claim changes the signature — each yields a fresh digest, misses the
// cache, and runs the real ed25519.Verify, which fails exactly as
// before. Caching can therefore never convert an invalid triple into a
// valid one; it only skips re-proving triples already proven.

// sigDigest keys the memo: a SHA-256 over the length-framed triple, so
// no concatenation ambiguity exists between key, message, and signature.
func sigDigest(pub ed25519.PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	var n [4]byte
	for _, part := range [...][]byte{pub, msg, sig} {
		binary.BigEndian.PutUint32(n[:], uint32(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// SigCache is a bounded memo of signatures that have already verified.
// Eviction is deterministic: when the cache reaches capacity the whole
// generation is cleared, so cache *contents* never depend on map
// iteration order and same-seed runs stay byte-identical.
type SigCache struct {
	capN    int
	entries map[[32]byte]struct{}

	// Hits/Misses count lookups; Evictions counts whole-generation
	// clears. Plain ints so the snapshot walker rewinds them.
	Hits, Misses, Evictions int
}

// DefaultSigCacheCap bounds a cache built with NewSigCache(0). At 32
// bytes per digest this is ~2 MiB of memo for 64k distinct signatures.
const DefaultSigCacheCap = 1 << 16

// NewSigCache returns a memo bounded to capN verified triples
// (capN <= 0 selects DefaultSigCacheCap).
func NewSigCache(capN int) *SigCache {
	if capN <= 0 {
		capN = DefaultSigCacheCap
	}
	return &SigCache{capN: capN, entries: make(map[[32]byte]struct{})}
}

// Len reports how many verified triples are memoized.
func (c *SigCache) Len() int { return len(c.entries) }

// check answers one signature triple whose memo digest is d: from the
// memo when it holds d, else by ed25519.Verify, memoizing success (the
// whole generation is cleared first when at capacity). paid reports
// whether the scalar math ran; a nil cache always pays and memoizes
// nothing.
func (c *SigCache) check(d [32]byte, pub ed25519.PublicKey, msg, sig []byte) (ok, paid bool) {
	if c != nil {
		if _, hit := c.entries[d]; hit {
			c.Hits++
			return true, false
		}
		c.Misses++
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false, true
	}
	if c != nil {
		if len(c.entries) >= c.capN {
			clear(c.entries)
			c.Evictions++
		}
		c.entries[d] = struct{}{}
	}
	return true, true
}

// Verify is the memoized form of ed25519.Verify and the one signature
// primitive every chain, ticket and assertion check goes through: a cache
// hit skips the scalar math, a miss runs it and memoizes success. A nil
// cache verifies directly.
func (c *SigCache) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if c == nil {
		return ed25519.Verify(pub, msg, sig)
	}
	ok, _ := c.check(sigDigest(pub, msg, sig), pub, msg, sig)
	return ok
}

// Batch collects signature checks and resolves them in one pass,
// verifying each *distinct* triple at most once and consulting (and
// feeding) an optional SigCache. Zero value is not usable; NewBatch.
type Batch struct {
	cache *SigCache

	// distinct triples, in first-seen order.
	keys [][]byte
	msgs [][]byte
	sigs [][]byte
	dig  [][32]byte
	// index maps digest -> position in the distinct slices.
	index map[[32]byte]int32
	// refs maps each Add'd item to its distinct position.
	refs []int32

	// VerifiedN counts actual ed25519.Verify calls in the last Run —
	// the deterministic evidence the amortization gates assert on.
	VerifiedN int
}

// NewBatch returns an empty batch feeding (and fed by) cache, which may
// be nil for a standalone dedup-only batch.
func NewBatch(cache *SigCache) *Batch {
	return &Batch{cache: cache, index: make(map[[32]byte]int32)}
}

// Add enqueues one signature check and returns its item index for
// Results. Duplicate triples (same key, message, signature) collapse
// onto one verification.
func (b *Batch) Add(pub ed25519.PublicKey, msg, sig []byte) int {
	d := sigDigest(pub, msg, sig)
	pos, dup := b.index[d]
	if !dup {
		pos = int32(len(b.dig))
		b.index[d] = pos
		b.keys = append(b.keys, pub)
		b.msgs = append(b.msgs, msg)
		b.sigs = append(b.sigs, sig)
		b.dig = append(b.dig, d)
	}
	b.refs = append(b.refs, pos)
	return len(b.refs) - 1
}

// Len reports how many items were added; Distinct how many unique
// triples they collapsed to.
func (b *Batch) Len() int      { return len(b.refs) }
func (b *Batch) Distinct() int { return len(b.dig) }

// Run resolves the batch: every distinct triple is answered from the
// cache or by one ed25519.Verify (successes memoized). Returns the
// per-item verdicts, aligned with Add order.
func (b *Batch) Run() []bool {
	ok := make([]bool, len(b.dig))
	b.VerifiedN = 0
	for i, d := range b.dig {
		var paid bool
		ok[i], paid = b.cache.check(d, b.keys[i], b.msgs[i], b.sigs[i])
		if paid {
			b.VerifiedN++
		}
	}
	out := make([]bool, len(b.refs))
	for i, pos := range b.refs {
		out[i] = ok[pos]
	}
	return out
}

// Reset clears the batch for reuse, keeping the cache attachment and
// the allocated capacity.
func (b *Batch) Reset() {
	b.keys = b.keys[:0]
	b.msgs = b.msgs[:0]
	b.sigs = b.sigs[:0]
	b.dig = b.dig[:0]
	b.refs = b.refs[:0]
	clear(b.index)
}
