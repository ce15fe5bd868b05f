package mhash

import (
	"math/rand"
	"testing"
)

// TestFastHasherEquivalence: the cached hasher is bit-identical to its
// wrapped reference across hash families, widths, compression functions,
// random parameters and random words — including repeated words (cache
// hits) and index collisions (evictions).
func TestFastHasherEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	type variant struct {
		name string
		mk   func(param uint32) (Hasher, error)
	}
	variants := []variant{
		{"merkle-sum-w4", func(p uint32) (Hasher, error) { return NewMerkle(p), nil }},
		{"merkle-sum-w1", func(p uint32) (Hasher, error) { return NewMerkleWith(p, 1, nil) }},
		{"merkle-sum-w2", func(p uint32) (Hasher, error) { return NewMerkleWith(p, 2, nil) }},
		{"merkle-sum-w8", func(p uint32) (Hasher, error) { return NewMerkleWith(p, 8, nil) }},
		{"merkle-xor-w4", func(p uint32) (Hasher, error) { return NewMerkleWith(p, 4, XorCompress(4)) }},
		{"merkle-sbox-w4", func(p uint32) (Hasher, error) { return NewMerkleWith(p, 4, SBoxCompress()) }},
		{"bitcount-w4", func(uint32) (Hasher, error) { return NewBitcount(), nil }},
		{"bitcount-w6", func(uint32) (Hasher, error) { return NewBitcountWith(6) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				ref, err := v.mk(rng.Uint32())
				if err != nil {
					t.Fatal(err)
				}
				// Tiny cache (16 lines) to force constant collisions and
				// evictions.
				fast := NewFast(ref, 4)
				if fast.Width() != ref.Width() {
					t.Fatalf("width %d != %d", fast.Width(), ref.Width())
				}
				// A small word pool guarantees repeats (hits) on top of the
				// eviction pressure.
				pool := make([]uint32, 64)
				for i := range pool {
					pool[i] = rng.Uint32()
				}
				for i := 0; i < 4096; i++ {
					w := pool[rng.Intn(len(pool))]
					if got, want := fast.Hash(w), ref.Hash(w); got != want {
						t.Fatalf("trial %d: word %#x: fast=%#x ref=%#x", trial, w, got, want)
					}
				}
				if fast.Hits == 0 || fast.Misses == 0 {
					t.Fatalf("degenerate cache exercise: hits=%d misses=%d", fast.Hits, fast.Misses)
				}
			}
		})
	}
}

// TestFastHasherHitRate: with the default geometry a small static word set
// is fully resident after the first pass.
func TestFastHasherHitRate(t *testing.T) {
	fast := NewFastDefault(NewMerkle(0xFEED))
	words := make([]uint32, 200)
	rng := rand.New(rand.NewSource(9))
	for i := range words {
		words[i] = rng.Uint32()
	}
	for pass := 0; pass < 100; pass++ {
		for _, w := range words {
			fast.Hash(w)
		}
	}
	// Collisions can evict a few lines, but the steady-state rate must be
	// high; with 200 words in 4096 lines thrashing is essentially absent.
	if r := float64(fast.Hits) / float64(fast.Hits+fast.Misses); r < 0.95 {
		t.Fatalf("hit rate %.3f below 0.95 (hits=%d misses=%d)", r, fast.Hits, fast.Misses)
	}
}

// TestFastHasherWordKeyed: two different words produce their own hashes even
// when observed at the "same address" — the cache has no notion of a PC, so
// self-modified or packet-derived code can never alias a stale entry. This
// is the property a PC-keyed cache would violate.
func TestFastHasherWordKeyed(t *testing.T) {
	ref := NewMerkle(0x1357)
	fast := NewFastDefault(ref)
	// Same "location", different contents over time.
	w1, w2 := uint32(0x27BDFFE8), uint32(0x03E00008) // addiu $sp,-24 ; jr $ra
	for i := 0; i < 3; i++ {
		if fast.Hash(w1) != ref.Hash(w1) {
			t.Fatal("w1 mismatch")
		}
		if fast.Hash(w2) != ref.Hash(w2) {
			t.Fatal("w2 mismatch")
		}
	}
	if ref.Hash(w1) == ref.Hash(w2) {
		t.Skip("hash collision under this parameter; property vacuous here")
	}
	if fast.Hash(w1) == fast.Hash(w2) {
		t.Fatal("cache conflated two distinct words")
	}
}

func TestFastHasherFlush(t *testing.T) {
	fast := NewFast(NewBitcount(), 6)
	for i := uint32(0); i < 100; i++ {
		fast.Hash(i * 0x9E3779B9)
	}
	fast.Flush()
	if fast.Hits != 0 || fast.Misses != 0 {
		t.Fatal("counters survived flush")
	}
	if got, want := fast.Hash(42), NewBitcount().Hash(42); got != want {
		t.Fatalf("post-flush hash %#x != %#x", got, want)
	}
}

func TestFastHasherCacheBitsClamped(t *testing.T) {
	small := NewFast(NewBitcount(), -3)
	if len(small.entries) != 1<<4 {
		t.Fatalf("min clamp: %d entries", len(small.entries))
	}
	big := NewFast(NewBitcount(), 40)
	if len(big.entries) != 1<<20 {
		t.Fatalf("max clamp: %d entries", len(big.entries))
	}
}

func BenchmarkFastHasherHit(b *testing.B) {
	fast := NewFastDefault(NewMerkle(0xCAFEBABE))
	words := [8]uint32{0x27BDFFE8, 0xAFBF0014, 0x03E00008, 0x24020001,
		0x8FBF0014, 0x00000000, 0x1000FFFF, 0x2610FFFF}
	for _, w := range words {
		fast.Hash(w)
	}
	var sink uint8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink ^= fast.Hash(words[i&7])
	}
	_ = sink
}
