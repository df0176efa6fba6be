// Package secretshare implements the XOR-based secret-sharing schemes used
// by IncShrink's server-aided MPC model.
//
// The paper (Section 3) uses (2,2) XOR sharing over the ring Z_{2^32}: a
// secret x splits into x1 chosen uniformly at random and x2 = x XOR x1.
// Either share alone is uniformly distributed and carries no information
// about x; XOR of both recovers it. The package also provides the
// in-protocol re-sharing procedure of Appendix A.2, where the randomness is
// contributed jointly by the two servers so that neither can predict or
// bias the fresh shares.
package secretshare

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Word is the ring element type. The paper fixes the ring to Z_{2^32}; XOR
// arithmetic on uint32 implements it exactly.
type Word = uint32

// Shares2 is a (2,2) XOR sharing of a single ring element. S0 is held by
// server 0 and S1 by server 1.
type Shares2 struct {
	S0, S1 Word
}

// RNG is the randomness source interface used throughout the package. It is
// satisfied by *math/rand.Rand; tests substitute deterministic sources.
type RNG interface {
	Uint32() uint32
}

// Share splits x into a fresh (2,2) XOR sharing using randomness from rng.
func Share(x Word, rng RNG) Shares2 {
	r := rng.Uint32()
	return Shares2{S0: r, S1: x ^ r}
}

// Recover reconstructs the secret from both shares.
func Recover(s Shares2) Word {
	return s.S0 ^ s.S1
}

// Zero returns a sharing of zero (used to initialize the cardinality counter
// in Transform, Alg. 1 line 2: (x, x XOR 0)).
func Zero(rng RNG) Shares2 {
	return Share(0, rng)
}

// Add returns a sharing of a XOR b computed locally on each share. XOR
// sharings are linearly homomorphic under XOR: each server combines its own
// shares without interaction.
func Add(a, b Shares2) Shares2 {
	return Shares2{S0: a.S0 ^ b.S0, S1: a.S1 ^ b.S1}
}

// VectorShares2 is a (2,2) sharing of a vector of ring elements, stored as
// two equally long share slices.
type VectorShares2 struct {
	S0, S1 []Word
}

// ShareVector splits each element of xs into a fresh sharing.
func ShareVector(xs []Word, rng RNG) VectorShares2 {
	v := VectorShares2{S0: make([]Word, len(xs)), S1: make([]Word, len(xs))}
	for i, x := range xs {
		r := rng.Uint32()
		v.S0[i] = r
		v.S1[i] = x ^ r
	}
	return v
}

// RecoverVector reconstructs the vector. It returns an error if the share
// slices have mismatched lengths.
func RecoverVector(v VectorShares2) ([]Word, error) {
	if len(v.S0) != len(v.S1) {
		return nil, fmt.Errorf("secretshare: mismatched share lengths %d and %d", len(v.S0), len(v.S1))
	}
	out := make([]Word, len(v.S0))
	for i := range v.S0 {
		out[i] = v.S0[i] ^ v.S1[i]
	}
	return out, nil
}

// ReshareInside implements the in-MPC re-sharing of Appendix A.2 for the
// two-party case: each server contributes a uniformly random value z_i as
// protocol input; the protocol internally computes shares
// (c0, c1) = (z0 XOR z1, c XOR z0 XOR z1). Server 0's knowledge of c is then
// masked by z1 (which it does not know) and symmetrically for server 1. The
// caller supplies the two contributed values; the secret never leaves the
// protocol in the clear.
func ReshareInside(secret Word, z0, z1 Word) Shares2 {
	mask := z0 ^ z1
	return Shares2{S0: mask, S1: secret ^ mask}
}

// ShareBytes secret-shares an arbitrary byte payload by packing it into
// 32-bit words (little-endian, zero-padded) and sharing each word. The
// original length is preserved so RecoverBytes can strip the padding. Tuple
// encodings produced by internal/table travel through the cache in this
// form.
func ShareBytes(payload []byte, rng RNG) (BytesShares, error) {
	words := packWords(payload)
	v := ShareVector(words, rng)
	return BytesShares{Vec: v, ByteLen: len(payload)}, nil
}

// BytesShares is a (2,2) sharing of a byte payload.
type BytesShares struct {
	Vec     VectorShares2
	ByteLen int
}

// RecoverBytes reconstructs the original payload.
func RecoverBytes(bs BytesShares) ([]byte, error) {
	words, err := RecoverVector(bs.Vec)
	if err != nil {
		return nil, err
	}
	return unpackWords(words, bs.ByteLen)
}

func packWords(payload []byte) []Word {
	n := (len(payload) + 3) / 4
	words := make([]Word, n)
	var buf [4]byte
	for i := 0; i < n; i++ {
		copy(buf[:], payload[i*4:])
		// zero any tail bytes beyond payload
		for j := len(payload) - i*4; j < 4; j++ {
			if j >= 0 {
				buf[j] = 0
			}
		}
		words[i] = binary.LittleEndian.Uint32(buf[:])
	}
	return words
}

func unpackWords(words []Word, byteLen int) ([]byte, error) {
	if byteLen < 0 || (byteLen+3)/4 != len(words) {
		return nil, fmt.Errorf("secretshare: byte length %d inconsistent with %d words", byteLen, len(words))
	}
	out := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out[:byteLen], nil
}

// NewRand returns a deterministic RNG seeded with seed. Every randomized
// component in this repository threads its RNG explicitly so that whole
// experiments replay bit-for-bit.
func NewRand(seed int64) RNG {
	//lint:allow rngdraw seed-to-RNG factory; callers that persist stream position wrap the result in dp.NewCountingRNG at the use site
	return rand.New(rand.NewSource(seed))
}
