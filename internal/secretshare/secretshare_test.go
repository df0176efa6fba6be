package secretshare

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestShareRecoverRoundTrip(t *testing.T) {
	rng := NewRand(1)
	for _, x := range []Word{0, 1, 42, 0xFFFFFFFF, 0x80000000, 123456789} {
		s := Share(x, rng)
		if got := Recover(s); got != x {
			t.Errorf("Recover(Share(%d)) = %d", x, got)
		}
	}
}

func TestShareRecoverProperty(t *testing.T) {
	rng := NewRand(2)
	f := func(x Word) bool { return Recover(Share(x, rng)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroIsSharingOfZero(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 100; i++ {
		if got := Recover(Zero(rng)); got != 0 {
			t.Fatalf("Zero recovered to %d", got)
		}
	}
}

func TestAddIsXORHomomorphic(t *testing.T) {
	rng := NewRand(4)
	f := func(a, b Word) bool {
		sa, sb := Share(a, rng), Share(b, rng)
		return Recover(Add(sa, sb)) == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSingleShareUniform checks the confidentiality side of Lemma 9: a single
// share of a fixed secret is (statistically) uniform, so it is distributed
// identically for two different messages. We bucket the top byte of many
// shares of two very different secrets and compare histograms coarsely.
func TestSingleShareUniform(t *testing.T) {
	const n = 64 * 1024
	rng := NewRand(5)
	histA := make([]int, 16)
	histB := make([]int, 16)
	for i := 0; i < n; i++ {
		histA[Share(0, rng).S1>>28]++
		histB[Share(0xDEADBEEF, rng).S1>>28]++
	}
	exp := n / 16
	for b := 0; b < 16; b++ {
		for _, h := range [2]int{histA[b], histB[b]} {
			if h < exp*8/10 || h > exp*12/10 {
				t.Fatalf("bucket %d count %d far from uniform expectation %d", b, h, exp)
			}
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	rng := NewRand(6)
	f := func(xs []Word) bool {
		v := ShareVector(xs, rng)
		got, err := RecoverVector(v)
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecoverVectorMismatch(t *testing.T) {
	_, err := RecoverVector(VectorShares2{S0: make([]Word, 3), S1: make([]Word, 2)})
	if err == nil {
		t.Fatal("want error on mismatched lengths")
	}
}

func TestReshareInside(t *testing.T) {
	rng := NewRand(10)
	f := func(secret, z0, z1 Word) bool {
		s := ReshareInside(secret, z0, z1)
		return Recover(s) == secret
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = rng
}

func TestReshareInsideMaskedFromEachServer(t *testing.T) {
	// Server 0 sees share S0 = z0^z1 and knows z0; its residual knowledge
	// z1 = S0^z0 is a value it did not choose. Server 1 sees S1 = c^z0^z1 and
	// knows z1; its residual knowledge c^z0 is masked by z0. We verify the
	// algebra, i.e. neither share equals the secret unless the masks collide.
	s := ReshareInside(0xCAFEBABE, 0x11111111, 0x22222222)
	if s.S0 == 0xCAFEBABE && s.S1 == 0 {
		t.Fatal("share leaked secret in the clear")
	}
	if Recover(s) != 0xCAFEBABE {
		t.Fatal("recover failed")
	}
}

func TestShareBytesRoundTrip(t *testing.T) {
	rng := NewRand(12)
	cases := [][]byte{nil, {}, {1}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, payload := range cases {
		bs, err := ShareBytes(payload, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RecoverBytes(bs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %v round-tripped to %v", payload, got)
		}
	}
}

func TestShareBytesProperty(t *testing.T) {
	rng := NewRand(13)
	f := func(payload []byte) bool {
		bs, err := ShareBytes(payload, rng)
		if err != nil {
			return false
		}
		got, err := RecoverBytes(bs)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecoverBytesInconsistent(t *testing.T) {
	rng := NewRand(14)
	bs, _ := ShareBytes([]byte{1, 2, 3, 4}, rng)
	bs.ByteLen = 99
	if _, err := RecoverBytes(bs); err == nil {
		t.Fatal("want error on inconsistent byte length")
	}
	bs.ByteLen = -1
	if _, err := RecoverBytes(bs); err == nil {
		t.Fatal("want error on negative byte length")
	}
}

func BenchmarkShare(b *testing.B) {
	rng := NewRand(100)
	for i := 0; i < b.N; i++ {
		_ = Share(Word(i), rng)
	}
}

func BenchmarkShareVector1K(b *testing.B) {
	rng := NewRand(101)
	xs := make([]Word, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ShareVector(xs, rng)
	}
}
