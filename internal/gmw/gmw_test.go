package gmw

import (
	"math/rand"
	"testing"

	"incshrink/internal/mpc"
)

// shareBit splits a cleartext bit against a public per-input mask, the bit
// form of ShareOfWord (both parties pass the same mask).
func shareBit(e *Eval, v bool, mask uint32) BitShare {
	var x uint32
	if v {
		x = 1
	}
	return ShareOfWord(e.Role(), x, mask)[0]
}

// shareWord splits a cleartext word against a mask derived from the input's
// position, so distinct inputs get distinct shares.
func shareWord(e *Eval, v uint32, pos int) WordShare {
	return ShareOfWord(e.Role(), v, uint32(pos+1)*0x9E3779B9)
}

// open reveals a word; a failure is sticky and surfaces through runPair.
func open(e *Eval, w WordShare) uint32 {
	v, _ := e.OpenWord(w)
	return v
}

// openBit reveals a shared bit as bit 0 of an otherwise zero word.
func openBit(e *Eval, b BitShare) uint32 {
	var w WordShare
	w[0] = b
	return open(e, w)
}

// checkOutputs requires both parties to have opened want.
func checkOutputs(t *testing.T, out0, out1, want []uint32) {
	t.Helper()
	if len(out0) != len(want) || len(out1) != len(want) {
		t.Fatalf("%d/%d outputs, want %d", len(out0), len(out1), len(want))
	}
	for i := range want {
		if out0[i] != want[i] || out1[i] != want[i] {
			t.Errorf("output %d: role0=%d role1=%d want %d", i, out0[i], out1[i], want[i])
		}
	}
}

// testPairs returns every pair of edge words plus seeded random pairs.
func testPairs(seed int64) [][2]uint32 {
	edges := []uint32{0, 1, 2, 1 << 31, 1<<31 - 1, 1<<32 - 2, 1<<32 - 1}
	var pairs [][2]uint32
	for _, x := range edges {
		for _, y := range edges {
			pairs = append(pairs, [2]uint32{x, y})
		}
	}
	rng := rand.New(rand.NewSource(seed)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for i := 0; i < 30; i++ {
		pairs = append(pairs, [2]uint32{rng.Uint32(), rng.Uint32()})
	}
	return pairs
}

// checkWordCircuit runs circuit over testPairs and compares every opening
// with the cleartext function. andPerCall is the circuit's AND-gate count.
func checkWordCircuit(t *testing.T, seed int64, andPerCall int, circuit func(e *Eval, x, y WordShare) uint32, want func(x, y uint32) uint32) {
	t.Helper()
	pairs := testPairs(seed)
	out0, out1, _, _ := runPair(t, andPerCall*len(pairs), func(e *Eval) []uint32 {
		var outs []uint32
		for i, p := range pairs {
			outs = append(outs, circuit(e, shareWord(e, p[0], 2*i), shareWord(e, p[1], 2*i+1)))
		}
		return outs
	})
	wants := make([]uint32, len(pairs))
	for i, p := range pairs {
		wants[i] = want(p[0], p[1])
	}
	checkOutputs(t, out0, out1, wants)
}

func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

func TestBitOpen(t *testing.T) {
	out0, out1, _, _ := runPair(t, 0, func(e *Eval) []uint32 {
		return []uint32{openBit(e, shareBit(e, true, 1)), openBit(e, shareBit(e, false, 1))}
	})
	checkOutputs(t, out0, out1, []uint32{1, 0})
}

func TestXORGate(t *testing.T) {
	var want []uint32
	for _, x := range []bool{false, true} {
		for _, y := range []bool{false, true} {
			want = append(want, b2u(x != y))
		}
	}
	out0, out1, e0, e1 := runPair(t, 0, func(e *Eval) []uint32 {
		var outs []uint32
		for _, x := range []bool{false, true} {
			for _, y := range []bool{false, true} {
				outs = append(outs, openBit(e, e.XOR(shareBit(e, x, 0x5), shareBit(e, y, 0x3))))
			}
		}
		return outs
	})
	checkOutputs(t, out0, out1, want)
	if e0.ANDGates != 0 || e1.ANDGates != 0 {
		t.Error("XOR consumed AND gates")
	}
}

func TestANDGateTruthTable(t *testing.T) {
	const trials = 20 // fresh triples each time
	var want []uint32
	for _, x := range []bool{false, true} {
		for _, y := range []bool{false, true} {
			for trial := 0; trial < trials; trial++ {
				want = append(want, b2u(x && y))
			}
		}
	}
	out0, out1, _, _ := runPair(t, 4*trials, func(e *Eval) []uint32 {
		var outs []uint32
		for _, x := range []bool{false, true} {
			for _, y := range []bool{false, true} {
				for trial := 0; trial < trials; trial++ {
					m := uint32(trial)
					outs = append(outs, openBit(e, e.AND(shareBit(e, x, m), shareBit(e, y, m>>1))))
				}
			}
		}
		return outs
	})
	checkOutputs(t, out0, out1, want)
}

func TestNotOrMux(t *testing.T) {
	want := []uint32{0, 1}
	for _, x := range []bool{false, true} {
		for _, y := range []bool{false, true} {
			want = append(want, b2u(x || y))
			for _, sel := range []bool{false, true} {
				if sel {
					want = append(want, b2u(y))
				} else {
					want = append(want, b2u(x))
				}
			}
		}
	}
	out0, out1, _, _ := runPair(t, 4+8, func(e *Eval) []uint32 {
		outs := []uint32{
			openBit(e, e.NOT(shareBit(e, true, 1))),
			openBit(e, e.NOT(shareBit(e, false, 1))),
		}
		for _, x := range []bool{false, true} {
			for _, y := range []bool{false, true} {
				outs = append(outs, openBit(e, e.OR(shareBit(e, x, 1), shareBit(e, y, 0))))
				for _, sel := range []bool{false, true} {
					outs = append(outs, openBit(e, e.MUX(shareBit(e, sel, 1), shareBit(e, x, 0), shareBit(e, y, 1))))
				}
			}
		}
		return outs
	})
	checkOutputs(t, out0, out1, want)
}

func TestWordRoundTrip(t *testing.T) {
	checkWordCircuit(t, 5, 0,
		func(e *Eval, x, _ WordShare) uint32 { return open(e, x) },
		func(x, _ uint32) uint32 { return x })
}

func TestAdder(t *testing.T) {
	checkWordCircuit(t, 6, 32,
		func(e *Eval, x, y WordShare) uint32 { return open(e, e.Add(x, y)) },
		func(x, y uint32) uint32 { return x + y })
}

func TestAdderANDCost(t *testing.T) {
	_, _, e0, e1 := runPair(t, 32, func(e *Eval) []uint32 {
		e.Add(shareWord(e, 1, 0), shareWord(e, 2, 1))
		return nil
	})
	if e0.ANDGates != 32 || e1.ANDGates != 32 {
		t.Errorf("32-bit adder used %d/%d AND gates, want 32", e0.ANDGates, e1.ANDGates)
	}
}

func TestLessThan(t *testing.T) {
	checkWordCircuit(t, 8, 96,
		func(e *Eval, x, y WordShare) uint32 { return openBit(e, e.LessThan(x, y)) },
		func(x, y uint32) uint32 { return b2u(x < y) })
}

func TestEqual(t *testing.T) {
	checkWordCircuit(t, 9, 32,
		func(e *Eval, x, y WordShare) uint32 { return openBit(e, e.Equal(x, y)) },
		func(x, y uint32) uint32 { return b2u(x == y) })
}

func TestXORWords(t *testing.T) {
	checkWordCircuit(t, 10, 0,
		func(e *Eval, x, y WordShare) uint32 { return open(e, e.XORWords(x, y)) },
		func(x, y uint32) uint32 { return x ^ y })
}

func TestMuxWordsAndCompareExchange(t *testing.T) {
	// MUXWords picks x on a shared 0 selector and y on a shared 1.
	checkWordCircuit(t, 11, 32,
		func(e *Eval, x, y WordShare) uint32 { return open(e, e.MUXWords(shareBit(e, false, 1), x, y)) },
		func(x, _ uint32) uint32 { return x })
	checkWordCircuit(t, 11, 32,
		func(e *Eval, x, y WordShare) uint32 { return open(e, e.MUXWords(shareBit(e, true, 0), x, y)) },
		func(_, y uint32) uint32 { return y })
	// CompareExchange outputs (min, max).
	checkWordCircuit(t, 12, 160,
		func(e *Eval, x, y WordShare) uint32 { lo, _ := e.CompareExchange(x, y); return open(e, lo) },
		func(x, y uint32) uint32 { return min(x, y) })
	checkWordCircuit(t, 12, 160,
		func(e *Eval, x, y WordShare) uint32 { _, hi := e.CompareExchange(x, y); return open(e, hi) },
		func(x, y uint32) uint32 { return max(x, y) })
}

func TestCounterUpdateMatchesTransform(t *testing.T) {
	// Alg. 1 lines 4-6 at the gate level: counter stays shared end to end.
	deltas := []uint32{3, 0, 27, 1}
	out0, out1, _, _ := runPair(t, 32*len(deltas), func(e *Eval) []uint32 {
		counter := shareWord(e, 100, 0)
		for i, d := range deltas {
			counter = e.CounterUpdate(counter, shareWord(e, d, i+1))
		}
		return []uint32{open(e, counter)}
	})
	checkOutputs(t, out0, out1, []uint32{131})
}

func TestThresholdCheck(t *testing.T) {
	checkWordCircuit(t, 13, 96,
		func(e *Eval, x, y WordShare) uint32 { return openBit(e, e.ThresholdCheck(x, y)) },
		func(x, y uint32) uint32 { return b2u(x >= y) })
}

// TestOpeningsUniform: the online transcript of an AND gate (the masked
// openings d, e) must be uniform regardless of the inputs — the semi-honest
// security argument at gate level.
func TestOpeningsUniform(t *testing.T) {
	const n = 20000
	for _, inputs := range [][2]bool{{false, false}, {true, true}} {
		_, _, e0, _ := runPair(t, n, func(e *Eval) []uint32 {
			x, y := shareBit(e, inputs[0], 1), shareBit(e, inputs[1], 0)
			for i := 0; i < n; i++ {
				e.AND(x, y)
			}
			return nil
		})
		ones := 0
		for _, v := range e0.Openings {
			if v {
				ones++
			}
		}
		frac := float64(ones) / float64(len(e0.Openings))
		if frac < 0.48 || frac > 0.52 {
			t.Errorf("inputs %v: opening bias %v, want 0.5", inputs, frac)
		}
	}
}

// TestCompareExchangeCostMatchesSimulator: the gate count of the real
// comparator circuit must stay within the constant the cost simulator
// charges (ANDGatesPerCompareExchangeBit per payload bit), keeping the two
// layers honest with each other.
func TestCompareExchangeCostMatchesSimulator(t *testing.T) {
	_, _, e0, _ := runPair(t, 160, func(e *Eval) []uint32 {
		e.CompareExchange(shareWord(e, 5, 0), shareWord(e, 9, 1))
		return nil
	})
	perBit := float64(e0.ANDGates) / 32
	model := mpc.DefaultCostModel()
	if perBit < model.ANDGatesPerCompareExchangeBit || perBit > 2*model.ANDGatesPerCompareExchangeBit {
		t.Errorf("real comparator costs %.2f AND/bit; simulator charges %.2f — recalibrate",
			perBit, model.ANDGatesPerCompareExchangeBit)
	}
}

func TestCommunicationAccounting(t *testing.T) {
	_, _, e0, e1 := runPair(t, 1, func(e *Eval) []uint32 {
		e.AND(shareBit(e, true, 1), shareBit(e, false, 1))
		return nil
	})
	if e0.BitsSent != 4 || e1.BitsSent != 4 {
		t.Errorf("one AND gate moved %d/%d bits, want 4", e0.BitsSent, e1.BitsSent)
	}
	if e0.Stats() == "" {
		t.Error("empty stats")
	}
}

func TestRecordLimit(t *testing.T) {
	_, _, e0, e1 := runPairWith(t, 17, 3, 10, func(e *Eval) []uint32 {
		for i := 0; i < 10; i++ {
			e.AND(shareBit(e, true, 1), shareBit(e, true, 0))
		}
		return nil
	})
	if len(e0.Openings) != 3 || len(e1.Openings) != 3 {
		t.Errorf("transcript kept %d/%d openings, want limit 3", len(e0.Openings), len(e1.Openings))
	}
}

func BenchmarkAND(b *testing.B) {
	runPairWith(b, 99, 1, b.N, func(e *Eval) []uint32 {
		x, y := shareBit(e, true, 1), shareBit(e, false, 0)
		if e.Role() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			e.AND(x, y)
		}
		return nil
	})
}

func BenchmarkCompareExchange32(b *testing.B) {
	runPairWith(b, 100, 1, 160*b.N, func(e *Eval) []uint32 {
		x, y := shareWord(e, 123, 0), shareWord(e, 456, 1)
		if e.Role() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			e.CompareExchange(x, y)
		}
		return nil
	})
}
