package gmw

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"incshrink/internal/wire"
)

// runPair evaluates one party program per role over a buffered loopback
// with triples dealt by NewDealer(42), joining the role-1 goroutine before
// returning.
func runPair(t *testing.T, triples int, program func(e *Eval) []uint32) (out0, out1 []uint32, e0, e1 *Eval) {
	t.Helper()
	return runPairWith(t, 42, 0, triples, program)
}

// runPairWith is runPair with the dealer seed and each party's transcript
// bound (recordLimit, 0 keeps everything) chosen by the caller.
func runPairWith(t testing.TB, seed int64, recordLimit, triples int, program func(e *Eval) []uint32) (out0, out1 []uint32, e0, e1 *Eval) {
	t.Helper()
	c0, c1 := wire.Loopback(256)
	defer c0.Close()
	defer c1.Close()
	e0 = NewEval(0, c0, recordLimit)
	e1 = NewEval(1, c1, recordLimit)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e1.RecvTriples(); err != nil {
			t.Errorf("role 1 triples: %v", err)
			return
		}
		out1 = program(e1)
	}()
	if err := e0.DealTriples(NewDealer(seed), triples); err != nil {
		t.Fatalf("role 0 triples: %v", err)
	}
	out0 = program(e0)
	wg.Wait()
	if e0.Err() != nil || e1.Err() != nil {
		t.Fatalf("evaluation errors: role0=%v role1=%v", e0.Err(), e1.Err())
	}
	return out0, out1, e0, e1
}

// evalProgram runs every word circuit once over fixed inputs and opens all
// results. Shares are built against fixed masks (both parties pass the same
// masks, as the runtime's re-sharing would arrange).
func evalProgram(x, y uint32) func(e *Eval) []uint32 {
	return func(e *Eval) []uint32 {
		wx := ShareOfWord(e.Role(), x, 0xDEADBEEF)
		wy := ShareOfWord(e.Role(), y, 0x1234ABCD)
		outs := []uint32{
			open(e, e.Add(wx, wy)),
			openBit(e, e.LessThan(wx, wy)),
			openBit(e, e.Equal(wx, wy)),
		}
		lo, hi := e.CompareExchange(wx, wy)
		return append(outs,
			open(e, lo),
			open(e, hi),
			open(e, e.CounterUpdate(wx, wy)),
			openBit(e, e.ThresholdCheck(wx, wy)))
	}
}

// evalProgramTriples is the triple budget of evalProgram: Add 32, LessThan
// 96, Equal 32, CompareExchange 160, CounterUpdate 32, ThresholdCheck 96.
const evalProgramTriples = 32 + 96 + 32 + 160 + 32 + 96

// TestEvalMatchesCircuitOutputs checks every word circuit against its
// cleartext function on edge words (0, 1, 2^31, 2^32-1, and equal pairs),
// and pins each circuit's AND-gate count: the numbers the cost model's
// cross-check relies on.
func TestEvalMatchesCircuitOutputs(t *testing.T) {
	edges := []uint32{0, 1, 1 << 31, 1<<32 - 1}
	var cases [][2]uint32
	for _, x := range edges {
		for _, y := range edges {
			cases = append(cases, [2]uint32{x, y}) // includes every equal pair
		}
	}
	cases = append(cases, [2]uint32{3, 7}, [2]uint32{1 << 31, 1<<31 - 1}, [2]uint32{123456, 123456})
	for _, tc := range cases {
		x, y := tc[0], tc[1]
		out0, out1, e0, e1 := runPair(t, evalProgramTriples, evalProgram(x, y))
		want := []uint32{x + y, b2u(x < y), b2u(x == y), min(x, y), max(x, y), x + y, b2u(x >= y)}
		if len(out0) != len(want) || len(out1) != len(want) {
			t.Fatalf("x=%d y=%d: %d/%d outputs, want %d", x, y, len(out0), len(out1), len(want))
		}
		for i := range want {
			if out0[i] != want[i] || out1[i] != want[i] {
				t.Errorf("x=%d y=%d output %d: role0=%d role1=%d cleartext=%d", x, y, i, out0[i], out1[i], want[i])
			}
		}
		if e0.ANDGates != evalProgramTriples || e1.ANDGates != evalProgramTriples {
			t.Errorf("AND gates: role0=%d role1=%d, want %d", e0.ANDGates, e1.ANDGates, evalProgramTriples)
		}
		if e0.TriplesLeft() != 0 {
			t.Errorf("triple budget: %d left of %d", e0.TriplesLeft(), evalProgramTriples)
		}
	}

	// Per-circuit AND-gate counts: Add, LessThan, Equal, CompareExchange.
	var gates [2][]int
	runPair(t, 32+96+32+160, func(e *Eval) []uint32 {
		wx, wy := ShareOfWord(e.Role(), 5, 1), ShareOfWord(e.Role(), 9, 2)
		for _, circuit := range []func(){
			func() { e.Add(wx, wy) },
			func() { e.LessThan(wx, wy) },
			func() { e.Equal(wx, wy) },
			func() { e.CompareExchange(wx, wy) },
		} {
			before := e.ANDGates
			circuit()
			gates[e.Role()] = append(gates[e.Role()], e.ANDGates-before)
		}
		return nil
	})
	for role, got := range gates {
		if !slices.Equal(got, []int{32, 96, 32, 160}) {
			t.Errorf("role %d AND gates per circuit = %v, want [32 96 32 160]", role, got)
		}
	}
}

func TestEvalOpeningsIdenticalAcrossParties(t *testing.T) {
	_, _, e0, e1 := runPair(t, evalProgramTriples, evalProgram(99, 1234))
	if len(e0.Openings) != 2*e0.ANDGates {
		t.Fatalf("%d openings for %d AND gates", len(e0.Openings), e0.ANDGates)
	}
	if len(e0.Openings) != len(e1.Openings) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(e0.Openings), len(e1.Openings))
	}
	for i := range e0.Openings {
		if e0.Openings[i] != e1.Openings[i] {
			t.Fatalf("opening %d differs between parties", i)
		}
	}
}

// TestEvalOpeningsMasked checks the online transcript is triple-masked: the
// same inputs under different dealer randomness yield different openings
// (the transcript depends on the masks, not the data).
func TestEvalOpeningsMasked(t *testing.T) {
	_, _, a, _ := runPairWith(t, 1, 0, evalProgramTriples, evalProgram(5, 9))
	_, _, b, _ := runPairWith(t, 2, 0, evalProgramTriples, evalProgram(5, 9))
	if slices.Equal(a.Openings, b.Openings) {
		t.Fatal("openings identical under different triple randomness — transcript is not masked")
	}
}

// TestEvalWireAccounting pins the wire shape of the GMW online phase: one
// 1-byte frame per party per AND gate (one round), one 4-byte frame per
// reveal, one triple block frame in the offline phase.
func TestEvalWireAccounting(t *testing.T) {
	_, _, e0, _ := runPairWith(t, 3, 0, evalProgramTriples, evalProgram(21, 13))

	const reveals = 7
	st := e0.conn.Stats()
	wantSent := uint64(wire.FrameOverhead+evalProgramTriples) + // triple block
		uint64(e0.ANDGates)*(wire.FrameOverhead+1) +
		reveals*(wire.FrameOverhead+4)
	if st.BytesSent != wantSent {
		t.Errorf("role 0 bytes sent = %d, want %d", st.BytesSent, wantSent)
	}
	wantRecv := wantSent - uint64(wire.FrameOverhead+evalProgramTriples)
	if st.BytesRecv != wantRecv {
		t.Errorf("role 0 bytes recv = %d, want %d", st.BytesRecv, wantRecv)
	}
	// Every AND and every reveal is one send-then-recv: one round each.
	if want := uint64(e0.ANDGates + reveals); st.Rounds != want {
		t.Errorf("role 0 rounds = %d, want %d", st.Rounds, want)
	}
}

func TestEvalTriplePoolExhaustion(t *testing.T) {
	c0, c1 := wire.Loopback(4)
	defer c0.Close()
	defer c1.Close()
	e := NewEval(0, c0, 0)
	x := ShareOfWord(0, 1, 2)
	_ = e.AND(x[0], x[1])
	if !errors.Is(e.Err(), ErrNoTriples) {
		t.Fatalf("err = %v, want ErrNoTriples", e.Err())
	}
	// The error is sticky: later operations keep reporting it.
	if _, err := e.OpenWord(x); !errors.Is(err, ErrNoTriples) {
		t.Fatalf("OpenWord after exhaustion: %v", err)
	}
}
