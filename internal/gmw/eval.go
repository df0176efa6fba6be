package gmw

import (
	"encoding/binary"
	"errors"
	"fmt"

	"incshrink/internal/wire"
)

// Frame types of the gmw layer. They live above 0x0F so they can never
// collide with the runtime word frames of internal/mpc on a shared
// connection.
const (
	// FrameTriples carries a block of packed Beaver-triple shares from the
	// dealing side to its peer (offline phase).
	FrameTriples byte = 0x10
	// FrameOpen carries one AND gate's packed masked-opening share bits
	// (d = x^a, e = y^b) — the only online traffic of the GMW protocol.
	FrameOpen byte = 0x11
	// FrameReveal carries one 4-byte word share for an output opening.
	FrameReveal byte = 0x12
)

// ErrNoTriples reports an online AND gate with an exhausted triple pool: the
// offline phase did not deal enough correlated randomness.
var ErrNoTriples = errors.New("gmw: triple pool exhausted")

// BitShare is one party's share of a secret bit; the XOR of both parties'
// shares is the cleartext.
type BitShare bool

// WordShare is one party's share of a secret 32-bit word, little-endian.
type WordShare [32]BitShare

// TripleShare is one party's half of a Beaver triple.
type TripleShare struct {
	A, B, C bool
}

// Eval drives one party's half of GMW circuit evaluation over a transport:
// the word circuits (adder, comparator, mux) are built from XOR, NOT and
// AND gates, every AND gate's masked openings really are exchanged as
// frames, and the offline triples really are dealt as a message from the
// dealing side.
//
// Methods after the first transport or pool error are no-ops propagating the
// sticky error (Err), so word-level circuits compose without per-gate error
// plumbing. Both parties observe identical public openings; a per-gate
// consistency failure therefore surfaces as differing opened outputs, which
// OpenWord callers check.
type Eval struct {
	role int // 0 or 1, the secretshare party index
	conn wire.Conn

	triples []TripleShare
	next    int

	// ANDGates / XORGates / BitsSent tally gates and online communication
	// (bits across both directions); Openings is the public online
	// transcript (identical on both parties).
	ANDGates  int
	XORGates  int
	BitsSent  int
	Openings  []bool
	maxRecord int

	buf [4]byte
	err error
}

// NewEval creates one party's evaluator over conn. recordLimit bounds the
// retained opening transcript (0 keeps everything).
func NewEval(role int, conn wire.Conn, recordLimit int) *Eval {
	return &Eval{role: role, conn: conn, maxRecord: recordLimit}
}

// Err returns the sticky transport/pool error, if any.
func (e *Eval) Err() error { return e.err }

// Role returns the party index.
func (e *Eval) Role() int { return e.role }

// fail records the first error.
func (e *Eval) fail(err error) {
	if e.err == nil && err != nil {
		e.err = fmt.Errorf("gmw: role %d: %w", e.role, err)
	}
}

// packTriples encodes triple shares one byte each (bits 0..2 = A,B,C).
func packTriples(ts []TripleShare) []byte {
	out := make([]byte, len(ts))
	for i, t := range ts {
		var b byte
		if t.A {
			b |= 1
		}
		if t.B {
			b |= 2
		}
		if t.C {
			b |= 4
		}
		out[i] = b
	}
	return out
}

// DealTriples runs the dealing side of the offline phase: draw n triples
// from the dealer, keep this party's halves, ship the peer's halves as one
// FrameTriples message. Either role may deal — the dealer never sees inputs,
// only correlated randomness — but by convention cmd/incshrink-party deals
// from role 0.
func (e *Eval) DealTriples(d *Dealer, n int) error {
	if e.err != nil {
		return e.err
	}
	mine := make([]TripleShare, n)
	theirs := make([]TripleShare, n)
	for i := 0; i < n; i++ {
		s0, s1 := d.TripleShares()
		if e.role == 0 {
			mine[i], theirs[i] = s0, s1
		} else {
			mine[i], theirs[i] = s1, s0
		}
	}
	if err := e.conn.Send(FrameTriples, packTriples(theirs)); err != nil {
		e.fail(err)
		return e.err
	}
	e.triples = append(e.triples, mine...)
	return nil
}

// RecvTriples runs the receiving side of the offline phase, accepting one
// FrameTriples block into the pool.
func (e *Eval) RecvTriples() error {
	if e.err != nil {
		return e.err
	}
	typ, p, err := e.conn.Recv()
	if err != nil {
		e.fail(err)
		return e.err
	}
	if typ != FrameTriples {
		e.fail(fmt.Errorf("expected triples frame, got type %#x", typ))
		return e.err
	}
	for _, b := range p {
		e.triples = append(e.triples, TripleShare{A: b&1 != 0, B: b&2 != 0, C: b&4 != 0})
	}
	return nil
}

// TriplesLeft returns the number of undealt triples in the pool.
func (e *Eval) TriplesLeft() int { return len(e.triples) - e.next }

// constBit shares a public constant: role 0 holds the value, role 1 holds
// zero. No randomness and no communication — the value is public.
func (e *Eval) constBit(v bool) BitShare {
	return BitShare(v && e.role == 0)
}

// XOR is a local gate: XOR of the local shares. Free in GMW.
func (e *Eval) XOR(x, y BitShare) BitShare {
	e.XORGates++
	return x != y
}

// NOT flips the cleartext by having role 0 flip its share. Free.
func (e *Eval) NOT(x BitShare) BitShare {
	if e.role == 0 {
		return !x
	}
	return x
}

// record appends a public opened value to the transcript.
func (e *Eval) record(v bool) {
	if e.maxRecord == 0 || len(e.Openings) < e.maxRecord {
		e.Openings = append(e.Openings, v)
	}
}

// AND evaluates one AND gate online: consume a triple, exchange the packed
// masked-opening shares (one 1-byte frame each way), reconstruct the public
// d and e, and derive the local output share
//
//	z = c XOR (d AND b) XOR (e AND a) XOR (d AND e at role 0)
//
// The openings are masked by the uniform triple components, so the frames on
// the wire reveal nothing about x and y (the uniformity test pins this). The
// branches below read only the reconstructed public d and e, which are
// uniformly masked and hence simulatable.
func (e *Eval) AND(x, y BitShare) BitShare {
	if e.err != nil {
		return false
	}
	if e.next >= len(e.triples) {
		e.fail(ErrNoTriples)
		return false
	}
	t := e.triples[e.next]
	e.next++
	e.ANDGates++
	e.BitsSent += 4

	dShare := bool(x) != t.A
	eShare := bool(y) != t.B
	var pack byte
	if dShare {
		pack |= 1
	}
	if eShare {
		pack |= 2
	}
	e.buf[0] = pack
	if err := e.conn.Send(FrameOpen, e.buf[:1]); err != nil {
		e.fail(err)
		return false
	}
	typ, p, err := e.conn.Recv()
	if err != nil {
		e.fail(err)
		return false
	}
	if typ != FrameOpen || len(p) != 1 {
		e.fail(fmt.Errorf("expected open frame, got type %#x length %d", typ, len(p)))
		return false
	}
	d := dShare != (p[0]&1 != 0)
	eo := eShare != (p[0]&2 != 0)
	e.record(d)
	e.record(eo)

	z := BitShare(t.C)
	if d {
		z = z != BitShare(t.B)
	}
	if eo {
		z = z != BitShare(t.A)
	}
	if d && eo {
		z = e.NOT(z)
	}
	return z
}

// OR via De Morgan: one AND gate.
func (e *Eval) OR(x, y BitShare) BitShare {
	return e.NOT(e.AND(e.NOT(x), e.NOT(y)))
}

// MUX selects y when sel is 1 and x otherwise. One AND gate.
func (e *Eval) MUX(sel, x, y BitShare) BitShare {
	return e.XOR(x, e.AND(sel, e.XOR(x, y)))
}

// XORWords is the bitwise XOR of two word shares (free).
func (e *Eval) XORWords(x, y WordShare) WordShare {
	var z WordShare
	for i := range z {
		z[i] = e.XOR(x[i], y[i])
	}
	return z
}

// Add is a 32-bit ripple-carry adder: 32 full adders, each costing one AND
// gate via the carry recurrence carry' = carry XOR ((x XOR carry) AND
// (y XOR carry)).
func (e *Eval) Add(x, y WordShare) WordShare {
	var z WordShare
	carry := e.constBit(false)
	for i := 0; i < 32; i++ {
		xi, yi := x[i], y[i]
		z[i] = e.XOR(e.XOR(xi, yi), carry)
		xc := e.XOR(xi, carry)
		yc := e.XOR(yi, carry)
		carry = e.XOR(carry, e.AND(xc, yc))
	}
	return z
}

// LessThan compares two unsigned word shares: the shared bit x < y, which
// holds iff the subtraction x - y borrows. Borrow propagation, borrow' =
// (NOT x AND y) OR (borrow AND NOT (x XOR y)) per bit: 96 AND gates.
func (e *Eval) LessThan(x, y WordShare) BitShare {
	borrow := e.constBit(false)
	for i := 0; i < 32; i++ {
		nx := e.NOT(x[i])
		t1 := e.AND(nx, y[i])
		eq := e.NOT(e.XOR(x[i], y[i]))
		t2 := e.AND(borrow, eq)
		borrow = e.OR(t1, t2)
	}
	return borrow
}

// Equal tests x == y, NOT(OR of all difference bits): 32 AND gates.
func (e *Eval) Equal(x, y WordShare) BitShare {
	diff := e.constBit(false)
	for i := 0; i < 32; i++ {
		diff = e.OR(diff, e.XOR(x[i], y[i]))
	}
	return e.NOT(diff)
}

// MUXWords selects between two word shares with one shared selector bit —
// the conditional-swap half used by oblivious compare-exchange.
func (e *Eval) MUXWords(sel BitShare, x, y WordShare) WordShare {
	var z WordShare
	for i := range z {
		z[i] = e.MUX(sel, x[i], y[i])
	}
	return z
}

// CompareExchange is the sorting-network comparator over two secret words:
// output (min, max), 160 AND gates. This is the gate-level realization of
// what oblivious.SortBuffer executes logically and what the cost model
// charges per comparator.
func (e *Eval) CompareExchange(x, y WordShare) (lo, hi WordShare) {
	gt := e.LessThan(y, x)
	lo = e.MUXWords(gt, x, y)
	hi = e.MUXWords(gt, y, x)
	return lo, hi
}

// CounterUpdate is the Transform counter step (Alg. 1 lines 4-6) as a wire
// circuit: the counter and the increment stay shared; the output is a fresh
// sharing of counter + delta.
func (e *Eval) CounterUpdate(counter, delta WordShare) WordShare {
	return e.Add(counter, delta)
}

// ThresholdCheck is the sDPANT condition (Alg. 3 line 7): the shared bit
// [noisyCount >= noisyThreshold].
func (e *Eval) ThresholdCheck(noisyCount, noisyThreshold WordShare) BitShare {
	return e.NOT(e.LessThan(noisyCount, noisyThreshold))
}

// wordShareBits packs a word share into a uint32 (bit i = share of bit i).
func wordShareBits(w WordShare) uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		if w[i] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// ShareOfWord splits a cleartext word deterministically against a mask: the
// caller supplies this party's mask word (from whatever randomness source
// the deployment uses); role 0 holds the mask, role 1 holds value^mask. Both
// parties must pass the same mask for shares to reconstruct.
func ShareOfWord(role int, value, mask uint32) WordShare {
	bits := mask
	if role == 1 {
		bits = value ^ mask
	}
	var w WordShare
	for i := 0; i < 32; i++ {
		w[i] = BitShare(bits>>uint(i)&1 == 1)
	}
	return w
}

// OpenWord reveals a secret word: exchange the packed 4-byte shares and XOR.
// Both parties learn the cleartext; use only on protocol outputs.
func (e *Eval) OpenWord(w WordShare) (uint32, error) {
	if e.err != nil {
		return 0, e.err
	}
	mine := wordShareBits(w)
	binary.LittleEndian.PutUint32(e.buf[:], mine)
	e.BitsSent += 64
	if err := e.conn.Send(FrameReveal, e.buf[:]); err != nil {
		e.fail(err)
		return 0, e.err
	}
	typ, p, err := e.conn.Recv()
	if err != nil {
		e.fail(err)
		return 0, e.err
	}
	if typ != FrameReveal || len(p) != 4 {
		e.fail(fmt.Errorf("expected reveal frame, got type %#x length %d", typ, len(p)))
		return 0, e.err
	}
	return mine ^ binary.LittleEndian.Uint32(p), nil
}

// Stats summarizes the evaluation.
func (e *Eval) Stats() string {
	return fmt.Sprintf("gmw.Eval{role=%d and=%d xor=%d bits=%d}", e.role, e.ANDGates, e.XORGates, e.BitsSent)
}
