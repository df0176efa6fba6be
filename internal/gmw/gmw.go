// Package gmw implements an executable two-party semi-honest secure
// computation layer in the GMW style: boolean circuits evaluated over
// XOR-shared bits, with AND gates realized from Beaver multiplication
// triples handed out by an offline dealer (the standard preprocessing
// model; EMP-Toolkit's semi-honest backend plays the same role for the
// paper's prototype).
//
// Each party runs its own Eval over a wire.Conn (eval.go): the dealing
// side ships the peer's triple shares as one message, and every AND gate's
// masked openings are exchanged as frames. The package serves two purposes
// in this reproduction:
//
//  1. It demonstrates the protocols IncShrink compiles — counter updates,
//     threshold comparisons, mux-based conditional swaps — actually running
//     gate by gate over shares, with the online transcript (the masked
//     openings d = x XOR a, e = y XOR b) visible for inspection.
//  2. It validates the cost simulator: the AND-gate counts of the word-level
//     circuits here (adders, comparators, muxes) are what
//     internal/mpc.CostModel charges per compare-exchange and per scan bit;
//     the cross-check test keeps the two in sync.
//
// Everything is computed over the two-party XOR sharing of
// internal/secretshare; a shared bit is one bit per party whose XOR is the
// cleartext.
package gmw

import "math/rand"

// Dealer produces correlated randomness in the offline phase. The dealer is
// a standard abstraction for semi-honest preprocessing (instantiable with
// OT extension in a deployment); it never sees the parties' inputs.
type Dealer struct {
	rng *rand.Rand
}

// NewDealer creates a dealer with its own randomness.
func NewDealer(seed int64) *Dealer {
	//lint:allow rngdraw dealer randomness is offline-phase preprocessing consumed via Intn, never snapshot-covered; wrapping would not count those draws
	return &Dealer{rng: rand.New(rand.NewSource(seed))}
}

// TripleShares draws one fresh Beaver multiplication triple — shared bits
// a, b and c with c = a AND b; each AND gate consumes exactly one — and
// returns it split per party. The draw order is fixed (a, b, then the
// party-0 shares of a, b and c): dealt triples, and with them every
// session transcript, depend on it.
func (d *Dealer) TripleShares() (s0, s1 TripleShare) {
	a, b := d.bit(), d.bit()
	c := a && b
	ra, rb, rc := d.bit(), d.bit(), d.bit()
	return TripleShare{A: ra, B: rb, C: rc},
		TripleShare{A: a != ra, B: b != rb, C: c != rc}
}

func (d *Dealer) bit() bool { return d.rng.Intn(2) == 1 }
