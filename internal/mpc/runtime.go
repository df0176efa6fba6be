package mpc

import (
	"fmt"
	"math/rand"

	"incshrink/internal/dp"
	"incshrink/internal/secretshare"
	"incshrink/internal/wire"
)

// PartyID identifies one of the two non-colluding outsourcing servers.
type PartyID int

// The two servers of the server-aided model.
const (
	Server0 PartyID = iota
	Server1
)

// String implements fmt.Stringer.
func (p PartyID) String() string { return fmt.Sprintf("S%d", int(p)) }

// EventKind classifies transcript entries, mirroring the message types the
// simulator of Table 1 must reproduce.
type EventKind int

// Transcript event kinds.
const (
	// EvShareReceived: the party stored one share of a secret-shared value
	// (uploaded data, counters, thresholds). Uniformly distributed.
	EvShareReceived EventKind = iota
	// EvBatchObserved: the party observed an exhaustively padded batch of a
	// publicly known size entering the cache (Transform output).
	EvBatchObserved
	// EvFetchObserved: the party observed a DP-sized fetch from cache to
	// view (Shrink output). The size is the only data-dependent field.
	EvFetchObserved
	// EvFlushObserved: the party observed a fixed-size cache flush.
	EvFlushObserved
	// EvRandomContributed: the party contributed a random word to a joint
	// computation (noise generation or re-sharing).
	EvRandomContributed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvShareReceived:
		return "share"
	case EvBatchObserved:
		return "batch"
	case EvFetchObserved:
		return "fetch"
	case EvFlushObserved:
		return "flush"
	case EvRandomContributed:
		return "random"
	default:
		return "unknown"
	}
}

// Event is a single observation in a server's view of the protocol
// execution. Size carries batch/fetch cardinalities (the DP-protected
// leakage); Share carries share values (uniform by construction); Time is
// the logical time step. WireRounds and WireBytes are the party's cumulative
// transport tally at the moment the event was recorded — they attribute the
// observation to a position in the wire conversation, so the Theorem-7/8
// transcript comparisons also pin the protocol's round/byte shape.
type Event struct {
	Kind       EventKind
	Time       int
	Size       int
	Share      secretshare.Word
	Label      string
	WireRounds uint64
	WireBytes  uint64
}

// Transcript is the ordered view of one server.
type Transcript struct {
	Party  PartyID
	Events []Event
}

// Append records an event.
func (tr *Transcript) Append(ev Event) { tr.Events = append(tr.Events, ev) }

// SizesOf extracts the Size field of all events of one kind, the projection
// the leakage tests compare against the DP mechanism's outputs.
func (tr *Transcript) SizesOf(kind EventKind) []int {
	var out []int
	for _, ev := range tr.Events {
		if ev.Kind == kind {
			out = append(out, ev.Size)
		}
	}
	return out
}

// EventsAt returns the events recorded at logical time t.
func (tr *Transcript) EventsAt(t int) []Event {
	var out []Event
	for _, ev := range tr.Events {
		if ev.Time == t {
			out = append(out, ev)
		}
	}
	return out
}

// Party models one outsourcing server: its local share store, its private
// randomness, its transcript, and its cumulative wire tally (rounds and
// frame bytes its connection has moved, stamped onto every event).
type Party struct {
	ID         PartyID
	seed       int64
	rng        *dp.CountingRNG
	store      map[string]secretshare.Word
	Transcript Transcript
	wireRounds uint64
	wireBytes  uint64
}

// NewParty creates a server with its own private randomness stream. The
// stream is wrapped in a draw counter (dp.CountingRNG) so its position can
// be checkpointed and resumed exactly; the underlying source and therefore
// the drawn words are unchanged.
func NewParty(id PartyID, seed int64) *Party {
	return &Party{
		ID:         id,
		seed:       seed,
		rng:        dp.NewCountingRNG(rand.New(rand.NewSource(seed))),
		store:      make(map[string]secretshare.Word),
		Transcript: Transcript{Party: id},
	}
}

// PartyState is the serializable mutable state of a Party: the private
// randomness position, the share store, the transcript, and the wire tally.
// The party's identity and seed are construction parameters, not state.
type PartyState struct {
	Draws      uint64
	Store      map[string]secretshare.Word
	Events     []Event
	WireRounds uint64
	WireBytes  uint64
}

// State snapshots the party (maps and slices are copied).
func (p *Party) State() PartyState {
	store := make(map[string]secretshare.Word, len(p.store))
	for k, v := range p.store {
		store[k] = v
	}
	return PartyState{
		Draws:      p.rng.Draws(),
		Store:      store,
		Events:     append([]Event(nil), p.Transcript.Events...),
		WireRounds: p.wireRounds,
		WireBytes:  p.wireBytes,
	}
}

// SetState restores a snapshot taken with State: the share store and
// transcript are replaced, and the private randomness stream is rebuilt from
// the party's seed and fast-forwarded to the recorded draw position, so the
// next word drawn is exactly the one the snapshotted party would have drawn.
func (p *Party) SetState(st PartyState) error {
	rng := dp.NewCountingRNG(rand.New(rand.NewSource(p.seed)))
	if err := dp.ResumeRNG(rng, st.Draws); err != nil {
		return fmt.Errorf("mpc: restoring %v randomness: %w", p.ID, err)
	}
	p.rng = rng
	p.store = make(map[string]secretshare.Word, len(st.Store))
	for k, v := range st.Store {
		p.store[k] = v
	}
	p.Transcript = Transcript{Party: p.ID, Events: append([]Event(nil), st.Events...)}
	p.wireRounds = st.WireRounds
	p.wireBytes = st.WireBytes
	return nil
}

// noteWire adds a transport delta to the party's cumulative tally.
func (p *Party) noteWire(rounds, bytes uint64) {
	p.wireRounds += rounds
	p.wireBytes += bytes
}

// WireTally returns the party's cumulative wire rounds and frame bytes.
func (p *Party) WireTally() (rounds, bytes uint64) { return p.wireRounds, p.wireBytes }

// observe stamps an event with the party's current wire tally and appends
// it to the transcript. All protocol-driven observations go through here;
// events appended directly to the Transcript (simulators) carry whatever
// tally their builder computes.
func (p *Party) observe(ev Event) {
	ev.WireRounds = p.wireRounds
	ev.WireBytes = p.wireBytes
	p.Transcript.Append(ev)
}

// ContributeRandom draws one uniformly random word from the party's private
// randomness — its input to joint noise generation and in-MPC re-sharing.
// The contribution is recorded in the transcript (it is the party's own
// input, hence trivially simulatable).
func (p *Party) ContributeRandom(t int, label string) secretshare.Word {
	z := p.rng.Uint32()
	p.observe(Event{Kind: EvRandomContributed, Time: t, Share: z, Label: label})
	return z
}

// StoreShare saves one share under a key (e.g. the cardinality counter "c"
// or the noisy threshold "theta") and records the observation.
func (p *Party) StoreShare(t int, key string, share secretshare.Word) {
	p.store[key] = share
	p.observe(Event{Kind: EvShareReceived, Time: t, Share: share, Label: key})
}

// LoadShare returns the share stored under key.
func (p *Party) LoadShare(key string) (secretshare.Word, bool) {
	w, ok := p.store[key]
	return w, ok
}

// Runtime is the two-party protocol execution environment. Values recovered
// "inside the protocol" are handled by Runtime methods and never written to
// any party's transcript; only the events the paper's simulator reproduces
// are observable.
//
// Since the transport refactor, a Runtime is two PartyRuntimes joined by an
// in-process loopback wire: every joint primitive really is two per-party
// protocol steps exchanging frames over a Conn, driven in lockstep from the
// calling goroutine. Substituting TCP+TLS for the loopback (what
// cmd/incshrink-party does) changes nothing observable — same draws, same
// transcripts, same wire tallies — because both transports count identical
// logical frames.
//
// A Runtime (parties, meter, RNG streams, loopback pair) is not safe for
// concurrent use: it is owned by exactly one engine, and the sweep engine
// (internal/runner) parallelizes at the cell level by giving every
// concurrently running engine its own Runtime with its own derived seed.
// Nothing in this package is shared between runtimes, so any number may run
// in parallel.
type Runtime struct {
	S0, S1 *Party
	Meter  *Meter
	p0, p1 *PartyRuntime
	// protocolRNG supplies randomness for share splitting *inside* the
	// protocol where the paper's construction XORs per-party contributions;
	// tests can fix it for reproducibility. Like the party streams it is
	// draw-counted so snapshots can resume it exactly.
	protocolSeed int64
	protocolRNG  *dp.CountingRNG
	now          int
}

// NewRuntime builds a runtime with the given cost model and seed. The seed
// derives independent streams for each party and the protocol internals.
func NewRuntime(model CostModel, seed int64) *Runtime {
	s0 := NewParty(Server0, seed*3+1)
	s1 := NewParty(Server1, seed*3+2)
	c0, c1 := wire.Loopback(1)
	return &Runtime{
		S0:           s0,
		S1:           s1,
		Meter:        NewMeter(model),
		p0:           attachPartyRuntime(s0, c0),
		p1:           attachPartyRuntime(s1, c1),
		protocolSeed: seed*3 + 3,
		protocolRNG:  dp.NewCountingRNG(rand.New(rand.NewSource(seed*3 + 3))),
	}
}

// check panics on a transport error. The loopback pair cannot fail by
// construction (it is buffered, in-process and never closed while the
// runtime lives), so an error here is a programming bug, not a condition
// engines should handle.
func (r *Runtime) check(err error) {
	if err != nil {
		panic("mpc: loopback transport failed: " + err.Error())
	}
}

// WireTally returns S0's cumulative wire rounds and frame bytes. The runtime
// protocol is symmetric — every exchange moves one frame each way — so S0's
// tally equals S1's and stands for "the" per-party wire cost of the run.
func (r *Runtime) WireTally() (rounds, bytes uint64) { return r.S0.WireTally() }

// RuntimeState is the serializable mutable state of a Runtime: both parties,
// the protocol-internal randomness position, the cost meter, and the logical
// clock. The seed and cost model are construction parameters.
type RuntimeState struct {
	S0, S1        PartyState
	ProtocolDraws uint64
	Meter         MeterState
	Now           int
}

// State snapshots the runtime.
func (r *Runtime) State() RuntimeState {
	return RuntimeState{
		S0:            r.S0.State(),
		S1:            r.S1.State(),
		ProtocolDraws: r.protocolRNG.Draws(),
		Meter:         r.Meter.State(),
		Now:           r.now,
	}
}

// SetState restores a snapshot taken with State on a runtime constructed
// with the same seed and cost model: share stores, transcripts, meter and
// logical clock are replaced, and every randomness stream is fast-forwarded
// to its recorded position, so the protocol's joint noise resumes exactly
// where the snapshotted runtime left off.
func (r *Runtime) SetState(st RuntimeState) error {
	if err := r.S0.SetState(st.S0); err != nil {
		return err
	}
	if err := r.S1.SetState(st.S1); err != nil {
		return err
	}
	rng := dp.NewCountingRNG(rand.New(rand.NewSource(r.protocolSeed)))
	if err := dp.ResumeRNG(rng, st.ProtocolDraws); err != nil {
		return fmt.Errorf("mpc: restoring protocol randomness: %w", err)
	}
	r.protocolRNG = rng
	if err := r.Meter.SetState(st.Meter); err != nil {
		return err
	}
	r.now = st.Now
	r.p0.SetTime(st.Now)
	r.p1.SetTime(st.Now)
	return nil
}

// SetTime advances the logical clock used to stamp transcript events.
func (r *Runtime) SetTime(t int) {
	r.now = t
	r.p0.SetTime(t)
	r.p1.SetTime(t)
}

// Now returns the current logical time.
func (r *Runtime) Now() int { return r.now }

// ShareToServers secret-shares a value computed inside the protocol and
// stores one share per server under key, using the Appendix A.2 re-sharing:
// both servers contribute randomness so neither can predict the split. Each
// party ships its contribution as a wire frame and derives its own share
// from the exchanged words; S0 always contributes (draws and sends) first.
func (r *Runtime) ShareToServers(key string, value secretshare.Word) {
	z0, err := r.p0.contributeBegin()
	r.check(err)
	z1, err := r.p1.contributeBegin()
	r.check(err)
	r.check(r.p0.shareFinish(key, value, z0))
	r.check(r.p1.shareFinish(key, value, z1))
}

// RecoverInside reconstructs the value stored under key from both servers'
// shares without exposing it: the plaintext exists only inside the protocol
// (this function's return value) and is never appended to a transcript. Both
// stores are checked before either party sends, so a missing key surfaces as
// an error without leaving a half-completed exchange on the wire.
func (r *Runtime) RecoverInside(key string) (secretshare.Word, error) {
	_, ok0 := r.S0.LoadShare(key)
	_, ok1 := r.S1.LoadShare(key)
	if !ok0 || !ok1 {
		return 0, fmt.Errorf("mpc: no shared value under key %q", key)
	}
	s0, err := r.p0.recoverBegin(key)
	r.check(err)
	s1, err := r.p1.recoverBegin(key)
	r.check(err)
	v0, err := r.p0.recoverFinish(s0)
	r.check(err)
	v1, err := r.p1.recoverFinish(s1)
	r.check(err)
	if v0 != v1 {
		panic("mpc: parties recovered different values")
	}
	return v0, nil
}

// JointRandomWord XORs one fresh random contribution from each server, the
// joint randomness primitive of Alg. 2:4-5. As long as one server samples
// honestly the result is uniform and unpredictable to the other.
func (r *Runtime) JointRandomWord(label string) uint32 {
	z0, err := r.p0.contributeBegin()
	r.check(err)
	z1, err := r.p1.contributeBegin()
	r.check(err)
	w0, err := r.p0.jointFinish(z0, label)
	r.check(err)
	w1, err := r.p1.jointFinish(z1, label)
	r.check(err)
	if w0 != w1 {
		panic("mpc: parties derived different joint words")
	}
	return w0
}

// JointLaplace draws Lap(scale) using joint randomness: one word for the
// magnitude, one for the sign, each the XOR of per-server contributions.
// This is the paper's JointNoise(S0, S1, Delta, eps, .) with
// scale = Delta/eps. The Laplace circuit cost is charged to op.
func (r *Runtime) JointLaplace(scale float64, op Op) float64 {
	zr := r.JointRandomWord("noise:mag")
	zs := r.JointRandomWord("noise:sign")
	r.Meter.ChargeLaplace(op)
	return laplaceFromWords(scale, zr, zs)
}

// ObserveBatch records that both servers saw an exhaustively padded batch of
// `size` tuples at the current time (Transform output entering the cache).
// The size is data-independent (always the padded maximum), which is why it
// is safe to reveal.
func (r *Runtime) ObserveBatch(size int, label string) {
	r.p0.ObserveBatch(size, label)
	r.p1.ObserveBatch(size, label)
}

// ObserveFetch records a DP-sized synchronization of `size` tuples from the
// cache to the materialized view. This is the only data-dependent scalar in
// the servers' views; the DP analysis covers exactly this field.
func (r *Runtime) ObserveFetch(size int, label string) {
	r.p0.ObserveFetch(size, label)
	r.p1.ObserveFetch(size, label)
}

// ObserveFlush records a fixed-size cache flush.
func (r *Runtime) ObserveFlush(size int, label string) {
	r.p0.ObserveFlush(size, label)
	r.p1.ObserveFlush(size, label)
}

// laplaceFromWords is dp.LaplaceFromWords. It was a duplicate while the MPC
// layer avoided importing dp; since the draw-counted RNGs made mpc depend on
// dp anyway, it now delegates (the equivalence test in mpc_test.go remains
// as a pin on the shared formula).
func laplaceFromWords(scale float64, zr, zs uint32) float64 {
	return dp.LaplaceFromWords(scale, zr, zs)
}
