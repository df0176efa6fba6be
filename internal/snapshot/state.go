package snapshot

import (
	"sort"

	"incshrink/internal/dp"
	"incshrink/internal/mpc"
	"incshrink/internal/oblivious"
	"incshrink/internal/secretshare"
	"incshrink/internal/securearray"
)

// This file holds the section codecs for the data-plane containers and the
// MPC runtime. Each section is self-delimiting (every variable-length field
// is length-prefixed), so sections compose by concatenation and higher
// layers (core, incshrink, dpsync) interleave their own fields freely.

// EncodeBuffer writes an oblivious.Buffer: the payload arena plus the
// parallel flag and source-ID columns.
func EncodeBuffer(e *Encoder, b *oblivious.Buffer) {
	e.Int(b.Arity())
	e.Int(b.Len())
	e.I64s(b.Payload().Data())
	e.Bools(b.Flags())
	e.I64s(b.LeftIDs())
	e.I64s(b.RightIDs())
}

// DecodeBufferInto reloads a buffer encoded with EncodeBuffer into dst,
// which must have the encoded arity and is reset first. The real-slot
// counter is rebuilt from the flag column.
func DecodeBufferInto(d *Decoder, dst *oblivious.Buffer) error {
	arity := d.Int()
	n := d.Int()
	payload := d.I64s()
	flags := d.Bools()
	left := d.I64s()
	right := d.I64s()
	if d.Err() != nil {
		return d.Err()
	}
	if arity != dst.Arity() {
		d.Corrupt("buffer arity %d, restoring into arity %d", arity, dst.Arity())
		return d.Err()
	}
	if n < 0 || arity < 0 || len(flags) != n || len(left) != n || len(right) != n || len(payload) != n*arity {
		d.Corrupt("buffer of %d slots carries %d flags, %d/%d ids, %d attributes",
			n, len(flags), len(left), len(right), len(payload))
		return d.Err()
	}
	dst.Reset()
	dst.Grow(n)
	dst.AppendColumns(payload, flags, left, right)
	return d.Err()
}

// EncodeCache writes a securearray.Cache: its arena plus operation counters.
func EncodeCache(e *Encoder, c *securearray.Cache) {
	EncodeBuffer(e, c.Buffer())
	appends, reads, flushes := c.Stats()
	e.Int(appends)
	e.Int(reads)
	e.Int(flushes)
	e.Int(c.MaxLen())
}

// DecodeCacheInto reloads a cache encoded with EncodeCache into c (same
// arity required; the meter and tuple width stay as constructed).
func DecodeCacheInto(d *Decoder, c *securearray.Cache) error {
	if err := DecodeBufferInto(d, c.Buffer()); err != nil {
		return err
	}
	appends := d.Int()
	reads := d.Int()
	flushes := d.Int()
	maxLen := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if appends < 0 || reads < 0 || flushes < 0 || maxLen < c.Len() {
		d.Corrupt("cache counters (appends=%d reads=%d flushes=%d maxLen=%d, len=%d)",
			appends, reads, flushes, maxLen, c.Len())
		return d.Err()
	}
	c.RestoreCounters(appends, reads, flushes, maxLen)
	return nil
}

// EncodeView writes a securearray.View: its arena plus the update counter.
func EncodeView(e *Encoder, v *securearray.View) {
	EncodeBuffer(e, v.Buffer())
	e.Int(v.Updates())
}

// DecodeViewInto reloads a view encoded with EncodeView into v (same arity
// required).
func DecodeViewInto(d *Decoder, v *securearray.View) error {
	if err := DecodeBufferInto(d, v.Buffer()); err != nil {
		return err
	}
	updates := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if updates < 0 {
		d.Corrupt("view updates %d", updates)
		return d.Err()
	}
	v.RestoreUpdates(updates)
	return nil
}

// EncodeInt64IntMap writes a map[int64]int in sorted key order, so equal
// maps encode to equal bytes.
func EncodeInt64IntMap(e *Encoder, m map[int64]int) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.I64(k)
		e.Int(m[k])
	}
}

// DecodeInt64IntMap reads a map encoded with EncodeInt64IntMap.
func DecodeInt64IntMap(d *Decoder) map[int64]int {
	n := d.Len()
	if d.Err() != nil {
		return nil
	}
	m := make(map[int64]int, min(n, allocChunk))
	for i := 0; i < n; i++ {
		k := d.I64()
		v := d.Int()
		if d.Err() != nil {
			return nil
		}
		m[k] = v
	}
	if len(m) != n {
		d.Corrupt("int64 map with duplicate keys (%d entries, %d distinct)", n, len(m))
		return nil
	}
	return m
}

// encodeTranscriptEvents writes one party's transcript, including the
// cumulative wire tally each event was stamped with (v2).
func encodeTranscriptEvents(e *Encoder, events []mpc.Event) {
	e.U32(uint32(len(events)))
	for _, ev := range events {
		e.U8(uint8(ev.Kind))
		e.Int(ev.Time)
		e.Int(ev.Size)
		e.U32(ev.Share)
		e.String(ev.Label)
		e.U64(ev.WireRounds)
		e.U64(ev.WireBytes)
	}
}

func decodeTranscriptEvents(d *Decoder) []mpc.Event {
	n := d.Len()
	if d.Err() != nil {
		return nil
	}
	out := make([]mpc.Event, 0, min(n, allocChunk))
	for i := 0; i < n; i++ {
		ev := mpc.Event{
			Kind:       mpc.EventKind(d.U8()),
			Time:       d.Int(),
			Size:       d.Int(),
			Share:      d.U32(),
			Label:      d.String(),
			WireRounds: d.U64(),
			WireBytes:  d.U64(),
		}
		if d.Err() != nil {
			return nil
		}
		out = append(out, ev)
	}
	return out
}

func encodePartyState(e *Encoder, st mpc.PartyState) {
	// Refuse to write a draw position a restore would refuse to replay:
	// the checkpoint must fail now, loudly, not at the next boot.
	if st.Draws > dp.MaxResumeDraws {
		e.Fail("party draw position %d exceeds the resumable bound %d", st.Draws, uint64(dp.MaxResumeDraws))
	}
	e.U64(st.Draws)
	keys := make([]string, 0, len(st.Store))
	for k := range st.Store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.String(k)
		e.U32(st.Store[k])
	}
	encodeTranscriptEvents(e, st.Events)
	e.U64(st.WireRounds)
	e.U64(st.WireBytes)
}

func decodePartyState(d *Decoder) mpc.PartyState {
	st := mpc.PartyState{Draws: d.U64()}
	n := d.Len()
	if d.Err() != nil {
		return st
	}
	st.Store = make(map[string]secretshare.Word, min(n, allocChunk))
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.U32()
		if d.Err() != nil {
			return st
		}
		st.Store[k] = v
	}
	if len(st.Store) != n {
		d.Corrupt("share store with duplicate keys")
		return st
	}
	st.Events = decodeTranscriptEvents(d)
	st.WireRounds = d.U64()
	st.WireBytes = d.U64()
	return st
}

func encodeMeterState(e *Encoder, st mpc.MeterState) {
	e.U32(uint32(len(st.Gates)))
	for _, g := range st.Gates {
		e.F64(g)
	}
	e.U32(uint32(len(st.Calls)))
	for _, c := range st.Calls {
		e.Int(c)
	}
}

func decodeMeterState(d *Decoder) mpc.MeterState {
	var st mpc.MeterState
	ng := d.Len()
	if d.Err() != nil {
		return st
	}
	st.Gates = make([]float64, 0, min(ng, allocChunk))
	for i := 0; i < ng; i++ {
		st.Gates = append(st.Gates, d.F64())
		if d.Err() != nil {
			return st
		}
	}
	nc := d.Len()
	if d.Err() != nil {
		return st
	}
	st.Calls = make([]int, 0, min(nc, allocChunk))
	for i := 0; i < nc; i++ {
		st.Calls = append(st.Calls, d.Int())
		if d.Err() != nil {
			return st
		}
	}
	return st
}

// EncodeRuntime writes the full mutable state of an MPC runtime: both
// parties (randomness positions, share stores, transcripts, wire tallies),
// the protocol-internal randomness position, the cost meter and the logical
// clock.
func EncodeRuntime(e *Encoder, rt *mpc.Runtime) {
	st := rt.State()
	encodePartyState(e, st.S0)
	encodePartyState(e, st.S1)
	if st.ProtocolDraws > dp.MaxResumeDraws {
		e.Fail("protocol draw position %d exceeds the resumable bound %d", st.ProtocolDraws, uint64(dp.MaxResumeDraws))
	}
	e.U64(st.ProtocolDraws)
	encodeMeterState(e, st.Meter)
	e.Int(st.Now)
}

// DecodeRuntimeInto reloads runtime state encoded with EncodeRuntime into a
// runtime constructed with the same seed and cost model. Every randomness
// stream is rebuilt from its seed and fast-forwarded to the recorded draw
// position — the invariant that makes restored protocol noise resume
// exactly where the snapshotted runtime stopped.
func DecodeRuntimeInto(d *Decoder, rt *mpc.Runtime) error {
	var st mpc.RuntimeState
	st.S0 = decodePartyState(d)
	st.S1 = decodePartyState(d)
	st.ProtocolDraws = d.U64()
	st.Meter = decodeMeterState(d)
	st.Now = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if err := rt.SetState(st); err != nil {
		d.Corrupt("%v", err)
		return d.Err()
	}
	return nil
}

// EncodePartyRuntime writes the full mutable state of one standalone party
// runtime (cmd/incshrink-party): the party — including the wire tally, so a
// crash-rejoined party with a fresh connection keeps attributing transcript
// events to the same positions in the wire conversation — its meter and the
// logical clock.
func EncodePartyRuntime(e *Encoder, pr *mpc.PartyRuntime) {
	st := pr.State()
	encodePartyState(e, st.Party)
	encodeMeterState(e, st.Meter)
	e.Int(st.Now)
}

// DecodePartyRuntimeInto reloads state encoded with EncodePartyRuntime into
// a party runtime constructed with the same identity, seed and cost model.
func DecodePartyRuntimeInto(d *Decoder, pr *mpc.PartyRuntime) error {
	var st mpc.PartyRuntimeState
	st.Party = decodePartyState(d)
	st.Meter = decodeMeterState(d)
	st.Now = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if err := pr.SetState(st); err != nil {
		d.Corrupt("%v", err)
		return d.Err()
	}
	return nil
}
