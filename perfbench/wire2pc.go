package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"incshrink/internal/party"
	"incshrink/internal/runner"
	"incshrink/internal/wire"
)

// sessionSteps is the protocol steps of one session: short sessions give
// one GMW segment (the session's output-opening evaluation) per
// sessionSteps steps, so the phase times thousands of both.
const sessionSteps = 25

// sessionVariants is how many distinct session seeds the phase cycles
// through, each checked against its own loopback reference.
const sessionVariants = 8

// wireSeconds is the wall time the phase spends in sessions.
const wireSeconds = 5

// maxFrame bounds incoming frame payloads, as cmd/incshrink-party does.
const maxFrame = 1 << 16

// timedConn wraps one party's connection: it counts rounds the way the
// transports do (a receive that completes after at least one send since
// the previous receive) and stamps each round's completion, and it reports
// Stats relative to the session start so consecutive sessions can share
// one TLS connection.
type timedConn struct {
	inner  wire.Conn
	base   wire.Stats
	sent   bool
	opened time.Time   // first send of the open round
	start  time.Time   // session start
	ends   []time.Time // completion of each round
	lat    []float64   // each round's send-to-receive latency, seconds
}

func newTimedConn(c wire.Conn) *timedConn {
	return &timedConn{inner: c, base: c.Stats(), start: time.Now()}
}

func (c *timedConn) Send(typ byte, payload []byte) error {
	if !c.sent {
		c.sent = true
		c.opened = time.Now()
	}
	return c.inner.Send(typ, payload)
}

func (c *timedConn) Recv() (byte, []byte, error) {
	typ, p, err := c.inner.Recv()
	if err == nil && c.sent {
		now := time.Now()
		c.ends = append(c.ends, now)
		c.lat = append(c.lat, now.Sub(c.opened).Seconds())
		c.sent = false
	}
	return typ, p, err
}

func (c *timedConn) Stats() wire.Stats { return c.inner.Stats().Sub(c.base) }

// Close is a no-op: the sessions share the connection the run owns.
func (c *timedConn) Close() error { return nil }

// tlsPair is the two ends of one mutually authenticated TLS 1.3
// connection over 127.0.0.1, made the way cmd/incshrink-party makes it.
type tlsPair struct {
	c0, c1    *wire.NetConn
	handshake float64 // seconds from DialTLS through the first frame
}

func dialPair(dir string) (*tlsPair, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cert0, key0, err := wire.GenerateCert(dir, "party0")
	if err != nil {
		return nil, err
	}
	cert1, key1, err := wire.GenerateCert(dir, "party1")
	if err != nil {
		return nil, err
	}
	ln, err := wire.ListenTLS("127.0.0.1:0", wire.TLSFiles{Cert: cert0, Key: key0, PeerCert: cert1})
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			if hs, ok := c.(interface{ Handshake() error }); ok {
				if err = hs.Handshake(); err != nil {
					c.Close()
				}
			}
		}
		acc <- accepted{c, err}
	}()
	t0 := time.Now()
	raw1, err := wire.DialTLS(ln.Addr().String(), wire.TLSFiles{Cert: cert1, Key: key1, PeerCert: cert0})
	if err != nil {
		ln.Close()
		<-acc
		return nil, err
	}
	a := <-acc
	if a.err != nil {
		raw1.Close()
		return nil, a.err
	}
	p := &tlsPair{c0: wire.NewNetConn(a.c, maxFrame), c1: wire.NewNetConn(raw1, maxFrame)}
	// The first frame completes the handshake's round trips on both sides.
	if err := p.c1.Send(0, []byte{1}); err != nil {
		p.close()
		return nil, err
	}
	if _, _, err := p.c0.Recv(); err != nil {
		p.close()
		return nil, err
	}
	p.handshake = time.Since(t0).Seconds()
	return p, nil
}

func (p *tlsPair) close() error { return errors.Join(p.c0.Close(), p.c1.Close()) }

// session runs both parties of one session over the pair, one goroutine
// each, and returns their reports and party 0's timed connection.
func (p *tlsPair) session(cfg party.Config) (r0, r1 *party.Report, tc *timedConn, err error) {
	cfg0, cfg1 := cfg, cfg
	cfg0.Role, cfg1.Role = 0, 1
	w0, w1 := newTimedConn(p.c0), newTimedConn(p.c1)
	done := make(chan error, 1)
	go func() {
		var err error
		r1, err = party.Run(cfg1, w1)
		done <- err
	}()
	r0, err = party.Run(cfg0, w0)
	if err != nil {
		// Unblock the peer, which may be waiting on a frame that will
		// never come.
		p.close()
		<-done
		return nil, nil, nil, err
	}
	if err := <-done; err != nil {
		return nil, nil, nil, err
	}
	return r0, r1, w0, nil
}

// runWirePhase is the two-party transport measurement the traced
// paper-default run ends with: the wire-2pc load shape of
// cmd/incshrink-party, two party.Run sessions on two goroutines over one
// mutually authenticated TLS 1.3 connection on 127.0.0.1, back to back.
// Every report must be party.Equivalent to the in-process loopback
// reference and cost exactly what party.Predict says; party 0's round
// stamps time each round, each protocol step (its runtime word exchanges)
// and each session's GMW segment. These layers have no end-to-end metric
// of their own: their tails on a shared machine were too unsteady from run
// to run to gate.
func runWirePhase(p params, rep *report) error {
	cfgs := make([]party.Config, sessionVariants)
	refs := make([][2]*party.Report, sessionVariants)
	for v := range cfgs {
		cfgs[v] = party.Config{Seed: runner.DeriveSeed(p.seed, fmt.Sprintf("wire/session/%d", v)), Steps: sessionSteps, SnapshotAt: -1}
		r0, r1, err := party.RunLoopbackPair(cfgs[v])
		if err != nil {
			return err
		}
		refs[v] = [2]*party.Report{r0, r1}
	}
	predRounds, predBytes := party.Predict(cfgs[0])
	r1s, _ := party.Predict(party.Config{Steps: 1})
	r2s, _ := party.Predict(party.Config{Steps: 2})
	perStep := int(r2s - r1s)

	pair, err := dialPair(filepath.Join(p.dir, "certs"))
	if err != nil {
		return fmt.Errorf("wire set-up: %w", err)
	}
	defer pair.close()

	var steps, rounds, gmwLat dist
	var wall, gaps float64
	var last wire.Stats
	for n := 0; wall < wireSeconds || n < sessionVariants; n++ {
		v := n % sessionVariants
		runtime.GC()
		t0 := time.Now()
		rep.attempted++
		r0, r1, tc, err := pair.session(cfgs[v])
		wall += time.Since(t0).Seconds()
		if err != nil {
			rep.failed++
			return err
		}
		ok, field := party.Equivalent(r0, refs[v][0])
		rep.check(ok, "session %d: party 0 report differs from loopback in %s", n, field)
		ok, field = party.Equivalent(r1, refs[v][1])
		rep.check(ok, "session %d: party 1 report differs from loopback in %s", n, field)
		rep.check(r0.WireRounds == predRounds && r0.WireBytes == predBytes,
			"session %d: measured %d rounds / %d bytes, party.Predict says %d / %d", n, r0.WireRounds, r0.WireBytes, predRounds, predBytes)
		if len(tc.ends) != int(predRounds) {
			return fmt.Errorf("timed connection saw %d rounds, want %d", len(tc.ends), predRounds)
		}
		last = tc.Stats()
		prev := tc.start
		for s := 0; s < sessionSteps; s++ {
			end := tc.ends[perStep*(s+1)-1]
			steps = append(steps, end.Sub(prev).Seconds())
			prev = end
		}
		end := tc.ends[len(tc.ends)-1]
		gmwLat = append(gmwLat, end.Sub(prev).Seconds())
		rounds = append(rounds, tc.lat...)
		busy := 0.0
		for _, l := range tc.lat {
			busy += l
		}
		gaps += end.Sub(tc.start).Seconds() - busy
	}

	ref := refs[0][0]
	rep.set("wire.handshake_ms", 1e3*pair.handshake, "ms")
	rep.set("wire.steps_per_s", float64(len(steps))/wall, "1/s")
	rep.set("wire.step_p50_us", 1e6*steps.quantile(0.5), "us")
	rep.set("wire.round_p50_us", 1e6*rounds.quantile(0.5), "us")
	rep.set("wire.round_p99_us", 1e6*blockQuantile(rounds, 0.99), "us")
	rep.set("wire.gap_us", 1e6*gaps/float64(len(steps)), "us")
	rep.set("wire.rounds_per_step", float64(ref.WireRounds)/sessionSteps, "count")
	rep.set("wire.bytes_per_step", float64(ref.WireBytes)/sessionSteps, "bytes")
	rep.set("wire.frames_per_step", float64(last.FramesSent+last.FramesRecv)/sessionSteps, "count")
	rep.set("wire.predicted_ratio", float64(ref.WireRounds)/float64(predRounds), "ratio")
	rep.set("gmw.segment_ms", 1e3*gmwLat.quantile(0.5), "ms")
	rep.set("gmw.and_gates", float64(ref.GMWANDGates), "count")
	rep.note("wire sessions=%d steps/session=%d rounds/step=%d predicted rounds=%d bytes=%d", len(gmwLat), sessionSteps, perStep, predRounds, predBytes)
	rep.note("wire step  %s", steps.summary())
	rep.note("wire gmw   %s", gmwLat.summary())
	rep.note("wire round %s", rounds.summary())
	return nil
}
