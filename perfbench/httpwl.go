package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"incshrink/internal/obs"
	"incshrink/internal/serve"
)

// httpClient is one view's keep-alive connection to the loopback server.
type httpClient struct {
	base   string // http://127.0.0.1:port/v1/views/<name>
	c      *http.Client
	v      *serve.View // for end-of-episode stats only, never on the timed path
	bodies [][]byte
	step   int
}

// encodeBodies pre-encodes every advance request, so the client's JSON
// encoding stays off the timed path.
func encodeBodies(streams []stream) [][][]byte {
	out := make([][][]byte, len(streams))
	for i, st := range streams {
		for _, s := range st.steps {
			b, _ := json.Marshal(serve.AdvanceRequest{Left: s.Left, Right: s.Right}) // rows of int64, cannot fail
			out[i] = append(out[i], b)
		}
	}
	return out
}

// bootHTTP starts a real net/http server on a loopback port around
// serve.NewHandler, creates the views with POST /v1/views, and opens one
// keep-alive connection per view.
func (r *engineRun) bootHTTP(h *host, restore bool, variant int) (*host, error) {
	if restore {
		return nil, errors.New("the HTTP workload does not restore views")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.stop()
		return nil, err
	}
	hs := &http.Server{Handler: serve.NewHandler(h.srv.reg), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var transports []*http.Transport
	stopReg := h.stop
	h.stop = func() error {
		err := hs.Close()
		<-served
		for _, t := range transports {
			t.CloseIdleConnections()
		}
		return errors.Join(err, stopReg())
	}
	root := "http://" + ln.Addr().String() + "/v1/views"
	for i := 0; i < views; i++ {
		t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		transports = append(transports, t)
		c := &http.Client{Transport: t, Timeout: 30 * time.Second}
		o := r.viewOpts(variant, i)
		body, _ := json.Marshal(serve.CreateRequest{ // plain struct, cannot fail
			Name: viewName(i), Within: r.spec.def.Within, Budget: r.spec.def.Budget,
			Epsilon: o.Epsilon, Protocol: o.Protocol.String(), T: o.T, Theta: o.Theta,
			MaxLeft: o.MaxLeft, MaxRight: o.MaxRight, Seed: o.Seed,
		})
		if err := do(c, http.MethodPost, root, body, 0, http.StatusCreated, nil); err != nil {
			h.stop()
			return nil, fmt.Errorf("creating view %s: %w", viewName(i), err)
		}
		v, err := h.srv.reg.Get(viewName(i))
		if err != nil {
			h.stop()
			return nil, err
		}
		h.clients = append(h.clients, &httpClient{base: root + "/" + viewName(i), c: c, v: v, bodies: r.bodies[variant][i]})
	}
	return h, nil
}

// do sends one request and decodes a JSON answer into out (when non-nil),
// failing on any status but want. trace, when nonzero, travels as
// X-Trace-Id so the server's spans bind to the benchmark's call.
func do(c *http.Client, method, url string, body []byte, trace obs.TraceID, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != 0 {
		req.Header.Set("X-Trace-Id", trace.String())
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

func (c *httpClient) advance(trace obs.TraceID, k int) error {
	var resp serve.AdvanceResponse
	if err := do(c.c, http.MethodPost, c.base+"/advance", c.bodies[k], trace, http.StatusOK, &resp); err != nil {
		return err
	}
	c.step++
	if resp.Step != c.step {
		return fmt.Errorf("advance acknowledged step %d, want %d", resp.Step, c.step)
	}
	return nil
}

func (c *httpClient) count(trace obs.TraceID) (int, float64, error) {
	var resp serve.CountResponse
	err := do(c.c, http.MethodGet, c.base+"/count", nil, trace, http.StatusOK, &resp)
	return resp.Count, resp.QETSeconds, err
}

func (c *httpClient) countQ1(obs.TraceID) (int, float64, error) {
	return 0, 0, errors.New("filtered counts are not on the HTTP workload's schedule")
}

func (c *httpClient) checkpoint() error {
	return do(c.c, http.MethodPost, c.base+"/snapshot", nil, 0, http.StatusOK, nil)
}

func (c *httpClient) stats() serve.Status { return c.v.Stats() }
