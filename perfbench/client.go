package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// sample is the outcome of one op.
type sample struct {
	kind   opKind
	lat    time.Duration // request written to response body read
	ok     bool          // expected status and oracle-equal verdicts
	pairs  int
	instrs int
}

// phaseResult is one phase's samples, wall time and first failures.
type phaseResult struct {
	name     string
	wall     time.Duration
	samples  []sample
	failures []string // at most maxFailures messages
	// serverCPU is the daemon's CPU time over the phase and stealPct the
	// host's steal share (untraced runs).
	serverCPU time.Duration
	stealPct  float64
	// hostRef is the mean host reference sample either side of the phase
	// (untraced measured slices; see hostref.go).
	hostRef time.Duration
}

const maxFailures = 5

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// request builds the HTTP request for one op against base.
func request(base string, o *op) (*http.Request, error) {
	switch o.kind {
	case opQuery:
		req, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(o.batch.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	case opUpload:
		return http.NewRequest(http.MethodPost,
			base+"/v1/modules?format=ir&name="+url.QueryEscape(o.module), bytes.NewReader(o.upload.src))
	}
	return http.NewRequest(http.MethodDelete, base+"/v1/modules/"+url.PathEscape(o.module), nil)
}

// roundTrip sends one op and checks the reply. The latency covers writing
// the request through reading the whole response body; the check runs
// after the clock stops.
func roundTrip(hc *http.Client, base string, o *op, buf *bytes.Buffer, tr *tracer, root spanID) (sample, error) {
	s := sample{kind: o.kind}
	if o.kind == opQuery {
		s.pairs = len(o.batch.pairs)
	}
	if o.kind == opUpload {
		s.instrs = o.upload.instrs
	}
	req, err := request(base, o)
	if err != nil {
		return s, err
	}
	var rt spanID
	if tr != nil {
		rt = tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(uint64(rt), 10)+"/"+strconv.Itoa(o.id))
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		s.lat = time.Since(start)
		return s, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	if tr != nil {
		tr.record(span{ID: rt, Parent: root, Op: o.id, Name: "client." + o.kind.String(), Start: start, End: start.Add(s.lat)})
	}
	if err != nil {
		return s, fmt.Errorf("%s %s: reading reply: %w", o.kind, o.module, err)
	}
	if err := check(o, resp.StatusCode, buf.Bytes()); err != nil {
		return s, err
	}
	s.ok = true
	return s, nil
}

// runPhase drives one phase closed-loop: one goroutine per connection
// sends its next op only after the previous reply was read and checked.
// With a tracer, every op and round trip also records a span.
func runPhase(hc *http.Client, base string, p phase, tr *tracer) phaseResult {
	res := phaseResult{name: p.name}
	per := make([][]sample, len(p.conns))
	fails := make([][]string, len(p.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c, ops := range p.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, len(ops))
			for i := range ops {
				o := &ops[i]
				var root spanID
				var opStart time.Time
				if tr != nil {
					root = tr.newID()
					opStart = time.Now()
				}
				s, err := roundTrip(hc, base, o, &buf, tr, root)
				if tr != nil {
					tr.record(span{ID: root, Op: o.id, Name: "op." + o.kind.String(), Start: opStart, End: time.Now()})
				}
				if err != nil && len(fails[c]) < maxFailures {
					fails[c] = append(fails[c], fmt.Sprintf("op %d: %v", o.id, err))
				}
				out = append(out, s)
			}
			per[c] = out
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for c := range per {
		res.samples = append(res.samples, per[c]...)
		res.failures = append(res.failures, fails[c]...)
	}
	if len(res.failures) > maxFailures {
		res.failures = res.failures[:maxFailures]
	}
	return res
}

// slices cuts a phase into n phases of the same name, each holding the
// next equal share of every connection's ops.
func slices(p phase, n int) []phase {
	out := make([]phase, n)
	for k := range out {
		out[k] = phase{name: p.name, conns: make([][]op, len(p.conns))}
		for c, ops := range p.conns {
			out[k].conns[c] = ops[len(ops)*k/n : len(ops)*(k+1)/n]
		}
	}
	return out
}

// uploadResident uploads the workload's resident modules one at a time and
// checks each 201.
func uploadResident(hc *http.Client, base string, w *workload) error {
	var buf bytes.Buffer
	for i, r := range w.resident {
		o := op{id: -1 - i, kind: opUpload, module: r.name, upload: r.up}
		req, err := request(base, &o)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("uploading resident %s: %w", r.name, err)
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("uploading resident %s: %w", r.name, err)
		}
		if err := check(&o, resp.StatusCode, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(hc *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %s (last error: %v)", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
