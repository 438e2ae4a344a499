package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/interval"
	"repro/internal/ir"
	"repro/internal/pointer"
	"repro/internal/rangeanal"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/symbolic"
)

// spanHeader carries "<round-trip span id>/<op id>" from the traced client
// to the server-side wrapper, so the handler span can name its parent.
const spanHeader = "X-Perfbench-Span"

type spanID uint64

// span is one timed call. Pass "http" spans come from the loopback replay
// (client round trips and the server's handler); pass "replay" spans come
// from the sequential in-process replay that calls each layer directly.
type span struct {
	ID     spanID    `json:"id"`
	Parent spanID    `json:"parent,omitempty"`
	Op     int       `json:"op"`
	Pass   string    `json:"pass"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// Work is the op's size: pairs for query ops, instructions for uploads.
	Work int `json:"work,omitempty"`
	// Allocs is the process-wide heap allocation count over the span; nil
	// where it was not measured.
	Allocs *int64 `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	pass  string
	next  *atomic.Uint64 // shared by the passes, so ids stay unique
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() spanID { return spanID(t.next.Add(1)) }

func (t *tracer) record(s span) {
	s.Pass = t.pass
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// daemonConfig mirrors aliasd's flag defaults, so the in-process service
// runs with the same configuration as the spawned daemon.
func daemonConfig(st *store.Store) service.Config {
	return service.Config{
		MaxBatch:       service.DefaultMaxBatch,
		MaxSourceBytes: service.DefaultMaxSourceBytes,
		MaxModules:     service.DefaultMaxModules,
		Parallel:       -1,
		BuildWorkers:   service.DefaultBuildWorkers,
		MaxInFlight:    service.DefaultMaxInFlight,
		Store:          st,
		Logger:         slog.New(slog.DiscardHandler),
	}
}

// inProcess is a service.New with the daemon's configuration, serving
// HTTP on a loopback port.
type inProcess struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan error
}

func startInProcess(dir string, tr *tracer) (*inProcess, error) {
	st, err := store.Open(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	svc := service.New(daemonConfig(st))
	if err := svc.Recover(); err != nil {
		svc.Close()
		return nil, err
	}
	inner := svc.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		start := time.Now()
		inner.ServeHTTP(w, r)
		end := time.Now()
		if hdr == "" || tr == nil {
			return
		}
		parent, opID, _ := strings.Cut(hdr, "/")
		pid, err1 := strconv.ParseUint(parent, 10, 64)
		id, err2 := strconv.Atoi(opID)
		if err1 == nil && err2 == nil {
			tr.record(span{ID: tr.newID(), Parent: spanID(pid), Op: id, Name: "service.handler", Start: start, End: end})
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	p := &inProcess{
		svc:  svc,
		srv:  &http.Server{Handler: h, ReadTimeout: 30 * time.Second, WriteTimeout: 60 * time.Second, IdleTimeout: 2 * time.Minute},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inProcess) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.srv.Shutdown(ctx); err != nil {
		p.srv.Close()
	}
	<-p.done
	p.svc.Close()
}

// reuseStats reads the service's reuse-cache counters from /v1/stats.
func reuseStats(h http.Handler) (hits, misses int64, err error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st service.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, 0, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if st.Reuse == nil {
		return 0, 0, errors.New("/v1/stats has no reuse section")
	}
	return st.Reuse.Hits, st.Reuse.Misses, nil
}

// readGC returns the runtime's estimates of the CPU time spent in the
// garbage collector and of the CPU time used at all (available minus
// idle), in seconds since the process started.
func readGC() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// tracedRun is the outcome of the traced replay.
type tracedRun struct {
	spans        []span
	httpPhases   []phaseResult
	replayFails  []string // the first maxFailures messages
	replayOps    int
	replayFailed int
	reqBytes     int64
	respBytes    int64
	reuseHits    int64
	reuseMisses  int64
	gcShare      float64
	wall         time.Duration
}

// runTraced replays the workload's op list twice in-process:
//
//   - pass "http": a service.New with the daemon's configuration behind a
//     loopback HTTP server, driven by the same closed loop and connection
//     count as the untraced run. The client records a span around each
//     round trip, the server one around Service.Handler().ServeHTTP.
//   - pass "replay": a fresh service, driven sequentially without HTTP.
//     Each op records the in-process handler call and then calls each
//     layer on the same input: Service.RunBatch and Snapshot.Evaluate for
//     queries; parse, verify, every chain member, the index build and a
//     store put for uploads; a store delete for deletes.
//
// Every reply of both passes is checked against the oracle too.
func runTraced(dir string, w *workload) (*tracedRun, error) {
	ids := &atomic.Uint64{}
	out := &tracedRun{}
	start := time.Now()

	httpTr := &tracer{pass: "http", next: ids}
	p, err := startInProcess(filepath.Join(dir, "http"), httpTr)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(w.conns)
	err = uploadResident(hc, p.base, w)
	if err == nil {
		for _, ph := range w.warmup {
			if r := runPhase(hc, p.base, ph, nil); len(r.failures) > 0 {
				err = fmt.Errorf("traced warm-up: %s", r.failures[0])
				break
			}
		}
	}
	if err != nil {
		p.stop()
		return nil, err
	}
	h0, m0, err := reuseStats(p.svc.Handler())
	if err != nil {
		p.stop()
		return nil, err
	}
	gc0, used0 := readGC()
	for _, ph := range tracedPhases(w) {
		out.httpPhases = append(out.httpPhases, runPhase(hc, p.base, ph, httpTr))
	}
	gc1, used1 := readGC()
	h1, m1, err := reuseStats(p.svc.Handler())
	hc.CloseIdleConnections()
	p.stop()
	if err != nil {
		return nil, err
	}
	out.reuseHits, out.reuseMisses = h1-h0, m1-m0
	if used1 > used0 {
		out.gcShare = (gc1 - gc0) / (used1 - used0)
	}
	// Hand the loopback service's heap back before the replay builds its
	// own, so the two passes do not add up in the process's peak.
	p = nil
	debug.FreeOSMemory()

	replayTr := &tracer{pass: "replay", next: ids}
	if err := replay(filepath.Join(dir, "replay"), w, replayTr, out); err != nil {
		return nil, err
	}
	out.spans = append(httpTr.spans, replayTr.spans...)
	out.wall = time.Since(start)
	return out, nil
}

// replay is the sequential in-process pass.
func replay(dir string, w *workload, tr *tracer, out *tracedRun) error {
	st, err := store.Open(filepath.Join(dir, "data"))
	if err != nil {
		return err
	}
	svc := service.New(daemonConfig(st))
	defer svc.Close()
	if err := svc.Recover(); err != nil {
		return err
	}
	layerStore, err := store.Open(filepath.Join(dir, "layer-store"))
	if err != nil {
		return err
	}
	r := &replayer{
		h:     svc.Handler(),
		svc:   svc,
		cache: alias.NewIndexCache(0), // aliasd's default -reuse-cache
		store: layerStore,
		tr:    tr,
	}
	for i, res := range w.resident {
		o := op{id: -1 - i, kind: opUpload, module: res.name, upload: res.up}
		if err := r.do(&o, false); err != nil {
			return err
		}
	}
	for _, ph := range w.warmup {
		for _, o := range interleave(ph) {
			if err := r.do(o, false); err != nil {
				return fmt.Errorf("replay warm-up: %w", err)
			}
		}
	}
	for _, ph := range tracedPhases(w) {
		for _, o := range interleave(ph) {
			out.replayOps++
			if err := r.do(o, true); err != nil {
				out.replayFailed++
				if len(out.replayFails) < maxFailures {
					out.replayFails = append(out.replayFails, fmt.Sprintf("op %d: %v", o.id, err))
				}
			}
		}
	}
	out.reqBytes, out.respBytes = r.reqBytes, r.respBytes
	return nil
}

// tracedPhases is the first 1/traceShare of each measured phase: a prefix
// of every connection's list, so its uploads, queries and deletes keep
// their order and expected statuses.
func tracedPhases(w *workload) []phase {
	out := make([]phase, len(w.measured))
	for i, ph := range w.measured {
		out[i] = slices(ph, traceShare)[0]
	}
	return out
}

// interleave merges a phase's per-connection lists round-robin, the order a
// fair scheduler would serve the connections in.
func interleave(p phase) []*op {
	var out []*op
	for k := 0; ; k++ {
		added := false
		for c := range p.conns {
			if k < len(p.conns[c]) {
				out = append(out, &p.conns[c][k])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

type replayer struct {
	h     http.Handler
	svc   *service.Service
	cache *alias.IndexCache
	store *store.Store
	tr    *tracer
	// reqBytes and respBytes total the recorded query bodies.
	reqBytes, respBytes int64
}

// timed runs fn inside a span named name under parent. With allocs, the
// span also carries the heap allocation count over fn; the counter is read
// outside the timed interval.
func (r *replayer) timed(record bool, name string, parent spanID, o *op, work int, allocs bool, fn func()) {
	if !record {
		fn()
		return
	}
	var a0 int64
	if allocs {
		a0 = mallocs()
	}
	id := r.tr.newID()
	start := time.Now()
	fn()
	end := time.Now()
	s := span{ID: id, Parent: parent, Op: o.id, Name: name, Start: start, End: end, Work: work}
	if allocs {
		n := mallocs() - a0
		s.Allocs = &n
	}
	r.tr.record(s)
}

// do replays one op; with record false it only brings the service and the
// layer caches to the state the op leaves behind.
func (r *replayer) do(o *op, record bool) error {
	work := 0
	switch o.kind {
	case opQuery:
		work = len(o.batch.pairs)
	case opUpload:
		work = o.upload.instrs
	}
	var root spanID
	var opStart time.Time
	if record {
		root = r.tr.newID()
		opStart = time.Now()
	}
	req, err := request("http://replay", o)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	r.timed(record, "service.handler", root, o, work, true, func() { r.h.ServeHTTP(rec, req) })
	if record && o.kind == opQuery {
		r.reqBytes += int64(len(o.batch.body))
		r.respBytes += int64(rec.Body.Len())
	}
	err = check(o, rec.Code, rec.Body.Bytes())
	if err == nil {
		switch o.kind {
		case opQuery:
			err = r.query(o, root, record)
		case opUpload:
			err = r.layers(o, root, record)
		case opDelete:
			r.timed(record, "store.delete", root, o, 0, false, func() { _, err = r.store.Delete(o.module) })
		}
	}
	if record {
		r.tr.record(span{ID: root, Op: o.id, Name: "op." + o.kind.String(), Start: opStart, End: time.Now(), Work: work})
	}
	return err
}

// query times Service.RunBatch and Snapshot.Evaluate over the batch.
func (r *replayer) query(o *op, root spanID, record bool) error {
	h, ok := r.svc.Registry().Acquire(o.module)
	if !ok {
		return fmt.Errorf("module %s not registered", o.module)
	}
	defer h.Release()
	n := len(o.batch.pairs)
	var err error
	r.timed(record, "service.runbatch", root, o, n, true, func() {
		_, err = r.svc.RunBatch(context.Background(), h, o.batch.pairs)
	})
	if err != nil {
		return err
	}
	ps := make([][2]*ir.Value, n)
	for i, p := range o.batch.pairs {
		a, err1 := h.Lookup(p.Func, p.A)
		b, err2 := h.Lookup(p.Func, p.B)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		ps[i] = [2]*ir.Value{a, b}
	}
	snap := h.Snap
	r.timed(record, "alias.evaluate", root, o, n, true, func() {
		for _, p := range ps {
			snap.Evaluate(p[0], p[1])
		}
	})
	return nil
}

// layers rebuilds an uploaded module layer by layer, the way the service's
// build does: parse, verify, the four chain members (rbaa as its range,
// global and local analyses), the index build through the reuse cache, and
// the durable store put.
func (r *replayer) layers(o *op, root spanID, record bool) error {
	src := string(o.upload.src)
	n := o.upload.instrs
	var m *ir.Module
	var err error
	r.timed(record, "ir.parse", root, o, n, false, func() { m, err = ir.Parse(src) })
	if err != nil {
		return err
	}
	r.timed(record, "ir.verify", root, o, n, false, func() { err = ir.Verify(m) })
	if err != nil {
		return err
	}
	in := symbolic.NewInterner()
	opts := pointer.Options{DescendingSteps: 2, Budget: interval.DefaultBudget, Interner: in,
		Range: rangeanal.Options{Interner: in}}
	var scev *scevaa.Analysis
	var basic *basicaa.Analysis
	var rb *rbaa.Analysis
	var anders *andersen.Result
	r.timed(record, "alias.scevaa", root, o, n, false, func() { scev = scevaa.New(m) })
	r.timed(record, "alias.basicaa", root, o, n, false, func() { basic = basicaa.New(m) })
	rbID := spanID(0)
	var rbStart time.Time
	if record {
		rbID = r.tr.newID()
		rbStart = time.Now()
	}
	var R *rangeanal.Result
	var gr *pointer.GRResult
	var lr *pointer.LRResult
	r.timed(record, "rangeanal.analyze", rbID, o, n, false, func() { R = rangeanal.Analyze(m, opts.Range) })
	r.timed(record, "pointer.gr", rbID, o, n, false, func() { gr = pointer.AnalyzeGR(m, R, opts) })
	r.timed(record, "pointer.lr", rbID, o, n, false, func() { lr = pointer.AnalyzeLR(m, R, opts) })
	rb = &rbaa.Analysis{Analysis: &pointer.Analysis{Mod: m, R: R, GR: gr, LR: lr, Opts: opts}}
	if record {
		r.tr.record(span{ID: rbID, Parent: root, Op: o.id, Name: "alias.rbaa", Start: rbStart, End: time.Now(), Work: n})
	}
	r.timed(record, "alias.andersen", root, o, n, false, func() { anders = andersen.Analyze(m) })
	r.timed(record, "alias.index_build", root, o, n, false, func() {
		mg := alias.NewManager(alias.ManagerOptions{}, scev, basic, rb, anders)
		if ix, _ := alias.BuildIndexCached(mg, m, r.cache); ix != nil {
			mg.AttachIndex(ix)
		}
	})
	r.timed(record, "store.put", root, o, 0, false, func() { err = r.store.Put(o.module, "ir", o.upload.src) })
	return err
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Pass, Name      string
	Count           int
	TotalMS, SelfMS float64
	Work, Allocs    int64
}

// selfTimes aggregates spans by (pass, name). A span's self time is its
// duration minus the part of it that its children cover.
func selfTimes(spans []span) []layerRow {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[[2]string]*layerRow{}
	var keys [][2]string
	for _, s := range spans {
		k := [2]string{s.Pass, s.Name}
		row, ok := rows[k]
		if !ok {
			row = &layerRow{Pass: s.Pass, Name: s.Name}
			rows[k] = row
			keys = append(keys, k)
		}
		d := s.dur()
		row.Count++
		row.TotalMS += msOf(d)
		row.SelfMS += msOf(d - covered(s, children[s.ID]))
		row.Work += int64(s.Work)
		if s.Allocs != nil {
			row.Allocs += *s.Allocs
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]layerRow, len(keys))
	for i, k := range keys {
		out[i] = *rows[k]
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = x
		case x[1].After(cur[1]):
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// writeSpans writes one JSON object per line, times in ns from the first
// span's start.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	for _, s := range spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		b, err := json.Marshal(struct {
			span
			StartNS int64 `json:"start_ns"`
			EndNS   int64 `json:"end_ns"`
		}{s, s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds()})
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLayerTable writes the self-time table as tab-separated text.
func writeLayerTable(wr io.Writer, rows []layerRow) error {
	bw := bufio.NewWriter(wr)
	fmt.Fprintf(bw, "pass\tlayer\tcount\ttotal_ms\tself_ms\twork\tself_ns_per_work\tallocs\n")
	for _, r := range rows {
		per := 0.0
		if r.Work > 0 {
			per = r.SelfMS * 1e6 / float64(r.Work)
		}
		fmt.Fprintf(bw, "%s\t%s\t%d\t%.3f\t%.3f\t%d\t%.2f\t%d\n", r.Pass, r.Name, r.Count, r.TotalMS, r.SelfMS, r.Work, per, r.Allocs)
	}
	return bw.Flush()
}
