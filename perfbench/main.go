// Command perfbench is the repository's benchmark for aliasd. It builds a
// seeded operation list for one workload, computes the oracle's verdicts,
// spawns the daemon, replays the list in a closed loop and prints every
// metric by name and unit. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload steady --seed 1 --seconds 10 --trace 0 \
//	    --aliasd .bench_build/bin/aliasd --out .bench_build/runs
//
// With --trace 1 it also replays the list in-process with spans around
// each layer and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run spawns the daemon and uploads the
// resident set; setup_s is the median. The last daemon serves the run.
const setupRepeats = 11

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	aliasd   string
	out      string
}

func main() {
	var cfg config
	var trace int
	var hostref bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "scales the op list to about this many seconds of measured work")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.StringVar(&cfg.aliasd, "aliasd", "", "aliasd binary to spawn")
	flag.StringVar(&cfg.out, "out", "", "directory for run directories and reports")
	flag.BoolVar(&hostref, "hostref", false, "serve host reference samples on stdin and stdout (the run starts this helper itself)")
	flag.Parse()
	if hostref {
		if err := serveHostRef(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: host reference:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.aliasd == "" || cfg.out == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --aliasd, --out, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	// With --workload all the last line combines the workloads' results,
	// each metric named <workload>/<metric>.
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cfg.workload = name
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printReport(rep)
		all.Correct = all.Correct && rep.Result.Correct
		all.Attempted += rep.Result.Attempted
		all.Failed += rep.Result.Failed
		for k, m := range rep.Result.Metrics {
			all.Metrics[name+"/"+k] = m
		}
		if len(names) == 1 {
			all.Metrics = rep.Result.Metrics
		}
	}
	b, _ := json.Marshal(all) // a struct of numbers and strings always marshals
	fmt.Println(string(b))
	if !all.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is written next to the run's other files; result is its summary.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Env         environment       `json:"env"`
	Host        hostLoad          `json:"host"`
	MeasureHost hostLoad          `json:"measured_phase_host"`
	PrepS       float64           `json:"prep_s"`
	SetupS      []float64         `json:"setup_s_samples"`
	Phases      []phaseSummary    `json:"phases"` // one per measured slice
	Samples     map[string]int    `json:"percentile_samples"`
	Failures    []string          `json:"failures,omitempty"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	// RawEndToEnd is EndToEnd before scaling to the host reference.
	RawEndToEnd map[string]metric `json:"raw_end_to_end"`
	// HostRefMS is every host reference sample, in run order.
	HostRefMS []float64 `json:"host_ref_samples_ms"`
	// HostRefDaemonCPUS is the daemon's CPU time during the measured
	// phase's samples, which should be idle time for it.
	HostRefDaemonCPUS float64           `json:"host_ref_daemon_cpu_s"`
	PerLayer          map[string]metric `json:"per_layer,omitempty"`
	Result            result            `json:"result"`
	Dir               string            `json:"dir"`
	// ClientRSSPeakMB is this process's VmHWM: the oracle, the op list and,
	// with --trace 1, the in-process services.
	ClientRSSPeakMB float64 `json:"client_rss_peak_mb"`
}

type phaseSummary struct {
	Name       string  `json:"name"`
	Ops        int     `json:"ops"`
	WallS      float64 `json:"wall_s"`
	ServerCPUS float64 `json:"server_cpu_s"`
	StealPct   float64 `json:"host_steal_pct"`
	HostRefMS  float64 `json:"host_ref_ms"` // mean of the samples either side
	Failed     int     `json:"failed"`
}

// untracedRun is what the spawned-daemon replay measured.
type untracedRun struct {
	setups   []float64
	setupRef time.Duration // mean host reference sample either side of the setups
	refs     []time.Duration
	// refDaemonCPU is the daemon's CPU time while measured-phase samples
	// ran: work it still did after a slice's last reply.
	refDaemonCPU time.Duration
	phases       []phaseResult // one per measured slice
	clientCPU    time.Duration
	rssMB        float64
	from, to     time.Time
}

func run(cfg config) (*report, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%v-%d", cfg.workload, cfg.seed, cfg.trace, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: collectEnv("."), Dir: dir}

	prep := time.Now()
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if err := computeOracle(w); err != nil {
		return nil, err
	}
	rep.PrepS = time.Since(prep).Seconds()

	host := startHostSampler(250 * time.Millisecond)
	un, err := runUntraced(cfg.aliasd, dir, w)
	var tr *tracedRun
	if err == nil && cfg.trace {
		tr, err = runTraced(filepath.Join(dir, "traced"), w)
		os.RemoveAll(filepath.Join(dir, "traced")) // only the services' stores live there
	}
	rep.Host = host.stop()
	if err != nil {
		return nil, err
	}
	rep.MeasureHost = host.between(un.from, un.to)
	rep.SetupS = un.setups

	for i := range un.phases {
		p := &un.phases[i]
		_, failed := tally([]phaseResult{*p})
		rep.Phases = append(rep.Phases, phaseSummary{Name: p.name, Ops: len(p.samples), WallS: p.wall.Seconds(),
			ServerCPUS: p.serverCPU.Seconds(), StealPct: p.stealPct, HostRefMS: msOf(p.hostRef), Failed: failed})
		rep.Failures = append(rep.Failures, p.failures...)
	}
	for _, r := range un.refs {
		rep.HostRefMS = append(rep.HostRefMS, msOf(r))
	}
	rep.HostRefDaemonCPUS = un.refDaemonCPU.Seconds()
	attempted, failed := tally(un.phases)
	rep.EndToEnd, rep.Samples = endToEnd(un, attempted, failed, true)
	rep.RawEndToEnd, _ = endToEnd(un, attempted, failed, false)
	rep.Result = result{Attempted: attempted, Failed: failed, Metrics: rep.EndToEnd}
	if tr != nil {
		a, f := tally(tr.httpPhases)
		rep.Result.Attempted += a
		rep.Result.Failed += f
		for _, p := range tr.httpPhases {
			rep.Failures = append(rep.Failures, p.failures...)
		}
		rep.Result.Attempted += tr.replayOps
		rep.Result.Failed += tr.replayFailed
		rep.Failures = append(rep.Failures, tr.replayFails...)
		rep.PerLayer, err = perLayer(tr, un, rep.RawEndToEnd)
		if err != nil {
			return nil, err
		}
		rep.Result.Metrics = rep.PerLayer
		if err := writeTraceFiles(dir, tr, rep); err != nil {
			return nil, err
		}
	}
	rep.Result.Correct = rep.Result.Failed == 0
	rep.ClientRSSPeakMB, _ = procStatusKB(os.Getpid(), "VmHWM:") // provenance only; 0 if unreadable
	if err := writeJSON(filepath.Join(dir, "report.json"), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// tally counts the ops attempted and the ops that failed: a wrong status,
// a transport error or a verdict that differs from the oracle.
func tally(phases []phaseResult) (attempted, failed int) {
	for _, p := range phases {
		for _, s := range p.samples {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// runUntraced spawns the daemon setupRepeats times, timing each setup,
// then replays the warm-up and the measured phases against the last one.
// It samples the host reference (see hostref.go) before and after the
// setups, after the warm-up and after each round of measured slices.
func runUntraced(bin, dir string, w *workload) (*untracedRun, error) {
	out := &untracedRun{}
	ref, err := startHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	sample := func() (time.Duration, error) {
		time.Sleep(hostRefSettle)
		r, err := ref.sample()
		out.refs = append(out.refs, r)
		return r, err
	}
	hc := newHTTPClient(w.conns)
	defer hc.CloseIdleConnections()
	before, err := sample()
	if err != nil {
		return nil, err
	}
	var d *daemon
	for k := 0; k < setupRepeats; k++ {
		ddir := filepath.Join(dir, fmt.Sprintf("daemon%d", k))
		start := time.Now()
		var err error
		d, err = startDaemon(bin, ddir)
		if err == nil {
			err = waitReady(hc, d.base, 30*time.Second)
		}
		if err == nil {
			err = uploadResident(hc, d.base, w)
		}
		if err == nil {
			err = waitReady(hc, d.base, 30*time.Second)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		if k < setupRepeats-1 {
			hc.CloseIdleConnections()
			d.stop()
			if err := os.RemoveAll(filepath.Join(ddir, "data")); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		d.stop()
		// The store only served the run; its log stays for the report.
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("daemon%d", setupRepeats-1), "data"))
	}()
	after, err := sample()
	if err != nil {
		return nil, err
	}
	out.setupRef = (before + after) / 2
	for _, ph := range w.warmup {
		if r := runPhase(hc, d.base, ph, nil); len(r.failures) > 0 {
			return nil, fmt.Errorf("warm-up %s: %s", ph.name, r.failures[0])
		}
	}
	prev, err := sample()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	out.from = time.Now()
	// Slice k of every measured phase runs before slice k+1 of any: phases
	// that must not overlap (bigbatch's queries and uploads) still sample
	// the same stretch of the host's drift.
	cut := make([][]phase, len(w.measured))
	for i, ph := range w.measured {
		cut[i] = slices(ph, w.slices)
	}
	for k := 0; k < w.slices; k++ {
		round := len(out.phases)
		for i := range cut {
			h0, _ := readHost()
			r := runPhase(hc, d.base, cut[i][k], nil)
			h1, _ := readHost()
			r.stealPct = stealPct(h0, h1)
			cpu1, err := d.cpu()
			if err != nil {
				return nil, err
			}
			r.serverCPU, cpu0 = cpu1-cpu0, cpu1
			out.phases = append(out.phases, r)
		}
		// The sample's own time passes between two reads of the daemon's
		// CPU, so it is left out of the next slice's server CPU.
		next, err := sample()
		if err != nil {
			return nil, err
		}
		cpu1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		out.refDaemonCPU += cpu1 - cpu0
		cpu0 = cpu1
		for i := round; i < len(out.phases); i++ {
			out.phases[i].hostRef = (prev + next) / 2
		}
		prev = next
	}
	out.to = time.Now()
	out.clientCPU = selfCPU() - self0
	if out.rssMB, err = d.hwmMB(); err != nil {
		return nil, err
	}
	return out, nil
}

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank percentile of ds (p in (0,1]).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics of the untraced run. Rates
// divide the work the op list fixes by the time of the slices that held
// it; latency percentiles pool every slice's samples.
//
// With normalize, every time is first scaled to the host reference's
// nominal speed: a slice's wall time, server CPU and latencies by
// hostRefNominal over the mean of the reference samples either side of it,
// and setup_s by the samples either side of the setups. Without it, the
// metrics are as measured.
//
// It also returns how many samples each latency percentile was taken over.
func endToEnd(un *untracedRun, attempted, failed int, normalize bool) (map[string]metric, map[string]int) {
	scale := func(ref time.Duration) float64 {
		if !normalize {
			return 1
		}
		return float64(hostRefNominal) / float64(ref)
	}
	var qLat, uLat []time.Duration
	var pairs, instrs int
	var qWall, uWall, cpu float64
	for _, p := range un.phases {
		f := scale(p.hostRef)
		hasQ, hasU := false, false
		for _, s := range p.samples {
			lat := time.Duration(float64(s.lat) * f)
			switch s.kind {
			case opQuery:
				hasQ = true
				qLat = append(qLat, lat)
				if s.ok {
					pairs += s.pairs
				}
			case opUpload:
				hasU = true
				uLat = append(uLat, lat)
				if s.ok {
					instrs += s.instrs
				}
			}
		}
		wall := p.wall.Seconds() * f
		cpu += p.serverCPU.Seconds() * f
		if hasQ {
			qWall += wall
		}
		if hasU {
			uWall += wall
		}
	}
	samples := map[string]int{"query": len(qLat), "upload": len(uLat)}
	return map[string]metric{
		"setup_s":       {median(un.setups) * scale(un.setupRef), "s"},
		"pairs_per_s":   {float64(pairs) / qWall, "1/s"},
		"query_p50_ms":  {msOf(percentile(qLat, 0.50)), "ms"},
		"query_p90_ms":  {msOf(percentile(qLat, 0.90)), "ms"},
		"kinstr_per_s":  {float64(instrs) / 1000 / uWall, "1/s"},
		"upload_p50_ms": {msOf(percentile(uLat, 0.50)), "ms"},
		"server_cpu_s":  {cpu, "s"},
		"rss_peak_mb":   {un.rssMB, "MiB"},
		"ok_ratio":      {float64(attempted-failed) / float64(max(attempted, 1)), "ratio"},
	}, samples
}

// perLayer computes the per-layer metrics from the traced run's spans, and
// client.cpu_share from the untraced run. Per-unit figures divide a
// layer's summed span durations (inclusive of any children) by the work
// the spans carried.
func perLayer(tr *tracedRun, un *untracedRun, e2e map[string]metric) (map[string]metric, error) {
	type agg struct {
		ns     float64
		work   int64
		allocs int64
		durs   []time.Duration
	}
	by := map[[2]string]*agg{}
	get := func(pass, name string) *agg {
		k := [2]string{pass, name}
		if by[k] == nil {
			by[k] = &agg{}
		}
		return by[k]
	}
	byID := map[spanID]span{}
	opKinds := map[int]string{} // replay op id -> op span name
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Pass == "replay" && strings.HasPrefix(s.Name, "op.") {
			opKinds[s.Op] = s.Name
		}
	}
	var netNS float64
	var netN int
	for _, s := range tr.spans {
		name := s.Name
		// Handler spans cover every op kind; the per-pair figures take the
		// replay's query ops only.
		if s.Pass == "replay" && name == "service.handler" && opKinds[s.Op] == "op.query" {
			name = "service.handler.query"
		}
		a := get(s.Pass, name)
		a.ns += float64(s.dur())
		a.work += int64(s.Work)
		a.durs = append(a.durs, s.dur())
		if s.Allocs != nil {
			a.allocs += *s.Allocs
		}
		if s.Pass == "http" && s.Name == "service.handler" {
			if p, ok := byID[s.Parent]; ok && p.Name == "client.query" {
				netNS += float64(p.dur() - s.dur())
				netN++
			}
		}
	}
	qh := get("replay", "service.handler.query")
	rb, ev := get("replay", "service.runbatch"), get("replay", "alias.evaluate")
	if qh.work == 0 || rb.work == 0 || ev.work == 0 || netN == 0 {
		return nil, errors.New("traced run recorded no query spans")
	}
	perWork := func(name string) float64 {
		a := get("replay", name)
		if a.work == 0 {
			return 0
		}
		return a.ns / float64(a.work)
	}
	medMS := func(name string) float64 {
		return msOf(percentile(get("replay", name).durs, 0.5))
	}
	pairs := float64(qh.work)
	m := map[string]metric{
		"service.net_us_per_req":           {netNS / float64(netN) / 1e3, "us"},
		"service.handler_ns_per_pair":      {qh.ns / pairs, "ns"},
		"service.codec_ns_per_pair":        {(qh.ns - rb.ns) / pairs, "ns"},
		"service.runbatch_ns_per_pair":     {rb.ns / float64(rb.work), "ns"},
		"service.handler_allocs_per_pair":  {float64(qh.allocs) / pairs, "count"},
		"service.runbatch_allocs_per_pair": {float64(rb.allocs) / float64(rb.work), "count"},
		"service.req_bytes_per_pair":       {float64(tr.reqBytes) / pairs, "B"},
		"service.resp_bytes_per_pair":      {float64(tr.respBytes) / pairs, "B"},
		"alias.evaluate_ns_per_pair":       {ev.ns / float64(ev.work), "ns"},
		"alias.evaluate_allocs_per_pair":   {float64(ev.allocs) / float64(ev.work), "count"},
		"ir.parse_ns_per_instr":            {perWork("ir.parse"), "ns"},
		"ir.verify_ns_per_instr":           {perWork("ir.verify"), "ns"},
		"alias.scevaa_ns_per_instr":        {perWork("alias.scevaa"), "ns"},
		"alias.basicaa_ns_per_instr":       {perWork("alias.basicaa"), "ns"},
		"alias.rbaa_ns_per_instr":          {perWork("alias.rbaa"), "ns"},
		"alias.andersen_ns_per_instr":      {perWork("alias.andersen"), "ns"},
		"rangeanal.analyze_ns_per_instr":   {perWork("rangeanal.analyze"), "ns"},
		"pointer.gr_ns_per_instr":          {perWork("pointer.gr"), "ns"},
		"pointer.lr_ns_per_instr":          {perWork("pointer.lr"), "ns"},
		"alias.index_build_ns_per_instr":   {perWork("alias.index_build"), "ns"},
		"store.put_ms":                     {medMS("store.put"), "ms"},
		"store.delete_ms":                  {medMS("store.delete"), "ms"},
		"runtime.gc_cpu_share":             {tr.gcShare, "ratio"},
	}
	if look := tr.reuseHits + tr.reuseMisses; look > 0 {
		m["alias.reuse_hit_ratio"] = metric{float64(tr.reuseHits) / float64(look), "ratio"}
	} else {
		m["alias.reuse_hit_ratio"] = metric{0, "ratio"}
	}
	var serverCPU time.Duration
	for _, p := range un.phases {
		serverCPU += p.serverCPU
	}
	total := un.clientCPU + serverCPU
	m["client.cpu_share"] = metric{un.clientCPU.Seconds() / math.Max(total.Seconds(), 1e-9), "ratio"}
	m["trace.query_p50_ratio"] = metric{msOf(percentile(queryLatencies(tr.httpPhases), 0.5)) / e2e["query_p50_ms"].Value, "ratio"}
	return m, nil
}

// writeTraceFiles writes the spans, the self-time table, the accounting
// and the tracing overhead next to the report.
func writeTraceFiles(dir string, tr *tracedRun, rep *report) error {
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}
	rows := selfTimes(tr.spans)
	f, err := os.Create(filepath.Join(dir, "layers.tsv"))
	if err != nil {
		return err
	}
	if err := writeLayerTable(f, rows); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "accounting.json"), accounting(tr.spans)); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "overhead.json"), overhead(tr, rep))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints each metric by name with its unit.
func printReport(rep *report) {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v (%s, nproc %d, %s, source %s)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Env.CPUModel, rep.Env.NProc, rep.Env.GoVersion, rep.Env.SourceSHA256)
	fmt.Printf("host: steal %.1f%% over the measured phase (max interval %.1f%%), loadavg1 %.2f..%.2f\n",
		rep.MeasureHost.StealPct, rep.MeasureHost.MaxStealPct, rep.MeasureHost.LoadavgMin, rep.MeasureHost.LoadavgMax)
	ops, wall := 0, 0.0
	for _, p := range rep.Phases {
		ops += p.Ops
		wall += p.WallS
	}
	fmt.Printf("measured: %d ops in %.3f s over %d slices; percentiles over %d query and %d upload samples\n",
		ops, wall, len(rep.Phases), rep.Samples["query"], rep.Samples["upload"])
	fmt.Printf("host reference: median sample %.2f ms over %d samples; times are scaled to %.0f ms\n",
		median(rep.HostRefMS), len(rep.HostRefMS), msOf(hostRefNominal))
	names := make([]string, 0, len(rep.Result.Metrics))
	for k := range rep.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.Result.Metrics[k]
		fmt.Printf("%-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, f := range rep.Failures {
		fmt.Printf("failure: %s\n", f)
	}
	fmt.Printf("report: %s\n", filepath.Join(rep.Dir, "report.json"))
}
