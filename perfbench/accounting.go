package main

import (
	"strconv"
	"strings"
	"time"
)

// part is one named share of an accounted total, in ms summed over ops.
type part struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// account splits one measured total into layer self times plus a named
// residual, so the parts add up to the total exactly.
type account struct {
	Pass     string  `json:"pass"`
	Op       string  `json:"op"`
	Ops      int     `json:"ops"`
	Total    string  `json:"total"`
	TotalMS  float64 `json:"total_ms"`
	Parts    []part  `json:"parts"`
	Residual part    `json:"residual"`
}

// uploadLayers are the replayed build layers, in build order. alias.rbaa
// stands for its own self time; its range, global and local analyses are
// listed separately.
var uploadLayers = []string{
	"ir.parse", "ir.verify", "alias.scevaa", "alias.basicaa",
	"rangeanal.analyze", "pointer.gr", "pointer.lr", "alias.rbaa",
	"alias.andersen", "alias.index_build", "store.put",
}

// accounting reconciles the traced run:
//
//   - http pass, per op kind: the client round trip is the server handler
//     plus a network residual (client and server HTTP stacks, loopback,
//     queueing).
//   - replay pass, queries: the in-process handler is Service.RunBatch
//     plus a codec residual (decode, encode and the envelope).
//   - replay pass, uploads: the in-process handler is the self time of each
//     replayed build layer plus a residual (registry, value index, planner
//     and whatever the layer calls do not cover).
//   - replay pass, deletes: the handler is the store delete plus a residual.
func accounting(spans []span) []account {
	kind := map[[2]string]string{} // (pass, op id) -> kind, from the op spans
	key := func(s span) [2]string { return [2]string{s.Pass, strconv.Itoa(s.Op)} }
	children := map[spanID][]span{}
	for _, s := range spans {
		if k, ok := strings.CutPrefix(s.Name, "op."); ok {
			kind[key(s)] = k
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type sums struct {
		ops  map[int]bool
		self map[string]time.Duration
	}
	acc := map[[2]string]*sums{} // (pass, kind)
	for _, s := range spans {
		k := kind[key(s)]
		if k == "" || strings.HasPrefix(s.Name, "op.") {
			continue
		}
		a := acc[[2]string{s.Pass, k}]
		if a == nil {
			a = &sums{ops: map[int]bool{}, self: map[string]time.Duration{}}
			acc[[2]string{s.Pass, k}] = a
		}
		a.ops[s.Op] = true
		self := s.dur()
		if s.Pass == "replay" {
			// In the replay, only the rbaa span has children; elsewhere
			// self time equals duration.
			self -= covered(s, children[s.ID])
		}
		a.self[s.Name] += self
	}
	var out []account
	mk := func(pass, op, total, residual string, parts []string) {
		a := acc[[2]string{pass, op}]
		if a == nil {
			return
		}
		r := account{Pass: pass, Op: op, Ops: len(a.ops), Total: total, TotalMS: msOf(a.self[total])}
		rest := a.self[total]
		for _, p := range parts {
			r.Parts = append(r.Parts, part{p, msOf(a.self[p])})
			rest -= a.self[p]
		}
		r.Residual = part{residual, msOf(rest)}
		out = append(out, r)
	}
	for _, k := range []string{"query", "upload", "delete"} {
		mk("http", k, "client."+k, "network", []string{"service.handler"})
	}
	mk("replay", "query", "service.handler", "service.codec", []string{"service.runbatch"})
	mk("replay", "upload", "service.handler", "service.upload_other", uploadLayers)
	mk("replay", "delete", "service.handler", "service.delete_other", []string{"store.delete"})
	return out
}

// overheadReport compares the traced loopback pass with the untraced run.
// The ratios cover both ways the traced pass differs: spans are recorded,
// and the service shares the client's process.
type overheadReport struct {
	UntracedQueryP50MS float64 `json:"untraced_query_p50_ms"`
	TracedQueryP50MS   float64 `json:"traced_query_p50_ms"`
	QueryP50Ratio      float64 `json:"query_p50_ratio"`
	UntracedWallS      float64 `json:"untraced_wall_s_same_ops"`
	TracedWallS        float64 `json:"traced_http_wall_s"`
	WallRatio          float64 `json:"wall_ratio"`
	Spans              int     `json:"spans"`
	TracedRunS         float64 `json:"traced_run_s"`
}

func overhead(tr *tracedRun, rep *report) overheadReport {
	o := overheadReport{
		UntracedQueryP50MS: rep.RawEndToEnd["query_p50_ms"].Value,
		TracedQueryP50MS:   msOf(percentile(queryLatencies(tr.httpPhases), 0.5)),
		Spans:              len(tr.spans),
		TracedRunS:         tr.wall.Seconds(),
	}
	tracedOps, untracedOps := 0, 0
	for _, p := range tr.httpPhases {
		o.TracedWallS += p.wall.Seconds()
		tracedOps += len(p.samples)
	}
	for _, p := range rep.Phases {
		o.UntracedWallS += p.WallS
		untracedOps += p.Ops
	}
	// The traced pass replays a share of the measured list (see
	// tracedPhases); compare it with the untraced time for as many ops.
	o.UntracedWallS *= float64(tracedOps) / float64(max(untracedOps, 1))
	o.QueryP50Ratio = o.TracedQueryP50MS / o.UntracedQueryP50MS
	o.WallRatio = o.TracedWallS / o.UntracedWallS
	return o
}

// queryLatencies collects the query ops' latencies of the phases.
func queryLatencies(phases []phaseResult) []time.Duration {
	var out []time.Duration
	for _, p := range phases {
		for _, s := range p.samples {
			if s.kind == opQuery {
				out = append(out, s.lat)
			}
		}
	}
	return out
}
