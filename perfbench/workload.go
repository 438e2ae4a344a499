package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/alias"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/service"
)

// opKind is what one operation of the replayed list does.
type opKind int

const (
	opQuery opKind = iota
	opUpload
	opDelete
)

func (k opKind) String() string {
	return [...]string{"query", "upload", "delete"}[k]
}

// batch is one pre-marshalled /v1/query body with the oracle's verdicts.
// Ops share batches by pointer, so a body replayed many times is stored
// once.
type batch struct {
	module      string
	body        []byte
	pairs       []service.Pair
	noAlias     []bool // oracle verdict per pair, in request order
	wantNoAlias int    // oracle's no-alias count for the whole batch
}

// upload is one module source with the instruction count of the generated
// module, which the daemon's 201 must report.
type upload struct {
	src    []byte
	instrs int
}

// op is one step of a connection's closed loop.
type op struct {
	id     int
	kind   opKind
	module string  // module the op names (query target, upload or delete name)
	batch  *batch  // opQuery
	upload *upload // opUpload
}

// phase is a list of ops per connection, run with a barrier at either end.
// A workload's measured ops are split into phases only where they must not
// overlap (bigbatch keeps its upload phase apart from its query phase).
type phase struct {
	name  string
	conns [][]op
}

// workload is everything a run needs, built from the seed before the
// daemon starts: resident modules, warm-up and measured phases, bodies and
// oracle verdicts.
type workload struct {
	conns    int
	resident []namedUpload
	warmup   []phase
	measured []phase
	// slices is how many equal slices each measured phase is cut into; the
	// run samples the host reference between rounds of slices.
	slices int
}

type namedUpload struct {
	name string
	up   *upload
}

// Per-second op rates the --seconds flag scales. They are constants, not
// measurements: every commit replays the same list, so a faster daemon
// finishes sooner instead of doing more work. Each was sized so that the
// measured phase takes at most --seconds on a 2-vCPU host in its slow
// minutes (see README.md, Noise).
const (
	steadyBatchesPerSec   = 1100 // 256-pair batches, over all connections
	steadyReuploadEvery   = 50   // one re-upload in this many ops per connection
	bigbatchBatchesPerSec = 48   // 4096-pair batches; uploads match the count
	bigbatchDistinct      = 96   // distinct bodies the bigbatch list cycles
	ingestCyclesPerSec    = 18   // upload, queries, delete: cycles over all connections
	warmupShare           = 20   // warm-up is 1/warmupShare of the measured ops
	defaultSlices         = 40   // measured slices per phase, where ops are alike
	// traceShare: the traced passes replay the first 1/traceShare of each
	// measured phase, so a traced run stays within its time limit.
	traceShare = 4
)

// Workload shapes fixed by the benchmark's definition.
const (
	steadyConns = 2
	steadyBatch = 256
	// steadyReuploadMin and steadyReuploadMax bound the instruction count of
	// the Fig. 13 programs steady re-uploads: the eight mid-sized ones, so
	// upload_p50_ms compares builds of similar size.
	steadyReuploadMin = 400
	steadyReuploadMax = 800
	bigbatchPtrs      = 1600
	bigbatchBatch     = 4096
	ingestConns       = 2
	ingestBatch       = 256
	ingestQueries     = 4 // verification batches per upload
	// Ingest uploads the Fig. 15 ramp steps ingestRampLo to ingestRampHi:
	// nineteen program sizes from about 1.5k to 18k instructions.
	ingestRampLo = 14
	ingestRampHi = 32
	// ingestProgramSeed is the base of the uploaded programs' seeds.
	ingestProgramSeed = 15 << 40
)

var workloadNames = []string{"steady", "bigbatch", "ingest"}

// buildWorkload generates the named workload from seed, sized for seconds.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case "steady":
		return buildSteady(seed, seconds), nil
	case "bigbatch":
		return buildBigbatch(seed, seconds), nil
	case "ingest":
		return buildIngest(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig13 generates the 22 Fig. 13 programs in a fixed order.
func fig13() []*ir.Module {
	var mods []*ir.Module
	for _, c := range benchgen.Fig13Configs() {
		mods = append(mods, benchgen.Generate(c))
	}
	return mods
}

func newUpload(m *ir.Module) *upload {
	return &upload{src: []byte(m.String()), instrs: m.Stats().Instrs}
}

// namedPairs renders a module's paper-style pair enumeration in the
// service's textual form.
func namedPairs(m *ir.Module) []service.Pair {
	qs := alias.Queries(m)
	out := make([]service.Pair, len(qs))
	for i, q := range qs {
		out[i] = service.Pair{Func: q.P.Func.Name, A: q.P.Name, B: q.Q.Name}
	}
	return out
}

func marshalBatch(module string, pairs []service.Pair) *batch {
	body, err := json.Marshal(service.QueryRequest{Module: module, Pairs: pairs})
	if err != nil {
		panic(err) // a QueryRequest of strings always marshals
	}
	return &batch{module: module, body: body, pairs: pairs}
}

// deck deals 0..n-1 in a seeded order, each card once per round, so every
// seed draws the same mix of inputs and only their order differs.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// buildSteady: the 22 Fig. 13 modules resident; 2 connections issue
// 256-pair batches cut from a seeded shuffle of each module's pairs, and
// about one op in 50 re-uploads an unchanged Fig. 13 program under a fresh
// name, then deletes the previous copy.
func buildSteady(seed int64, seconds int) *workload {
	rng := rand.New(rand.NewSource(seed))
	mods := fig13()
	w := &workload{conns: steadyConns, slices: defaultSlices}
	var batches [][]*batch // per module, one shuffled cycle of batches
	var uploads []*upload  // the re-upload band
	for _, m := range mods {
		up := newUpload(m)
		if up.instrs >= steadyReuploadMin && up.instrs <= steadyReuploadMax {
			uploads = append(uploads, up)
		}
		w.resident = append(w.resident, namedUpload{m.Name, up})
		pairs := namedPairs(m)
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		var cycle []*batch
		for lo := 0; lo < len(pairs); lo += steadyBatch {
			ps := make([]service.Pair, 0, steadyBatch)
			for k := 0; k < steadyBatch; k++ {
				ps = append(ps, pairs[(lo+k)%len(pairs)])
			}
			cycle = append(cycle, marshalBatch(m.Name, ps))
		}
		batches = append(batches, cycle)
	}
	perConn := steadyBatchesPerSec * seconds / steadyConns
	ids := 0
	cursor := make([]int, len(mods))
	modDeck := &deck{rng: rng, n: len(mods)}
	upDeck := &deck{rng: rng, n: len(uploads)}
	gen := func(nOps int, tag string) phase {
		p := phase{name: tag, conns: make([][]op, steadyConns)}
		for c := range p.conns {
			var ops []op
			prev := ""
			for k := 0; len(ops) < nOps; k++ {
				if k%steadyReuploadEvery == steadyReuploadEvery-1 {
					name := fmt.Sprintf("re-%s-%d-%d", tag, c, k)
					ops = append(ops, op{id: ids, kind: opUpload, module: name, upload: uploads[upDeck.next()]})
					ids++
					if prev != "" {
						ops = append(ops, op{id: ids, kind: opDelete, module: prev})
						ids++
					}
					prev = name
					continue
				}
				mi := modDeck.next()
				b := batches[mi][cursor[mi]%len(batches[mi])]
				cursor[mi]++
				ops = append(ops, op{id: ids, kind: opQuery, module: b.module, batch: b})
				ids++
			}
			if prev != "" {
				// Leave only the resident set behind, so a replay of the
				// same list starts from the same registry.
				ops = append(ops, op{id: ids, kind: opDelete, module: prev})
				ids++
			}
			p.conns[c] = ops
		}
		return p
	}
	w.warmup = []phase{gen(perConn/warmupShare, "warm")}
	w.measured = []phase{gen(perConn, "run")}
	return w
}

// buildBigbatch: one wide function resident; 1 connection sends seeded
// 4096-pair batches. A separate upload phase re-uploads (and deletes)
// small Fig. 13 programs as many times as there are batches, so the upload
// metrics are sampled as often as the query metrics without builds running
// beside the batches. The run alternates the two phases' slices.
func buildBigbatch(seed int64, seconds int) *workload {
	rng := rand.New(rand.NewSource(seed))
	m := benchgen.WideBatch("bigbatch", bigbatchPtrs)
	w := &workload{conns: 1, slices: defaultSlices}
	w.resident = []namedUpload{{m.Name, newUpload(m)}}
	all := namedPairs(m)
	distinct := make([]*batch, bigbatchDistinct)
	for i := range distinct {
		ps := make([]service.Pair, bigbatchBatch)
		for k := range ps {
			ps[k] = all[rng.Intn(len(all))]
		}
		distinct[i] = marshalBatch(m.Name, ps)
	}
	// The smallest Fig. 13 programs: their builds are short, so the upload
	// phase stays a minor part of the run.
	small := fig13()
	sort.SliceStable(small, func(i, j int) bool { return small[i].Stats().Instrs < small[j].Stats().Instrs })
	var uploads []*upload
	for _, sm := range small[:8] {
		uploads = append(uploads, newUpload(sm))
	}
	ids := 0
	batchDeck := &deck{rng: rng, n: len(distinct)}
	upDeck := &deck{rng: rng, n: len(uploads)}
	queries := func(n int) phase {
		ops := make([]op, n)
		for k := range ops {
			b := distinct[batchDeck.next()]
			ops[k] = op{id: ids, kind: opQuery, module: b.module, batch: b}
			ids++
		}
		return phase{name: "query", conns: [][]op{ops}}
	}
	uploadPhase := func(n int, tag string) phase {
		var ops []op
		prev := ""
		for k := 0; k < n; k++ {
			name := fmt.Sprintf("up-%s-%d", tag, k)
			ops = append(ops, op{id: ids, kind: opUpload, module: name, upload: uploads[upDeck.next()]})
			ids++
			if prev != "" {
				ops = append(ops, op{id: ids, kind: opDelete, module: prev})
				ids++
			}
			prev = name
		}
		if prev != "" {
			ops = append(ops, op{id: ids, kind: opDelete, module: prev})
			ids++
		}
		return phase{name: "upload", conns: [][]op{ops}}
	}
	// Whole rounds of the upload deck in every slice.
	unit := len(uploads) * defaultSlices
	n := max((bigbatchBatchesPerSec*seconds+unit/2)/unit, 1) * unit
	nw := max(n/warmupShare, 1)
	w.warmup = []phase{queries(nw), uploadPhase(nw, "warm")}
	w.measured = []phase{queries(n), uploadPhase(n, "run")}
	return w
}

// buildIngest: nothing resident; 2 connections each loop over upload of a
// freshly seeded program from the middle of the Fig. 15 ramp, four 256-pair
// verification batches on it, and its delete. Each connection deals the
// ramp steps from its own deck in whole rounds, so upload_p50_ms compares
// builds of the same size mix on every seed. The measured phase is one
// slice: the daemon's cost per upload grows over the run as the reuse
// cache retains donor modules (see README.md), so parts of the run are
// not interchangeable samples.
func buildIngest(seed int64, seconds int) *workload {
	rng := rand.New(rand.NewSource(seed))
	// The program list and its order do not depend on --seed, which picks
	// only the verification pairs. The daemon's live heap then grows the
	// same way in every run, and so do its GC cycles: with the order
	// seeded, runs that happened to fit one GC cycle fewer used 20% less
	// daemon CPU.
	order := rand.New(rand.NewSource(ingestProgramSeed))
	ramp := benchgen.ScalabilityConfigs(ingestRampHi + 1)[ingestRampLo:]
	rounds := max((ingestCyclesPerSec*seconds+len(ramp)*ingestConns-1)/(len(ramp)*ingestConns), 1)
	w := &workload{conns: ingestConns, slices: 1}
	ids := 0
	cycles := func(perConn int, tag string) phase {
		p := phase{name: tag, conns: make([][]op, ingestConns)}
		for c := range p.conns {
			steps := &deck{rng: order, n: len(ramp)}
			var ops []op
			for k := 0; k < perConn; k++ {
				step := steps.next()
				cfg := ramp[step]
				cfg.Name = fmt.Sprintf("ing-%s-%d-%d", tag, c, k)
				// The program seed depends on the connection, round and
				// step, not on --seed: every run uploads the same set of
				// distinct programs, in its own order.
				cfg.Seed = ingestProgramSeed + int64(c)<<32 + int64(k/len(ramp))<<16 + int64(step)
				if tag != "run" {
					cfg.Seed = -cfg.Seed // warm-up programs are not in the set
				}
				m := benchgen.Generate(cfg)
				pairs := namedPairs(m)
				ops = append(ops, op{id: ids, kind: opUpload, module: cfg.Name, upload: newUpload(m)})
				ids++
				for q := 0; q < ingestQueries; q++ {
					ps := make([]service.Pair, ingestBatch)
					for i := range ps {
						ps[i] = pairs[rng.Intn(len(pairs))]
					}
					ops = append(ops, op{id: ids, kind: opQuery, module: cfg.Name, batch: marshalBatch(cfg.Name, ps)})
					ids++
				}
				ops = append(ops, op{id: ids, kind: opDelete, module: cfg.Name})
				ids++
			}
			p.conns[c] = ops
		}
		return p
	}
	w.warmup = []phase{cycles(1, "warm")}
	w.measured = []phase{cycles(rounds*len(ramp), "run")}
	return w
}
