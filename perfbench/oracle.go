package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/service"
)

// computeOracle fills every batch's verdicts with the unmemoized chain walk:
// each module source is parsed and verified the way the daemon does, and
// its scevaa, basicaa, rbaa and andersen members are asked pair by pair
// through an alias.Manager with no memo and no compiled index. Modules are
// spread over GOMAXPROCS workers; each chain is dropped once its batches
// are answered.
func computeOracle(w *workload) error {
	sources := map[string][]byte{}
	for _, r := range w.resident {
		sources[r.name] = r.up.src
	}
	byModule := map[string][]*batch{}
	var order []string
	seen := map[*batch]bool{}
	for _, p := range append(append([]phase(nil), w.warmup...), w.measured...) {
		for _, ops := range p.conns {
			for _, o := range ops {
				if o.kind == opUpload {
					sources[o.module] = o.upload.src
				}
				if o.kind != opQuery || seen[o.batch] {
					continue
				}
				seen[o.batch] = true
				if _, ok := byModule[o.module]; !ok {
					order = append(order, o.module)
				}
				byModule[o.module] = append(byModule[o.module], o.batch)
			}
		}
	}
	jobs := make(chan string)
	errs := make(chan error, len(order))
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				src, ok := sources[name]
				if !ok {
					errs <- fmt.Errorf("oracle: queries name module %q, which the workload never uploads", name)
					continue
				}
				if err := answer(src, byModule[name]); err != nil {
					errs <- fmt.Errorf("oracle: module %s: %w", name, err)
				}
			}
		}()
	}
	for _, name := range order {
		jobs <- name
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs // nil when the channel is empty
}

// answer builds one module's reference chain and records its verdicts on
// each of the module's batches.
func answer(src []byte, batches []*batch) error {
	m, err := ir.Parse(string(src))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if err := ir.Verify(m); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	mg := service.NewChainOpts(m, alias.ManagerOptions{CacheLimit: -1})
	values := map[string]map[string]*ir.Value{}
	for _, f := range m.Funcs {
		vals := map[string]*ir.Value{}
		for _, v := range f.Values() {
			vals[v.Name] = v
		}
		values[f.Name] = vals
	}
	for _, b := range batches {
		b.noAlias = make([]bool, len(b.pairs))
		b.wantNoAlias = 0
		for i, p := range b.pairs {
			a, c := values[p.Func][p.A], values[p.Func][p.B]
			if a == nil || c == nil {
				return fmt.Errorf("pair %d (%s: %s, %s) names an unknown value", i, p.Func, p.A, p.B)
			}
			if mg.Evaluate(a, c).Result == alias.NoAlias {
				b.noAlias[i] = true
				b.wantNoAlias++
			}
		}
	}
	return nil
}

var (
	resultKey   = []byte(`"result":"`)
	noAliasKey  = []byte(`"noalias":`)
	noAliasVal  = []byte(`no-alias"`)
	mayAliasVal = []byte(`may-alias"`)
)

// checkQuery compares a /v1/query response with the oracle: the status,
// each pair's result field in request order, and the batch's noalias
// count. It scans for the two fields instead of decoding the whole body,
// so checking stays a small share of the client's time; provers and
// resolved are not compared, because the index and the chain may
// attribute a no-alias pair to different members.
func checkQuery(status int, body []byte, b *batch) error {
	if status != http.StatusOK {
		return fmt.Errorf("query %s: status %d: %s", b.module, status, clip(body))
	}
	rest := body
	for i := range b.pairs {
		k := bytes.Index(rest, resultKey)
		if k < 0 {
			return fmt.Errorf("query %s: %d results for %d pairs", b.module, i, len(b.pairs))
		}
		rest = rest[k+len(resultKey):]
		var got bool
		switch {
		case bytes.HasPrefix(rest, noAliasVal):
			got = true
		case bytes.HasPrefix(rest, mayAliasVal):
		default:
			return fmt.Errorf("query %s: pair %d: unreadable result", b.module, i)
		}
		if got != b.noAlias[i] {
			return fmt.Errorf("query %s: pair %d (%s: %s, %s): no-alias=%v, oracle says %v",
				b.module, i, b.pairs[i].Func, b.pairs[i].A, b.pairs[i].B, got, b.noAlias[i])
		}
	}
	if bytes.Contains(rest, resultKey) {
		return fmt.Errorf("query %s: more results than the %d pairs sent", b.module, len(b.pairs))
	}
	k := bytes.Index(rest, noAliasKey)
	if k < 0 {
		return fmt.Errorf("query %s: response has no noalias count", b.module)
	}
	num := rest[k+len(noAliasKey):]
	end := bytes.IndexAny(num, ",}")
	if end < 0 {
		return fmt.Errorf("query %s: unterminated noalias count", b.module)
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(num[:end])))
	if err != nil {
		return fmt.Errorf("query %s: noalias count: %w", b.module, err)
	}
	if n != b.wantNoAlias {
		return fmt.Errorf("query %s: noalias=%d, oracle says %d", b.module, n, b.wantNoAlias)
	}
	return nil
}

// checkUpload requires a 201 whose reported instruction count equals the
// generated module's.
func checkUpload(status int, body []byte, name string, up *upload) error {
	if status != http.StatusCreated {
		return fmt.Errorf("upload %s: status %d: %s", name, status, clip(body))
	}
	var info struct {
		Status string `json:"status"`
		Instrs int    `json:"instrs"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("upload %s: decoding reply: %w", name, err)
	}
	if info.Status != "ready" || info.Instrs != up.instrs {
		return fmt.Errorf("upload %s: status %q with %d instrs, generated module has %d",
			name, info.Status, info.Instrs, up.instrs)
	}
	return nil
}

func checkDelete(status int, body []byte, name string) error {
	if status != http.StatusNoContent {
		return fmt.Errorf("delete %s: status %d: %s", name, status, clip(body))
	}
	return nil
}

// check dispatches on the op kind.
func check(o *op, status int, body []byte) error {
	switch o.kind {
	case opQuery:
		return checkQuery(status, body, o.batch)
	case opUpload:
		return checkUpload(status, body, o.module, o.upload)
	}
	return checkDelete(status, body, o.module)
}

func clip(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
