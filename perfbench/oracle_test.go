package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/service"
	"repro/internal/store"
)

// tinyWorkload uploads one small Fig. 13 program, queries 64 of its pairs
// and deletes it.
func tinyWorkload(t *testing.T) *workload {
	t.Helper()
	m := benchgen.Generate(benchgen.Fig13Configs()[9]) // fixoutput, the smallest
	pairs := namedPairs(m)[:64]
	b := marshalBatch(m.Name, pairs)
	w := &workload{conns: 1, measured: []phase{{name: "run", conns: [][]op{{
		{id: 0, kind: opUpload, module: m.Name, upload: newUpload(m)},
		{id: 1, kind: opQuery, module: m.Name, batch: b},
		{id: 2, kind: opDelete, module: m.Name},
	}}}}}
	if err := computeOracle(w); err != nil {
		t.Fatal(err)
	}
	if b.wantNoAlias == 0 || b.wantNoAlias == len(pairs) {
		t.Fatalf("batch has %d no-alias pairs of %d; the flip test needs both verdicts", b.wantNoAlias, len(pairs))
	}
	return w
}

// tamper serves the service through a rewrite of each reply body.
func tamper(t *testing.T, rewrite func(path string, body []byte) []byte) *httptest.Server {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(daemonConfig(st))
	t.Cleanup(svc.Close)
	h := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rewrite(r.URL.Path, rec.Body.Bytes()))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// replayTiny runs the tiny workload against a tampering server and returns
// the run's failure count and ok_ratio.
func replayTiny(t *testing.T, rewrite func(path string, body []byte) []byte) (failed int, okRatio float64, failures []string) {
	t.Helper()
	w := tinyWorkload(t)
	srv := tamper(t, rewrite)
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	res := runPhase(hc, srv.URL, w.measured[0], nil)
	attempted, failed := tally([]phaseResult{res})
	un := &untracedRun{setups: []float64{1}, phases: []phaseResult{res}}
	m, _ := endToEnd(un, attempted, failed, false)
	return failed, m["ok_ratio"].Value, res.failures
}

// wantOneFailure requires exactly one failed op, ok_ratio below 1 and a
// failure message containing want.
func wantOneFailure(t *testing.T, failed int, ok float64, failures []string, want string) {
	t.Helper()
	if failed != 1 || ok >= 1 {
		t.Fatalf("%d failed, ok_ratio %v; want 1 failure and ok_ratio < 1", failed, ok)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], want) {
		t.Fatalf("failures %q; want one mentioning %q", failures, want)
	}
}

func identity(_ string, b []byte) []byte { return b }

// swapAt returns a copy of b with the occurrence of old at i replaced.
func swapAt(b []byte, i int, old, new []byte) []byte {
	return append(append(append([]byte(nil), b[:i]...), new...), b[i+len(old):]...)
}

func TestOracleAcceptsHonestDaemon(t *testing.T) {
	failed, ok, _ := replayTiny(t, identity)
	if failed != 0 || ok != 1 {
		t.Fatalf("honest daemon: %d failed, ok_ratio %v; want 0 and 1", failed, ok)
	}
}

// TestOracleRejectsFlippedVerdict swaps one no-alias and one may-alias
// result, so the batch's noalias count still matches and only the per-pair
// comparison can catch it.
func TestOracleRejectsFlippedVerdict(t *testing.T) {
	failed, ok, failures := replayTiny(t, func(path string, b []byte) []byte {
		if path != "/v1/query" {
			return b
		}
		no, may := []byte(`"result":"no-alias"`), []byte(`"result":"may-alias"`)
		i, j := bytes.Index(b, no), bytes.Index(b, may)
		// Rewrite the later occurrence first so the earlier offset holds.
		if i < j {
			return swapAt(swapAt(b, j, may, no), i, no, may)
		}
		return swapAt(swapAt(b, i, no, may), j, may, no)
	})
	wantOneFailure(t, failed, ok, failures, "oracle says")
}

func TestOracleRejectsWrongNoAliasCount(t *testing.T) {
	re := regexp.MustCompile(`"noalias":(\d+)`)
	failed, ok, failures := replayTiny(t, func(path string, b []byte) []byte {
		if path != "/v1/query" {
			return b
		}
		return re.ReplaceAllFunc(b, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(re.FindSubmatch(m)[1]))
			return []byte(`"noalias":` + strconv.Itoa(n+1))
		})
	})
	wantOneFailure(t, failed, ok, failures, "noalias=")
}

func TestOracleRejectsWrongInstructionCount(t *testing.T) {
	re := regexp.MustCompile(`"instrs":(\d+)`)
	failed, ok, failures := replayTiny(t, func(path string, b []byte) []byte {
		if path != "/v1/modules" {
			return b
		}
		return re.ReplaceAllFunc(b, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(re.FindSubmatch(m)[1]))
			return []byte(`"instrs":` + strconv.Itoa(n-1))
		})
	})
	wantOneFailure(t, failed, ok, failures, "generated module has")
}

// TestCheckQueryMessages pins which comparison rejects each corruption.
func TestCheckQueryMessages(t *testing.T) {
	b := &batch{module: "m", pairs: make([]service.Pair, 2), noAlias: []bool{true, false}, wantNoAlias: 1}
	for _, tc := range []struct {
		name, body string
		want       string
	}{
		{"ok", `{"module":"m","results":[{"result":"no-alias","resolved":"basicaa"},{"result":"may-alias"}],"noalias":1}`, ""},
		{"flip", `{"module":"m","results":[{"result":"may-alias"},{"result":"no-alias"}],"noalias":1}`, "pair 0"},
		{"count", `{"module":"m","results":[{"result":"no-alias"},{"result":"may-alias"}],"noalias":2}`, "noalias=2"},
		{"short", `{"module":"m","results":[{"result":"no-alias"}],"noalias":1}`, "1 results for 2 pairs"},
		{"long", `{"module":"m","results":[{"result":"no-alias"},{"result":"may-alias"},{"result":"may-alias"}],"noalias":1}`, "more results"},
	} {
		err := checkQuery(http.StatusOK, []byte(tc.body), b)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := checkQuery(http.StatusServiceUnavailable, []byte(`{}`), b); err == nil {
		t.Error("a 503 passed the check")
	}
}
