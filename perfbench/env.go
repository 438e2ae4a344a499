package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// environment is the provenance block of every report: what the numbers
// were measured on. None of it is a metric.
type environment struct {
	CPUModel         string `json:"cpu_model"`
	NProc            int    `json:"nproc"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	// Revision is the git commit the benchmark binary was built from, when
	// the build saw one; SourceSHA256 hashes the Go sources and go.mod
	// files of the tree either way, so a checkout without git history is
	// still identified.
	Revision     string `json:"git_sha,omitempty"`
	Modified     bool   `json:"git_modified,omitempty"` // uncommitted changes at build time
	SourceSHA256 string `json:"source_sha256"`
}

func collectEnv(root string) environment {
	e := environment{
		NProc:            runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		SourceSHA256:     sourceHash(root),
	}
	// The daemon is spawned with the benchmark's environment, so it picks
	// the same GOMAXPROCS: an explicit GOMAXPROCS variable, else the CPU
	// count.
	e.DaemonGOMAXPROCS = e.NProc
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		e.DaemonGOMAXPROCS = n
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// sourceHash hashes every .go, go.mod and go.sum file under root, skipping
// dot-directories (build output lives there), in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// hostSample is one reading of the host's CPU counters and load.
type hostSample struct {
	at      time.Time
	total   uint64 // all jiffies of the aggregate cpu line
	steal   uint64
	loadavg float64 // 1-minute load average
}

func readHost() (hostSample, bool) {
	s := hostSample{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s, false
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	if la, err := os.ReadFile("/proc/loadavg"); err == nil {
		first, _, _ := strings.Cut(string(la), " ")
		s.loadavg, _ = strconv.ParseFloat(first, 64)
	}
	return s, true
}

// hostSampler reads /proc/stat and /proc/loadavg every interval until
// stopped, so a noisy run can be explained by steal or competing load.
type hostSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []hostSample
}

func startHostSampler(every time.Duration) *hostSampler {
	h := &hostSampler{stopc: make(chan struct{})}
	h.take()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.take()
			}
		}
	}()
	return h
}

func (h *hostSampler) take() {
	if s, ok := readHost(); ok {
		h.mu.Lock()
		h.samples = append(h.samples, s)
		h.mu.Unlock()
	}
}

// hostLoad summarises the samples between two instants.
type hostLoad struct {
	StealPct    float64 `json:"steal_pct"`
	MaxStealPct float64 `json:"max_interval_steal_pct"`
	LoadavgMin  float64 `json:"loadavg1_min"`
	LoadavgMax  float64 `json:"loadavg1_max"`
	Samples     int     `json:"samples"`
}

// stop ends sampling and returns the whole run's summary.
func (h *hostSampler) stop() hostLoad {
	close(h.stopc)
	h.wg.Wait()
	h.take()
	return h.between(time.Time{}, time.Now().Add(time.Second))
}

// between summarises the samples taken in [from, to].
func (h *hostSampler) between(from, to time.Time) hostLoad {
	h.mu.Lock()
	defer h.mu.Unlock()
	var in []hostSample
	for _, s := range h.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s)
		}
	}
	out := hostLoad{Samples: len(in)}
	if len(in) == 0 {
		return out
	}
	out.LoadavgMin, out.LoadavgMax = in[0].loadavg, in[0].loadavg
	for i, s := range in {
		out.LoadavgMin = min(out.LoadavgMin, s.loadavg)
		out.LoadavgMax = max(out.LoadavgMax, s.loadavg)
		if i > 0 {
			out.MaxStealPct = max(out.MaxStealPct, stealPct(in[i-1], s))
		}
	}
	out.StealPct = stealPct(in[0], in[len(in)-1])
	return out
}

func stealPct(a, b hostSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
