package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host reference measures how fast the host runs right now, so that
// end-to-end times can be reported at a fixed host speed.
//
// The host's speed drifts by a third within minutes, with no steal to show
// for it: on a 2-vCPU VM one steady run took 52 s and a run of the same
// list a few minutes later 37 s, and the daemon's CPU time per slice moved
// with the wall time. A fixed kernel that does the daemon's kind of work
// (JSON decode, map building, sorting, JSON encode) slows down with it:
// across 30 steady runs, each between two samples of the kernel, its rate
// correlated with pairs_per_s at 0.92 and with query_p50_ms at -0.95. The
// kernel is the benchmark's own code on the standard library, so no change
// to the repository moves it.
//
// It runs in a helper process, the benchmark binary started with
// --hostref, so its heap and GC are the same in every run whatever the
// workload keeps in the client's memory. The run asks it for a sample
// between measured slices, while the daemon has no request in flight.

// hostRefIters is the kernel calls one sample makes, spread over
// GOMAXPROCS goroutines: about 80 ms on a 2-vCPU host.
const hostRefIters = 480

// hostRefSettle is the pause before each sample, so that work the daemon
// still does after a slice's last reply (GC, sweeping) is over.
const hostRefSettle = 50 * time.Millisecond

// hostRefNominal is the sample time end-to-end times are scaled to: a time
// t measured while a sample took s is reported as t × hostRefNominal / s.
// It is a fixed constant, near a sample's time on a quiet 2-vCPU host.
const hostRefNominal = 80 * time.Millisecond

type refPair struct {
	Func string `json:"func"`
	A    string `json:"a"`
	B    string `json:"b"`
}

type refRequest struct {
	Module string    `json:"module"`
	Pairs  []refPair `json:"pairs"`
}

// refBody is a fixed 256-pair request, shaped like a query body.
func refBody() []byte {
	r := refRequest{Module: "hostref"}
	for i := 0; i < 256; i++ {
		r.Pairs = append(r.Pairs, refPair{fmt.Sprintf("func%d", i%17), fmt.Sprintf("ptr%d", i*7), fmt.Sprintf("ptr%d", i*13)})
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// refKernel decodes the body, indexes its pairs, sorts the keys and
// encodes them.
func refKernel(body []byte) int {
	var r refRequest
	if err := json.Unmarshal(body, &r); err != nil {
		panic(err)
	}
	m := make(map[string]int, len(r.Pairs))
	for i, p := range r.Pairs {
		m[p.Func+"|"+p.A+"|"+p.B] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out, err := json.Marshal(keys)
	if err != nil {
		panic(err)
	}
	return len(out)
}

// refSample runs hostRefIters kernel calls over GOMAXPROCS goroutines and
// returns the time they took.
func refSample(body []byte) time.Duration {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		n := hostRefIters / workers
		if g < hostRefIters%workers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				refKernel(body)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// serveHostRef is the helper process: for every line on stdin it takes one
// sample and writes its duration in ns; it returns at end of input.
func serveHostRef(in io.Reader, out io.Writer) error {
	body := refBody()
	refSample(body) // warm-up
	sc := bufio.NewScanner(in)
	w := bufio.NewWriter(out)
	for sc.Scan() {
		fmt.Fprintln(w, int64(refSample(body)))
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// hostRef is the client's handle on the helper process.
type hostRef struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startHostRef() (*hostRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--hostref")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the host reference: %w", err)
	}
	return &hostRef{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample asks the helper for one sample.
func (h *hostRef) sample() (time.Duration, error) {
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	line, err := h.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("host reference: bad sample %q", line)
	}
	return time.Duration(ns), nil
}

// stop ends the helper and waits for it; one that does not end within
// five seconds is killed.
func (h *hostRef) stop() {
	h.in.Close()
	done := make(chan struct{})
	go func() {
		h.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		h.cmd.Process.Kill()
		<-done
	}
}
