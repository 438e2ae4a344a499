package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one spawned aliasd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startDaemon spawns bin with the benchmark's fixed command line — defaults
// plus a fresh -data-dir and -log-level error — and waits until it has
// written its listen address. dir must not exist yet.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portfile := filepath.Join(dir, "addr")
	stderr, err := os.Create(filepath.Join(dir, "aliasd.log"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-portfile", portfile,
		"-data-dir", filepath.Join(dir, "data"),
		"-log-level", "error")
	cmd.Stderr = stderr
	// If the benchmark itself is killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(portfile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("aliasd exited before listening: %v (see %s)", err, stderr.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("aliasd did not write its address within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the graceful exit, and kills the process
// if it has not exited within 10s. It returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the Wait below reports the outcome
		d.done <- <-d.done
	}
}

// cpu reads the daemon's user+sys CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hwmMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	return procStatusKB(d.cmd.Process.Pid, "VmHWM:")
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status, in MiB.
func procStatusKB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
