package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one atlasd process the benchmark started.
type server struct {
	name    string
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan struct{} // closed once Wait has returned
	started time.Time
	ready   float64 // launch to first /readyz 200, seconds
}

// procs tracks every live child so that any exit path stops them.
var procs struct {
	sync.Mutex
	live map[*server]struct{}
}

// freeAddr reserves a loopback port long enough to learn its number.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches atlasd with args plus -addr, logging to
// logDir/name.log. It does not wait for readiness.
func startServer(atlasd, logDir, name string, args []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append(append([]string(nil), args...), "-addr", addr)
	cmd := exec.Command(atlasd, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A server outlives nothing: should this process die without stopping
	// it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{name: name, cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*server]struct{})
	}
	procs.live[s] = struct{}{}
	procs.Unlock()
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant: the benchmark stops its servers itself
		logf.Close()
		procs.Lock()
		delete(procs.live, s)
		procs.Unlock()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200, recording the launch to
// ready time.
func (s *server) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("%s exited before ready: %s", s.name, s.tail())
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				s.ready = since(s.started)
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 60s: %s", s.name, s.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM (or SIGKILL when kill is set) and waits for the
// process to exit, escalating to SIGKILL after 10 seconds.
func (s *server) stop(kill bool) {
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	s.cmd.Process.Signal(sig) //nolint:errcheck // already exited is fine
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-s.done
	}
}

// stopAll kills every child still running and waits for each to exit.
func stopAll() {
	procs.Lock()
	live := make([]*server, 0, len(procs.live))
	for s := range procs.live {
		live = append(live, s)
	}
	procs.Unlock()
	for _, s := range live {
		s.stop(true)
	}
}

// tail returns the end of the server's log, for error messages.
func (s *server) tail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// procSample is one reading of a process's CPU and memory counters.
type procSample struct {
	cpu float64 // user+sys seconds
	hwm int64   // VmHWM (peak resident set), KiB
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// sample reads /proc/<pid>/stat and /proc/<pid>/status.
func sample(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rp := bytes.LastIndexByte(stat, ')')
	if rp < 0 {
		return procSample{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[rp+1:]))
	if len(f) < 13 {
		return procSample{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procSample{}, errors.New("malformed /proc stat times")
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	ps := procSample{cpu: float64(ut+st) / clockTicks}
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if k == "VmHWM" {
			ps.hwm = parseKiB(v)
		}
	}
	return ps, nil
}

func parseKiB(v string) int64 {
	n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
	return n
}

// sampleAll sums the counters of several servers.
func sampleAll(ss []*server) (procSample, error) {
	var sum procSample
	for _, s := range ss {
		p, err := sample(s.cmd.Process.Pid)
		if err != nil {
			return procSample{}, fmt.Errorf("%s: %w", s.name, err)
		}
		sum.cpu += p.cpu
		sum.hwm += p.hwm
	}
	return sum, nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
}
