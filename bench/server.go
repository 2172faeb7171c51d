package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one embedserver process booted with production defaults.
type serverProc struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	setup time.Duration // exec to the first 200 on /healthz
	done  chan struct{} // closed once the process has been reaped
	stop1 sync.Once
	err   error // Wait's result, valid after done is closed
}

// listenLine is the stdout line embedserver prints once its listener is bound.
const listenLine = "embedserver: listening on "

// addrWriter is the server's stdout: it hands the listen address to the
// booting goroutine once and discards everything else.
type addrWriter struct {
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if addr, ok := strings.CutPrefix(line, listenLine); ok {
			w.sent = true
			w.addr <- strings.TrimSpace(addr)
			return len(p), nil
		}
	}
}

// startServer execs bin on a free loopback port (plus -data-dir when
// dataDir is set) and returns once /healthz answers 200.
func startServer(ctx context.Context, bin, dataDir string) (*serverProc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-no-log"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	addr := make(chan string, 1)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &addrWriter{addr: addr}
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start embedserver: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-p.done:
		return nil, fmt.Errorf("embedserver exited before listening: %v", p.err)
	case <-deadline.C:
		p.stop()
		return nil, errors.New("embedserver did not print its listen address within 30s")
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(t0)
				return p, nil
			}
		}
		select {
		case <-deadline.C:
			p.stop()
			return nil, fmt.Errorf("embedserver at %s not healthy within 30s (last error %v)", p.base, err)
		case <-p.done:
			return nil, fmt.Errorf("embedserver exited while booting: %v", p.err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (the server drains and exits), escalates to SIGKILL
// after 20 s, and returns once the process has been reaped.  Safe to call
// more than once.
func (p *serverProc) stop() {
	p.stop1.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// scrape fetches and parses the server's /metrics exposition.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// parseProm parses Prometheus text exposition into series → value, the
// series keyed by its full name including the rendered label set, e.g.
// embedserver_request_seconds_sum{endpoint="plan"}.
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// promDelta returns after − before for every series in after (a series
// missing from before counts from zero).
func promDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatTicks(string(b))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatTicks sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line.  The command name (field 2) may contain spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return u + s, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in MB
// (10^6 bytes).
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
