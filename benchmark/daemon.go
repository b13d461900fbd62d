package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/service"
)

// daemon is one `bmpcast serve` process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the stdout drain has finished
}

// startDaemon spawns `bin serve` on a free loopback port with the extra
// flags and returns once it has printed its address. The child is
// killed if this process dies first.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr := strings.Fields(line[i+len("serving on "):])[0]
				select {
				case found <- addr:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case d.url = <-found:
		return d, nil
	case <-d.done:
		err := cmd.Wait()
		return nil, fmt.Errorf("daemon exited before serving: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("daemon printed no address within 60s")
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after ten
// seconds) and for its output to drain.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
	<-d.done
}

// cpu returns the daemon's CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// procCPU sums user+system CPU over a process's threads from
// /proc/<pid>/task/*/schedstat (nanosecond resolution; the tick-based
// /proc/<pid>/stat would quantise a 0.1 s set-up to 10 ms steps).
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // the thread exited between the listing and the read
			}
			return 0, err
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of task %s: %w", t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU is this process's user+system CPU time, exited threads
// included.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM from /proc/<pid>/status, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o644) }

// cpuStat is the machine-wide jiffy counters of /proc/stat.
type cpuStat struct{ steal, total uint64 }

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}, err
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st, nil
}

// stealPct is the share of CPU time the host took between two samples.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// tap is the client's transport: it remembers the status and cache
// label of the last response and counts round trips, so failures are
// recorded with their code and tiers with their label.
type tap struct {
	base http.RoundTripper

	mu     sync.Mutex
	calls  int
	status int    // last response status; 0 after a transport error
	label  string // last X-Bmpcast-Cache header
}

func newTap() *tap {
	n := runtime.NumCPU()
	return &tap{base: &http.Transport{ // no Proxy: loopback only
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	t.status, t.label = 0, ""
	if err == nil {
		t.status = resp.StatusCode
		t.label = resp.Header.Get("X-Bmpcast-Cache")
	}
	return resp, err
}

// last returns the status and label of the latest response.
func (t *tap) last() (int, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.label
}

// roundTrips counts every HTTP round trip made through the tap.
func (t *tap) roundTrips() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}

// conn is the benchmark's single SDK client for one daemon: retries
// and hedging off, at most NumCPU connections.
type conn struct {
	tap  *tap
	http *http.Client
	sdk  *client.Client
	base string
}

func newConn(t *tap, base string) (*conn, error) {
	h := &http.Client{Transport: t}
	sdk, err := client.NewFromConfig(client.Config{
		Endpoints:  []string{base},
		Retry:      client.Retry{Retries: -1},
		HTTPClient: h,
	})
	if err != nil {
		return nil, err
	}
	return &conn{tap: t, http: h, sdk: sdk, base: base}, nil
}

// waitHealthy polls /healthz until it answers, for at most a minute.
func (c *conn) waitHealthy() error {
	deadline := time.Now().Add(time.Minute)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := c.sdk.Healthz(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after a minute: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get fetches a path and returns the body of a 200 answer.
func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return data, nil
}

// metrics scrapes /metrics into name → value (labelled series keep
// their labels in the name).
func (c *conn) metrics() (map[string]float64, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[f[0]] = v
	}
	return out, nil
}

// drained waits, for at most five seconds, until /debug/leaks reports
// no request in flight besides the probe, no leased workspace, no
// running job and no open session, and returns the last report.
func (c *conn) drained() (service.LeaksDoc, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := c.get("/debug/leaks")
		if err != nil {
			return service.LeaksDoc{}, err
		}
		var doc service.LeaksDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return service.LeaksDoc{}, fmt.Errorf("decoding /debug/leaks: %w", err)
		}
		if doc.Inflight == 0 && doc.LeasedWorkspaces == 0 && doc.JobsRunning == 0 && doc.SessionsOpen == 0 {
			return doc, nil
		}
		if time.Now().After(deadline) {
			return doc, failed("drain", "after the run: %d in flight, %d leased workspaces, %d running jobs, %d open sessions",
				doc.Inflight, doc.LeasedWorkspaces, doc.JobsRunning, doc.SessionsOpen)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
