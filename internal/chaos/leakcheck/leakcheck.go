// Package leakcheck is the shared leak-assertion helper behind the
// service, jobs, client and sim leak tests (and the soak harness's
// final gate). It captures a baseline of the two cheap global leak
// signals — runtime goroutine count and engine.LeasedWorkspaces() —
// and later asserts both have returned to it, polling with a deadline
// because goroutine teardown (HTTP keep-alive reapers, canceled
// handlers) is asynchronous.
package leakcheck

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
)

// Baseline is a snapshot of the leak counters.
type Baseline struct {
	Goroutines int
	Leased     int64
}

// Snapshot settles the runtime (two consecutive identical goroutine
// counts, bounded wait) and captures the baseline. Take it after any
// long-lived infrastructure (servers, pools) is up, so only work
// started afterwards is charged against it.
func Snapshot() Baseline {
	g := settle(runtime.NumGoroutine(), 500*time.Millisecond)
	return Baseline{Goroutines: g, Leased: engine.LeasedWorkspaces()}
}

// settle polls the goroutine count until two consecutive samples at or
// below prev match, or timeout; returns the last sample.
func settle(prev int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		g := runtime.NumGoroutine()
		if g == prev {
			return g
		}
		prev = g
	}
	return prev
}

// Check asserts the counters are back at the baseline within 10s,
// failing t with a full goroutine dump otherwise.
func (b Baseline) Check(t testing.TB) {
	t.Helper()
	if err := b.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// CheckHTTP is Check for tests that drove traffic through
// http.DefaultClient (see WaitHTTP).
func (b Baseline) CheckHTTP(t testing.TB) {
	t.Helper()
	if err := b.WaitHTTP(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// WaitHTTP is Wait for a process that drove traffic over HTTP:
// keep-alive connections pin conn goroutines on both ends of the wire,
// so the idle pools of the default transport and of every extra
// transport are torn down inside the wait loop, once a second (an
// in-flight request can repopulate them after a teardown).
func (b Baseline) WaitHTTP(timeout time.Duration, extra ...*http.Transport) error {
	deadline := time.Now().Add(timeout)
	for {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		for _, tr := range extra {
			tr.CloseIdleConnections()
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return b.Wait(0)
		}
		if b.Wait(min(remaining, time.Second)) == nil {
			return nil
		}
	}
}

// Wait polls until goroutines are at or below the baseline and leased
// workspaces match it, or returns a diagnostic error (including a full
// goroutine dump) after timeout. The non-testing form exists for the
// soak harness, which reports violations instead of failing a test.
func (b Baseline) Wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		g := runtime.NumGoroutine()
		l := engine.LeasedWorkspaces()
		if g <= b.Goroutines && l == b.Leased {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf(
				"leakcheck: goroutines %d (baseline %d), leased workspaces %d (baseline %d)\n\n%s",
				g, b.Goroutines, l, b.Leased, Dump())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Dump returns a full all-goroutine stack dump.
func Dump() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
