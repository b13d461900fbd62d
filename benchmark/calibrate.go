package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a shared 2-vCPU guest, co-tenants on the
// sibling hyperthreads and the memory bus stretch the CPU time of the
// same work by 20–30% from one minute to the next, while steal stays
// near zero. The benchmark therefore times a fixed kernel of its own
// between ops and reports program CPU scaled to a reference host speed:
//
//	reported = measured × calibrationRef / mean(kernel CPU per slice)
//
// (the mean over the middle 80% of the slices, so a slice cut by an
// interrupt does not move it).
//
// The kernel is benchmark code, identical on every commit, so the
// scale factor depends on the host alone. The raw values are printed
// beside the scaled ones.

// calibrationRef is the kernel's CPU per slice at the reference speed:
// its typical value between the ops of a timed phase on a quiet 2-vCPU
// Xeon guest, so reported figures stay close to measured ones there.
const calibrationRef = 1500 * time.Microsecond

// calibrator runs the kernel, a miniature of what the program spends
// its time on: a JSON round trip of a plan-shaped document (reflection,
// float formatting and parsing, allocation) and a dependent walk over a
// 4 MiB cyclic permutation (memory latency, as in max-flow and GC
// marking). On this host both swing by 30–70% within seconds, in step
// with each other.
type calibrator struct {
	chain []uint32
	pos   uint32
	doc   calDoc
}

// calDoc is the kernel's plan-shaped document.
type calDoc struct {
	V     int       `json:"v"`
	Word  string    `json:"word"`
	Edges []calEdge `json:"edges"`
}

type calEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Rate float64 `json:"rate"`
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20 // 4 MiB of uint32
	chain := make([]uint32, n)
	for i := range chain {
		chain[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- { // Sattolo's shuffle: one cycle through every slot
		j := rng.Intn(i)
		chain[i], chain[j] = chain[j], chain[i]
	}
	doc := calDoc{V: 1, Word: strings.Repeat("og", 100)}
	for i := 0; i < 200; i++ {
		doc.Edges = append(doc.Edges, calEdge{From: i / 2, To: i + 1, Rate: 100 * rng.Float64()})
	}
	return &calibrator{chain: chain, doc: doc}
}

// sample runs one kernel slice on a locked thread and returns the
// thread's CPU time for it.
func (c *calibrator) sample() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	p := c.pos
	for i := 0; i < 3000; i++ {
		p = c.chain[p]
	}
	c.pos = p
	for i := 0; i < 2; i++ {
		data, err := json.MarshalIndent(c.doc, "", "  ")
		if err != nil {
			panic(err) // a fixed, valid document
		}
		var back calDoc
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
	}
	return threadCPU() - t0
}

// samples runs n slices and appends their CPU times to into.
func (c *calibrator) samples(n int, into []time.Duration) []time.Duration {
	for i := 0; i < n; i++ {
		into = append(into, c.sample())
	}
	return into
}

// scale is calibrationRef over the trimmed mean slice time (1 without
// samples): the factor that brings CPU measured now to the reference
// speed.
func scale(samples []time.Duration) float64 {
	m := trimmedMean(samples)
	if m <= 0 {
		return 1
	}
	return float64(calibrationRef) / float64(m)
}

// trimmedMean is the mean of the middle 80% of ds (0 for none).
func trimmedMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// threadCPU is the calling thread's CPU time from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which brings the running
// thread's account up to date (getrusage and schedstat lag by up to a
// scheduler tick).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
