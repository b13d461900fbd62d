package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planstore"
	"repro/internal/wire"
)

const (
	// A run sets the program up setupBefore times before the timed phase
	// (the last set-up serves the phase) and setupAfter times after it,
	// so the set-ups sample the host at two moments; setup_s is the
	// median of all of them.
	setupBefore = 2
	setupAfter  = 3
	// Warm-up slices (cold, sweep): ops sent after /healthz and counted
	// in setup_s. They pay the lazy set-up: workspace pool and heap
	// growth.
	coldWarmup  = 64
	sweepWarmup = 16
	// refOps bounds the untraced reference pass of a traced run, which
	// measures the tracing overhead.
	refOps = 200
)

// bench is one run: its parameters, and what the runner measured.
type bench struct {
	workload string
	seed     int64
	traced   bool
	bin      string
	work     string // persistent benchmark directory (label records, span dumps)
	dir      string // this run's scratch directory, removed at exit
	ops      int    // length of the op list
	rec      *Recorder

	attempted int
	answered  int // ops the program answered (any status); the CPU-per-op divisor
	failed    int
	codes     map[string]int // failure code → ops
	checked   int
	labels    map[string]int
	lat       []time.Duration // wall latency of every answered op
	setups    []float64       // set-up CPU of each set-up, seconds
	phase     *phase          // the timed phase, for the summary

	// Host-speed calibration (see calibrate.go): kernel samples taken
	// between set-ups and between timed ops, while the program is idle.
	cal      *calibrator
	setupCal []time.Duration
	phaseCal []time.Duration

	e2e   map[string]metric
	layer map[string]metric
}

// calSetup is the number of calibration slices taken after each set-up.
const calSetup = 20

// calibrate takes one calibration slice after every stride-th timed op,
// about 200 per run.
func (b *bench) calibrate(op int) {
	if op%max(1, b.ops/200) == 0 {
		b.phaseCal = append(b.phaseCal, b.cal.sample())
	}
}

// fail records one failed op under its code.
func (b *bench) fail(code string) {
	b.failed++
	b.codes[code]++
}

// failCode names a failed call: its HTTP status, or "transport" when no
// response arrived.
func failCode(t *tap) string {
	if status, _ := t.last(); status != 0 {
		return strconv.Itoa(status)
	}
	return "transport"
}

// ---------------------------------------------------------------------------
// daemon set-up and the timed phase

// starter returns the serve flags of the i-th daemon start.
type starter func(i int) ([]string, error)

// setup starts the daemon setupBefore times, each time measuring its
// CPU from spawn to the first healthy /healthz plus the warm-up slice,
// and returns the last daemon still running with its client.
func (b *bench) setup(flags starter, warm func(*conn) error) (*daemon, *conn, error) {
	if err := b.moreSetups(flags, warm, 0, setupBefore-1); err != nil {
		return nil, nil, err
	}
	d, c, cpu, err := b.start(flags, setupBefore-1, warm)
	if err != nil {
		return nil, nil, err
	}
	b.noteSetup(cpu)
	return d, c, nil
}

// moreSetups measures n more set-ups, starts first.. first+n−1,
// stopping each daemon.
func (b *bench) moreSetups(flags starter, warm func(*conn) error, first, n int) error {
	for i := first; i < first+n; i++ {
		d, _, cpu, err := b.start(flags, i, warm)
		if err != nil {
			return err
		}
		d.stop()
		b.noteSetup(cpu)
	}
	return nil
}

// noteSetup records one set-up and calibrates right after it.
func (b *bench) noteSetup(cpu time.Duration) {
	b.setups = append(b.setups, cpu.Seconds())
	b.setupCal = b.cal.samples(calSetup, b.setupCal)
}

// start launches one daemon, waits for /healthz, sends the warm-up
// slice and returns the daemon's CPU so far.
func (b *bench) start(flags starter, i int, warm func(*conn) error) (*daemon, *conn, time.Duration, error) {
	args, err := flags(i)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(b.bin, args...)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := newConn(newTap(), d.url)
	if err == nil {
		err = c.waitHealthy()
	}
	if err == nil && warm != nil {
		err = warm(c)
	}
	var cpu time.Duration
	if err == nil {
		cpu, err = d.cpu()
	}
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, c, cpu, nil
}

// phase accounts one timed phase against a daemon.
type phase struct {
	d     *daemon
	c     *conn
	cpu0  time.Duration
	st0   cpuStat
	m0    map[string]float64
	start time.Time

	cpu   time.Duration // daemon CPU over the phase
	steal float64       // host steal, percent
	delta map[string]float64
	rss   float64 // daemon VmHWM, MiB
	wall  time.Duration
}

func beginPhase(d *daemon, c *conn) (*phase, error) {
	p := &phase{d: d, c: c}
	var err error
	if p.m0, err = c.metrics(); err != nil {
		return nil, err
	}
	if p.st0, err = readCPUStat(); err != nil {
		return nil, err
	}
	if p.cpu0, err = d.cpu(); err != nil {
		return nil, err
	}
	p.start = time.Now()
	return p, nil
}

// end closes the phase, then checks that the daemon drained.
func (p *phase) end() error {
	p.wall = time.Since(p.start)
	cpu1, err := p.d.cpu()
	if err != nil {
		return err
	}
	p.cpu = cpu1 - p.cpu0
	st1, err := readCPUStat()
	if err != nil {
		return err
	}
	p.steal = stealPct(p.st0, st1)
	if p.rss, err = p.d.peakRSSMB(); err != nil {
		return err
	}
	m1, err := p.c.metrics()
	if err != nil {
		return err
	}
	p.delta = make(map[string]float64, len(m1))
	for k, v := range m1 {
		p.delta[k] = v - p.m0[k]
	}
	_, err = p.c.drained()
	return err
}

// ---------------------------------------------------------------------------
// /v1/solve workloads: cold and repeat

// solveRun is the outcome of sending a solve op list.
type solveRun struct {
	answers []Answer
	served  []string // served label per op, "error" for a failed op
	lat     []time.Duration
}

// sendSolves sends ops in order and collects their answers. With a
// replayer, each op is replayed right after it returns and its
// replayed tier is tallied against the served label.
func (b *bench) sendSolves(c *conn, ops []*solveOp, r *replayer, tally *ReplayTally, account bool) solveRun {
	out := solveRun{answers: make([]Answer, len(ops)), served: make([]string, len(ops)), lat: make([]time.Duration, len(ops))}
	ctx := context.Background()
	for i, op := range ops {
		root := -1
		if account {
			root = b.rec.Begin(i, -1, "client.op")
		}
		t := time.Now()
		doc, err := c.sdk.SolveRaw(ctx, op.req)
		out.lat[i] = time.Since(t)
		if account {
			b.rec.End(root)
		}
		status, label := c.tap.last()
		if err != nil {
			out.served[i] = "error"
			if account {
				b.fail(failCode(c.tap))
			}
		} else {
			out.answers[i] = Answer{Label: label, Doc: doc}
			out.served[i] = label
		}
		if account {
			b.attempted++
			if status != 0 {
				b.answered++
			}
			if err == nil {
				b.lat = append(b.lat, out.lat[i])
			}
			b.calibrate(i)
		}
		if r != nil {
			replayed := r.solve(i, op.body)
			if tally != nil {
				tally.Note(i, out.served[i], replayed)
			}
		}
	}
	return out
}

// checkSolves checks every answered op in order. firsts maps a body's
// key to the digest of the first answer served for it (seeded with the
// priming answers on repeat) and is updated as answers are checked.
func (b *bench) checkSolves(ops []*solveOp, run solveRun, firsts map[[sha256.Size]byte][sha256.Size]byte) error {
	for i, op := range ops {
		ans := run.answers[i]
		if ans.Doc == nil {
			continue // a failed op: counted, not checked
		}
		exp := *op.exp
		if f, ok := firsts[op.key]; ok {
			exp.First = &f
		}
		if err := Check(&exp, ans); err != nil {
			return opError(i, err)
		}
		if _, ok := firsts[op.key]; !ok {
			firsts[op.key] = sha256.Sum256(ans.Doc)
		}
		b.checked++
	}
	return nil
}

// warmSolves returns a warm-up function that sends ops and checks the
// answers.
func (b *bench) warmSolves(ops []*solveOp) func(*conn) error {
	return func(c *conn) error {
		run := b.sendSolves(c, ops, nil, nil, false)
		for i, ans := range run.answers {
			if ans.Doc == nil {
				continue // a refusal in the warm-up slice is set-up work like any other
			}
			if err := Check(ops[i].exp, ans); err != nil {
				return fmt.Errorf("warm-up slice: %w", opError(i, err))
			}
		}
		return nil
	}
}

func runCold(b *bench) error {
	ops, err := coldOps(rand.New(rand.NewSource(b.seed)), b.ops)
	if err != nil {
		return err
	}
	warm, err := coldOps(rand.New(rand.NewSource(warmupSeed)), coldWarmup)
	if err != nil {
		return err
	}
	if err := expectSolves(append(append([]*solveOp(nil), warm...), ops...)); err != nil {
		return err
	}
	if err := distinct(warm, ops); err != nil {
		return err
	}
	noFlags := func(int) ([]string, error) { return nil, nil }
	return b.runSolves(ops, noFlags, b.warmSolves(warm), warm, nil, nil)
}

// distinct guards cold's definition: no two requests share a body.
func distinct(lists ...[]*solveOp) error {
	seen := make(map[[sha256.Size]byte]bool)
	for _, ops := range lists {
		for _, op := range ops {
			if seen[op.key] {
				return failed("distinct", "two cold requests share a body")
			}
			seen[op.key] = true
		}
	}
	return nil
}

// runSolves is the common body of cold and repeat: set-up, timed phase,
// checks, guards and metrics. warmOps are the warm-up ops the replay
// must also see; openStore opens the replay's own store copy;
// firsts seeds the first-answer digests.
func (b *bench) runSolves(ops []*solveOp, flags starter, warm func(*conn) error, warmOps []*solveOp,
	openStore func() (*planstore.Store, error), firsts map[[sha256.Size]byte][sha256.Size]byte) error {
	d, c, err := b.setup(flags, warm)
	if err != nil {
		return err
	}
	defer d.stop()

	var r *replayer
	var tally ReplayTally
	var openMS float64
	if b.traced {
		var store *planstore.Store
		if openStore != nil {
			t := time.Now()
			if store, err = openStore(); err != nil {
				return err
			}
			openMS = float64(time.Since(t).Microseconds()) / 1000
			defer store.Close()
		}
		var ps engine.PlanStore
		if store != nil {
			ps = store
		}
		if r, err = newReplayer(nil, true, 0, ps); err != nil {
			return err
		}
		for i, op := range warmOps { // the daemon's caches hold the warm-up slice
			r.solve(-1-i, op.body)
		}
		r.rec = b.rec
	}

	p, err := beginPhase(d, c)
	if err != nil {
		return err
	}
	run := b.sendSolves(c, ops, r, &tally, true)
	b.phase = p
	if err := p.end(); err != nil {
		return err
	}
	d.stop()

	if firsts == nil {
		firsts = make(map[[sha256.Size]byte][sha256.Size]byte)
	}
	if err := b.checkSolves(ops, run, firsts); err != nil {
		return err
	}
	b.labels = make(map[string]int)
	for _, l := range run.served {
		b.labels[l]++
	}
	if err := b.tierGuard(p); err != nil {
		return err
	}

	if !b.traced {
		if err := b.moreSetups(flags, warm, setupBefore, setupAfter); err != nil {
			return err
		}
		b.e2e = b.endToEnd(p)
		return nil
	}
	ref, err := b.referenceSolves(ops, flags, warm)
	if err != nil {
		return err
	}
	var sizes []float64
	for _, a := range run.answers {
		if a.Doc != nil {
			sizes = append(sizes, float64(len(a.Doc))/1024)
		}
	}
	b.layer = b.layerMetrics(p, layerInputs{
		mismatches: tally.Mismatches, planKB: median(sizes), openMS: openMS,
		overhead: overheadPct(run.lat, ref),
	})
	if tally.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "bmpbench: replay disagreed with the served tier on %d ops (first: %v)\n", tally.Mismatches, tally.First)
	}
	return nil
}

// referenceSolves re-runs the head of the op list untraced on a fresh
// daemon and returns its latencies, the baseline of the tracing
// overhead.
func (b *bench) referenceSolves(ops []*solveOp, flags starter, warm func(*conn) error) ([]time.Duration, error) {
	d, c, _, err := b.start(flags, setupBefore, warm)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	run := b.sendSolves(c, ops[:min(len(ops), refOps)], nil, nil, false)
	return run.lat, nil
}

// overheadPct compares the traced median latency with the untraced one
// over the same head of the op list.
func overheadPct(traced, untraced []time.Duration) float64 {
	n := min(len(traced), len(untraced))
	if n == 0 {
		return 0
	}
	t, u := percentile(traced[:n], 0.5), percentile(untraced[:n], 0.5)
	if u <= 0 {
		return 0
	}
	return 100 * (float64(t)/float64(u) - 1)
}

// tierGuard fails the run when the workload stops loading what it
// exists for.
func (b *bench) tierGuard(p *phase) error {
	hits := p.delta["bmpcast_cache_hits_total"] + p.m0["bmpcast_cache_hits_total"]
	switch b.workload {
	case "cold", "sweep":
		if b.labels["hit"] > 0 || hits > 0 {
			return failed("tier", "%s served %d hit labels and %v cache hits; every request must miss", b.workload, b.labels["hit"], hits)
		}
	case "repeat":
		for _, l := range []string{"hit", "warm", "miss"} {
			if b.labels[l] == 0 {
				return failed("tier", "repeat served no %q answer", l)
			}
		}
		if p.delta["bmpcast_store_disk_hits"] == 0 {
			return failed("tier", "repeat served no disk hit")
		}
		return b.sameLabels()
	}
	return nil
}

// sameLabels guards that every run of one seed against one binary
// serves identical tier-label counts: the first run records them under
// the benchmark's directory, later runs compare.
func (b *bench) sameLabels() error {
	bin, err := os.ReadFile(b.bin)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(b.work, "labels")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d-%s.json", b.workload, b.seed, b.ops, hex.EncodeToString(sum[:6])))
	got, err := json.Marshal(b.labels)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != string(got) {
		return failed("tier-labels", "label counts %s differ from an earlier run of this seed: %s", got, want)
	}
	return nil
}

func runRepeat(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed))
	bases, err := repeatBaseOps(rng)
	if err != nil {
		return err
	}
	ops, err := repeatOps(rng, bases, b.ops)
	if err != nil {
		return err
	}
	primed := filepath.Join(b.dir, "primed")
	firsts, err := prime(primed, bases)
	if err != nil {
		return err
	}
	if err := expectSolves(ops); err != nil {
		return err
	}
	copyStore := func(name string) (string, error) {
		dst := filepath.Join(b.dir, name)
		return dst, copyDir(primed, dst)
	}
	flags := func(i int) ([]string, error) {
		dst, err := copyStore(fmt.Sprintf("store-%d", i))
		return []string{"-store", dst}, err
	}
	openStore := func() (*planstore.Store, error) {
		dst, err := copyStore("replay")
		if err != nil {
			return nil, err
		}
		return planstore.Open(planstore.Config{Dir: dst})
	}
	return b.runSolves(ops, flags, nil, nil, openStore, firsts)
}

// prime solves the bases in process and persists them to a fresh store
// in dir, the way the daemon spills a solved miss. It returns the
// digest of each base's priming answer.
func prime(dir string, bases []*solveOp) (map[[sha256.Size]byte][sha256.Size]byte, error) {
	docs := make([][]byte, len(bases))
	plans := make([]*engine.Plan, len(bases))
	err := engine.ForEach(context.Background(), len(bases), 0, func(ctx context.Context, i int) error {
		plan, err := engine.Execute(ctx, bases[i].req)
		if err == nil {
			docs[i], err = wire.EncodePlan(plan)
		}
		plans[i] = plan
		exp, xerr := NewExpect(bases[i].req, plan, err)
		bases[i].exp = exp
		return xerr
	})
	if err != nil {
		return nil, err
	}
	store, err := planstore.Open(planstore.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	firsts := make(map[[sha256.Size]byte][sha256.Size]byte)
	for i, op := range bases {
		if docs[i] == nil {
			continue // a base the solver refuses is simply not primed
		}
		store.Persist(op.req, op.body, docs[i], plans[i].Word)
		firsts[op.key] = sha256.Sum256(docs[i])
	}
	return firsts, store.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// sweep: jobs and batches

// batchRun is the outcome of sending a sweep op list.
type batchRun struct {
	plans     [][]*wire.Plan // per op, per item; nil for a failed op
	order     [][]int        // per op, the item indexes in arrival order
	lat       []time.Duration
	firstItem []time.Duration // jobs only: submit to first streamed item
}

// sendBatches sends ops in order: a job is submitted and drained to EOF
// through its stream, a batch is one synchronous call.
func (b *bench) sendBatches(c *conn, ops []*batchOp, r *replayer, account bool) (batchRun, error) {
	out := batchRun{plans: make([][]*wire.Plan, len(ops)), order: make([][]int, len(ops)), lat: make([]time.Duration, len(ops))}
	ctx := context.Background()
	for i, op := range ops {
		root := -1
		if account {
			root = b.rec.Begin(i, -1, "client.op")
		}
		t := time.Now()
		var code string
		answered := true
		if op.job {
			var first time.Duration
			plans, order, c2, err := drainJob(ctx, c, op, t, &first)
			code = c2
			if err != nil {
				answered = code != "transport"
			} else {
				out.plans[i], out.order[i] = plans, order
				out.firstItem = append(out.firstItem, first)
			}
		} else {
			plans, err := c.sdk.Batch(ctx, op.reqs)
			if err != nil {
				code = failCode(c.tap)
				answered = code != "transport"
			} else {
				out.plans[i] = make([]*wire.Plan, len(plans))
				for j := range plans {
					out.plans[i][j] = &plans[j]
					out.order[i] = append(out.order[i], j)
				}
			}
		}
		out.lat[i] = time.Since(t)
		if account {
			b.rec.End(root)
			b.attempted++
			if answered {
				b.answered++
			}
			if code != "" {
				b.fail(code)
			} else {
				b.lat = append(b.lat, out.lat[i])
			}
			b.calibrate(i)
		}
		if r != nil {
			if err := r.batch(i, op.body, op.job); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// drainJob submits one job and reads its stream to EOF. A transport
// error, a non-2xx answer or an item error fails the op; the returned
// code names it.
func drainJob(ctx context.Context, c *conn, op *batchOp, t time.Time, first *time.Duration) ([]*wire.Plan, []int, string, error) {
	job, err := c.sdk.Submit(ctx, op.reqs)
	if err != nil {
		return nil, nil, failCode(c.tap), err
	}
	stream, err := job.Stream(ctx, 0)
	if err != nil {
		return nil, nil, failCode(c.tap), err
	}
	defer stream.Close()
	var plans []*wire.Plan
	var order []int
	for {
		item, err := stream.Next()
		if errors.Is(err, io.EOF) {
			return plans, order, "", nil
		}
		if err != nil {
			return nil, nil, "transport", err
		}
		if len(order) == 0 {
			*first = time.Since(t)
		}
		if item.Err != nil {
			return nil, nil, "item-" + wire.CodeFor(item.Err), item.Err
		}
		plans = append(plans, item.Plan)
		order = append(order, item.Index)
	}
}

// checkBatches checks the item order and every item of every answered
// op, and returns how many ops it checked.
func checkBatches(ops []*batchOp, run batchRun) (int, error) {
	checked := 0
	for i, op := range ops {
		if run.plans[i] == nil {
			continue
		}
		what := "batch"
		if op.job {
			what = "stream"
		}
		if err := CheckSequence(what, len(op.reqs), run.order[i]); err != nil {
			return checked, opError(i, err)
		}
		for j, p := range run.plans[i] {
			doc, err := wire.Marshal(p)
			if err != nil {
				return checked, opError(i, err)
			}
			if err := Check(op.exps[j], Answer{Doc: doc}); err != nil {
				return checked, opError(i, fmt.Errorf("item %d: %w", j, err))
			}
		}
		checked++
	}
	return checked, nil
}

func runSweep(b *bench) error {
	ops, err := sweepOps(rand.New(rand.NewSource(b.seed)), b.ops)
	if err != nil {
		return err
	}
	warmOps, err := sweepOps(rand.New(rand.NewSource(warmupSeed)), sweepWarmup)
	if err != nil {
		return err
	}
	var reqs []engine.Request
	for _, op := range append(append([]*batchOp(nil), warmOps...), ops...) {
		reqs = append(reqs, op.reqs...)
	}
	exps, err := expectAll(reqs)
	if err != nil {
		return err
	}
	for _, op := range append(append([]*batchOp(nil), warmOps...), ops...) {
		op.exps, exps = exps[:len(op.reqs)], exps[len(op.reqs):]
	}
	warm := func(c *conn) error {
		run, err := b.sendBatches(c, warmOps, nil, false)
		if err != nil {
			return err
		}
		if _, err := checkBatches(warmOps, run); err != nil {
			return fmt.Errorf("warm-up slice: %w", err)
		}
		return nil
	}
	noFlags := func(int) ([]string, error) { return nil, nil }
	d, c, err := b.setup(noFlags, warm)
	if err != nil {
		return err
	}
	defer d.stop()

	var r *replayer
	if b.traced {
		if r, err = newReplayer(nil, false, 0, nil); err != nil {
			return err
		}
		for i, op := range warmOps {
			if err := r.batch(-1-i, op.body, op.job); err != nil {
				return err
			}
		}
		r.rec = b.rec
	}
	p, err := beginPhase(d, c)
	if err != nil {
		return err
	}
	run, err := b.sendBatches(c, ops, r, true)
	if err != nil {
		return err
	}
	b.phase = p
	if err := p.end(); err != nil {
		return err
	}
	d.stop()
	if b.checked, err = checkBatches(ops, run); err != nil {
		return err
	}
	b.labels = nil
	if err := b.tierGuard(p); err != nil {
		return err
	}
	if !b.traced {
		if err := b.moreSetups(noFlags, warm, setupBefore, setupAfter); err != nil {
			return err
		}
		b.e2e = b.endToEnd(p)
		return nil
	}
	rd, rc, _, err := b.start(noFlags, setupBefore, warm)
	if err != nil {
		return err
	}
	ref, err := b.sendBatches(rc, ops[:min(len(ops), refOps)], nil, false)
	rd.stop()
	if err != nil {
		return err
	}
	var sizes []float64
	for _, plans := range run.plans {
		for _, pl := range plans {
			if doc, err := wire.Marshal(pl); err == nil {
				sizes = append(sizes, float64(len(doc))/1024)
			}
		}
	}
	var first []float64
	for _, f := range run.firstItem {
		first = append(first, float64(f.Microseconds())/1000)
	}
	b.layer = b.layerMetrics(p, layerInputs{
		planKB: median(sizes), firstItemMS: median(first), overhead: overheadPct(run.lat, ref.lat),
	})
	return nil
}

// ---------------------------------------------------------------------------
// large: in process

func runLarge(b *bench) error {
	ctx := context.Background()
	instances, err := largeInstances(b.seed)
	if err != nil {
		return err
	}
	acyclic, err := engine.Get(solveSolver)
	if err != nil {
		return err
	}
	reqs := make([]engine.Request, len(instances))
	want := make([][sha256.Size]byte, len(instances))
	tstar := make([]float64, len(instances))
	for i, ins := range instances {
		reqs[i] = engine.NewRequest(ins, engine.WithSolver(solveSolver))
		res, err := engine.SolveIsolated(ctx, acyclic, ins)
		if err != nil {
			return fmt.Errorf("isolated solve of instance %d: %w", i, err)
		}
		want[i] = ResultDigest(res)
		tstar[i] = core.OptimalCyclicThroughput(ins)
	}
	check := func(op, k int, plan *engine.Plan) error {
		if err := CheckLarge(want[k], tstar[k], plan); err != nil {
			return opError(op, err)
		}
		return nil
	}

	// Set-up: the first pass over each size on an emptied workspace pool
	// (two collections drop every pooled workspace).
	firstPasses := func(n int) error {
		for rep := 0; rep < n; rep++ {
			runtime.GC()
			runtime.GC()
			var cpu time.Duration
			plans := make([]*engine.Plan, len(largeSizes))
			for k := range largeSizes {
				c0 := selfCPU()
				plan, err := engine.Execute(ctx, reqs[k])
				cpu += selfCPU() - c0
				if err != nil {
					return fmt.Errorf("set-up solve of instance %d: %w", k, err)
				}
				plans[k] = plan
			}
			for k, plan := range plans {
				if err := check(-1-k, k, plan); err != nil {
					return err
				}
			}
			b.noteSetup(cpu)
		}
		return nil
	}
	if err := firstPasses(setupBefore); err != nil {
		return err
	}

	t := newTap() // never used: large must make no HTTP round trip
	var r *replayer
	execute := engine.Execute
	if b.traced {
		if r, err = newReplayer(b.rec, false, -1, nil); err != nil {
			return err
		}
		execute = r.reg.Execute
	}
	var lat []time.Duration
	var cpuTotal time.Duration // the solve loop's CPU, checks excluded
	run := func(n int, account bool) error {
		for i := 0; i < n; i++ {
			k := i % len(reqs)
			root := -1
			if account {
				root = b.rec.Begin(i, -1, "client.op")
			}
			if r != nil && account {
				r.op, r.parent = i, root
			}
			c0 := selfCPU()
			start := time.Now()
			plan, err := execute(ctx, reqs[k])
			d := time.Since(start)
			c1 := selfCPU()
			lat = append(lat, d)
			if !account {
				if err == nil {
					err = check(i, k, plan)
				}
				if err != nil {
					return err
				}
				continue
			}
			b.rec.End(root)
			b.attempted++
			b.answered++
			cpuTotal += c1 - c0
			if err != nil {
				b.fail("engine-" + wire.CodeFor(err))
				continue
			}
			b.lat = append(b.lat, d)
			if err := check(i, k, plan); err != nil {
				return err
			}
			b.checked++
			b.calibrate(i)
		}
		return nil
	}
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	st0, err := readCPUStat()
	if err != nil {
		return err
	}
	grows0 := engine.WorkspaceGrows()
	start := time.Now()
	if err := run(b.ops, true); err != nil {
		return err
	}
	st1, err := readCPUStat()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	if n := t.roundTrips(); n != 0 {
		return failed("tier", "large made %d HTTP round trips", n)
	}
	p := &phase{cpu: cpuTotal, steal: stealPct(st0, st1), rss: rss, wall: time.Since(start), delta: map[string]float64{
		"bmpcast_workspace_grows_total": float64(engine.WorkspaceGrows() - grows0),
	}}
	b.phase = p
	if !b.traced {
		if err := firstPasses(setupAfter); err != nil {
			return err
		}
		b.e2e = b.endToEnd(p)
		return nil
	}
	traced := lat
	lat = nil
	execute = engine.Execute
	if err := run(min(b.ops, refOps), false); err != nil {
		return err
	}
	b.layer = b.layerMetrics(p, layerInputs{overhead: overheadPct(traced, lat)})
	return nil
}
