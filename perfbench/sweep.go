package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paqoc/internal/accqoc"
	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/device"
	"paqoc/internal/latency"
	"paqoc/internal/mining"
	"paqoc/internal/obs"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/route"
	"paqoc/internal/transpile"
)

// gridSide is the side of the xy-grid-5x5 evaluation device.
const gridSide = 5

// sweepFidelity is the evaluation platform's per-gate target (§VI-c).
const sweepFidelity = 0.99

// sweepExcluded are Table I circuits left out of the sweep: dnn alone
// compiles for about 27 s serially, more than a whole run.
var sweepExcluded = map[string]bool{"dnn": true}

// smokeCircuits is the sweep's input set in smoke mode.
var smokeCircuits = map[string]bool{"rd32_270": true, "simon": true, "bb84": true}

var sweepMethods = []string{"accqoc_n3d3", "accqoc_n3d5", "paqoc_m0", "paqoc_mtuned", "paqoc_minf"}

// namedCircuit is one generated input: a logical circuit and the grid
// symmetry its routed form is placed by.
type namedCircuit struct {
	name     string
	logical  *circuit.Circuit
	symmetry int // 0..7, see gridSymmetry
}

// sweepInputs builds the sweep's inputs: every Table I circuit but the
// excluded ones, each with a seeded symmetry of the square device grid.
// Routing runs from the identity layout as in the evaluation; the
// symmetry then moves the routed circuit to an equivalent placement on
// the device. The seed so changes every physical qubit and customized
// gate qubit order while the work per circuit stays close to the same.
func sweepInputs(seed int64, smoke bool) []namedCircuit {
	rng := rand.New(rand.NewSource(seed))
	var out []namedCircuit
	for _, spec := range bench.All() {
		if sweepExcluded[spec.Name] || (smoke && !smokeCircuits[spec.Name]) {
			continue
		}
		out = append(out, namedCircuit{spec.Name, spec.Build(), rng.Intn(8)})
	}
	return out
}

// gridSymmetry maps each qubit of a side×side grid with row-major
// numbering to its image under symmetry k (0..7: the rotations and
// reflections; 0 is the identity). Qubits beyond the grid stay put.
func gridSymmetry(k, side, n int) []int {
	out := make([]int, n)
	for q := range out {
		if q >= side*side {
			out[q] = q
			continue
		}
		r, c := q/side, q%side
		if k&4 != 0 {
			r, c = c, r
		}
		if k&2 != 0 {
			r = side - 1 - r
		}
		if k&1 != 0 {
			c = side - 1 - c
		}
		out[q] = r*side + c
	}
	return out
}

// relabel maps qubit q of c to perm[q].
func relabel(c *circuit.Circuit, perm []int) *circuit.Circuit {
	out := circuit.New(c.NumQubits)
	for _, g := range c.Gates {
		ng := g.Clone()
		for i, q := range ng.Qubits {
			ng.Qubits[i] = perm[q]
		}
		out.AddGate(ng)
	}
	return out
}

// routedCircuit is a physical circuit ready to compile.
type routedCircuit struct {
	name  string
	phys  *circuit.Circuit
	swaps int
}

// routeAll lowers and routes every input onto the profile's topology.
func routeAll(ctx context.Context, rec *recorder, prof *device.Profile, in []namedCircuit) ([]routedCircuit, error) {
	out := make([]routedCircuit, 0, len(in))
	for _, nc := range in {
		phys, swaps, err := routeOne(ctx, rec, prof, nc)
		if err != nil {
			return nil, err
		}
		out = append(out, routedCircuit{nc.name, phys, swaps})
	}
	return out, nil
}

// routeOne lowers and routes one input, then applies its grid symmetry.
func routeOne(ctx context.Context, rec *recorder, prof *device.Profile, nc namedCircuit) (*circuit.Circuit, int, error) {
	_, sp := rec.start(ctx, "transpile.ToPhysical")
	sp.attr("circuit", nc.name)
	defer sp.end()
	phys, rr, err := transpile.ToPhysical(nc.logical, prof.Topology(), route.DefaultOptions())
	if err != nil {
		return nil, 0, fmt.Errorf("routing %s: %w", nc.name, err)
	}
	return relabel(phys, gridSymmetry(nc.symmetry, gridSide, phys.NumQubits)), rr.SwapCount, nil
}

// compiled is one (circuit, method) compilation.
type compiled struct {
	circuit, method string
	blocks          *critical.BlockCircuit
	latency, esp    float64
	dur             time.Duration
	err             error
}

// The cold/warm phase compiles one fixed circuit with accqoc_n3d3,
// serially, in chunks of coldRepeats compiles with a fresh pulse DB and
// then warmRepeats against the last one's filled DB. One circuit
// repeated gives medians that do not jump between circuits of different
// sizes.
const (
	sweepProbeCircuit = "qft"
	sweepColdRepeats  = 6
	sweepWarmRepeats  = 15
	// sweepPassSeconds bounds the length of one pass with its cold/warm
	// chunk on a 2-vCPU host: a run makes seconds / sweepPassSeconds
	// passes, rounded down, at least one.
	sweepPassSeconds = 20
)

// sweepRun carries the per-run instrumentation: nil registry and
// recorder in untraced runs.
type sweepRun struct {
	prof *device.Profile
	reg  *obs.Registry
	rec  *recorder

	mu       sync.Mutex
	self     map[string]time.Duration
	accqocMs float64
	mineMs   float64
	// pulse-DB totals over every generator the run created.
	dbHits, dbMisses, dbEntries int
}

// collectDB adds one generator's pulse-DB statistics when tracing.
func (sr *sweepRun) collectDB(db *pulse.DB) {
	if sr.reg == nil {
		return
	}
	h, m := db.Stats()
	sr.mu.Lock()
	sr.dbHits += h
	sr.dbMisses += m
	sr.dbEntries += db.Len()
	sr.mu.Unlock()
}

// newModel returns an analytical-model generator for the profile, as
// the evaluation platform configures it.
func (sr *sweepRun) newModel() *latency.Model {
	m := latency.NewModel()
	m.Topo = sr.prof.Topology()
	m.Params = sr.prof.Params()
	if sr.reg != nil {
		m.DB.SetMetrics(sr.reg)
	}
	return m
}

// attach installs the program's own observability for one compile when
// tracing; it returns the compile's tracer (nil when untraced).
func (sr *sweepRun) attach(ctx context.Context) (context.Context, *obs.Tracer) {
	if sr.reg == nil {
		return ctx, nil
	}
	t := obs.NewTracer()
	return (&obs.Obs{Metrics: sr.reg, Tracer: t}).Attach(ctx), t
}

// collect folds one compile's program spans and benchmark-timed accqoc
// and mining work into the run's per-layer totals.
func (sr *sweepRun) collect(t *obs.Tracer, accqocMs, mineMs float64) {
	if t == nil {
		return
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	selfTimes(t.Spans(), selfSpanNames(), sr.self)
	sr.accqocMs += accqocMs
	sr.mineMs += mineMs
}

// compileOne compiles a physical circuit with one method, through gen
// (a fresh analytical-model generator when nil).
func (sr *sweepRun) compileOne(ctx context.Context, rc routedCircuit, method string, gen pulse.Generator) *compiled {
	ctx, sp := sr.rec.start(ctx, "compile")
	sp.attr("circuit", rc.name)
	sp.attr("method", method)
	defer sp.end()
	baseline := method == "accqoc_n3d3" || method == "accqoc_n3d5"
	if gen == nil {
		model := sr.newModel()
		// Permuted-qubit pulse reuse is a PAQOC contribution (§V-B); the
		// AccQOC baseline uses exact and similarity matches only.
		model.DB.DetectPermutations = !baseline
		defer sr.collectDB(model.DB)
		gen = model
	}
	out := &compiled{circuit: rc.name, method: method}
	ctx, tracer := sr.attach(ctx)
	t0 := time.Now()
	var accqocMs, mineMs float64
	if baseline {
		out.blocks, out.latency, out.esp, out.err = sr.accqoc(ctx, rc, method, gen)
		accqocMs = ms(time.Since(t0))
	} else {
		out.blocks, out.latency, out.esp, mineMs, out.err = sr.paqoc(ctx, rc, method, gen)
	}
	out.dur = time.Since(t0)
	sr.collect(tracer, accqocMs, mineMs)
	return out
}

// accqoc runs the AccQOC baseline (accqoc_n3d3 or accqoc_n3d5).
func (sr *sweepRun) accqoc(ctx context.Context, rc routedCircuit, method string, gen pulse.Generator) (*critical.BlockCircuit, float64, float64, error) {
	opts := accqoc.N3D3()
	if method == "accqoc_n3d5" {
		opts = accqoc.N3D5()
	}
	opts.FidelityTarget = sweepFidelity
	ctx, sp := sr.rec.start(ctx, "accqoc.CompileCtx")
	defer sp.end()
	res, err := accqoc.CompileCtx(ctx, rc.phys, gen, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	return res.Blocks, res.Latency, res.ESP, nil
}

// paqoc runs PAQOC with M=0, tuned M or unlimited M; tuned M mines the
// circuit first, as the evaluation does, and reports the mining time.
func (sr *sweepRun) paqoc(ctx context.Context, rc routedCircuit, method string, gen pulse.Generator) (bc *critical.BlockCircuit, lat, esp, mineMs float64, err error) {
	cfg := paqoc.DefaultConfig()
	cfg.FidelityTarget = sweepFidelity
	// Rank analytically throughout, as the evaluation sweep does.
	cfg.ProbeCaseII = false
	switch method {
	case "paqoc_m0":
	case "paqoc_minf":
		cfg.M = paqoc.MInf
	case "paqoc_mtuned":
		mctx, msp := sr.rec.start(ctx, "mining.MineCtx")
		t0 := time.Now()
		patterns, err := mining.MineCtx(mctx, rc.phys, mining.DefaultOptions())
		mineMs = ms(time.Since(t0))
		msp.end()
		if err != nil {
			return nil, 0, 0, mineMs, err
		}
		cfg.M = mining.TunedM(rc.phys, patterns, cfg.MinSupport)
	default:
		return nil, 0, 0, 0, fmt.Errorf("unknown method %q", method)
	}
	ctx, sp := sr.rec.start(ctx, "paqoc.CompileCtx")
	defer sp.end()
	res, err := paqoc.NewForProfile(gen, sr.prof, cfg).CompileCtx(ctx, rc.phys)
	if err != nil {
		return nil, 0, 0, mineMs, err
	}
	return res.Blocks, res.Latency, res.ESP, mineMs, nil
}

type sweepTask struct {
	rc     routedCircuit
	method string
	cost   int
}

// sweepTasks orders every (circuit, method) pair longest-expected-first,
// so the worker pool finishes a pass with little idle tail.
func sweepTasks(circuits []routedCircuit) []sweepTask {
	var tasks []sweepTask
	for _, rc := range circuits {
		for _, m := range sweepMethods {
			w := 4
			if m == "accqoc_n3d3" || m == "accqoc_n3d5" {
				w = 1
			}
			tasks = append(tasks, sweepTask{rc, m, w * len(rc.phys.Gates)})
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].cost > tasks[j].cost })
	return tasks
}

// pass compiles every task once on the given number of goroutines.
func (sr *sweepRun) pass(ctx context.Context, tasks []sweepTask, workers int) ([]*compiled, time.Duration) {
	out := make([]*compiled, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				out[i] = sr.compileOne(ctx, tasks[i].rc, tasks[i].method, nil)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// coldWarm runs the cold/warm phase on one circuit.
func (sr *sweepRun) coldWarm(ctx context.Context, rc routedCircuit, coldN, warmN int) (cold, warm []*compiled) {
	var gen pulse.Generator
	for i := 0; i < coldN; i++ {
		model := sr.newModel()
		model.DB.DetectPermutations = false
		defer sr.collectDB(model.DB)
		gen = model
		cold = append(cold, sr.compileOne(ctx, rc, "accqoc_n3d3", gen))
	}
	for i := 0; i < warmN; i++ {
		warm = append(warm, sr.compileOne(ctx, rc, "accqoc_n3d3", gen))
	}
	return cold, warm
}

// sweepMeasurement is the timed part of one sweep run.
type sweepMeasurement struct {
	passes     [][]*compiled
	walls      []float64
	cold, warm []*compiled
	heapMB     float64
}

// measureSweep makes the run's passes and its cold/warm chunks.
func measureSweep(cfg *config, sr *sweepRun, circuits []routedCircuit, passes int) *sweepMeasurement {
	tasks := sweepTasks(circuits)
	probe := circuits[0]
	for _, rc := range circuits {
		if rc.name == sweepProbeCircuit {
			probe = rc
		}
	}
	coldN, warmN := sweepColdRepeats, sweepWarmRepeats
	if cfg.smoke || cfg.trace {
		coldN, warmN = 1, 1
	}
	// The cold/warm phase runs in chunks before, between and after the
	// passes, so its samples span the run and a few seconds of host
	// contention move its medians less.
	m := &sweepMeasurement{}
	hs := startHeapSampler()
	for i := 0; ; i++ {
		cold, warm := sr.coldWarm(context.Background(), probe, coldN, warmN)
		m.cold, m.warm = append(m.cold, cold...), append(m.warm, warm...)
		if i == passes {
			break
		}
		res, wall := sr.pass(context.Background(), tasks, cfg.workers)
		m.passes = append(m.passes, res)
		m.walls = append(m.walls, wall.Seconds())
	}
	m.heapMB = hs.stop()
	return m
}

// sweepPasses is how many passes fit the run's seconds (at least one).
func sweepPasses(cfg *config) int {
	return max(1, int(cfg.seconds/sweepPassSeconds))
}

func runSweep(cfg *config) (*result, error) {
	prof, err := device.Lookup(device.DefaultName)
	if err != nil {
		return nil, err
	}
	r := newResult()

	// Set-up: generate and route the inputs.
	var circuits []routedCircuit
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	setups, err := repeatSetup(cfg, func() (err error) {
		circuits, err = routeAll(context.Background(), rec, prof, sweepInputs(cfg.seed, cfg.smoke))
		return err
	})
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		m := measureSweep(cfg, &sweepRun{prof: prof}, circuits, sweepPasses(cfg))
		checkSweep(r, circuits, m.all(), cfg.seed)
		sweepE2E(r, m, setups)
		return r, nil
	}

	// Traced run: one untraced reference pass, then one traced pass.
	ref := measureSweep(cfg, &sweepRun{prof: prof}, circuits, 1)
	sr := &sweepRun{prof: prof, reg: obs.NewRegistry(), rec: rec, self: map[string]time.Duration{}}
	gcBefore := readGC()
	m := measureSweep(cfg, sr, circuits, 1)
	gcAfter := readGC()
	checkSweep(r, circuits, append(ref.all(), m.all()...), cfg.seed)
	r.programLayers(sr.reg.Snapshot())
	r.addSelfTimes(sr.self)
	r.setLayer("mining.ms", r.layers["mining.ms"].Value+sr.mineMs)
	r.setLayer("accqoc.compile_ms", sr.accqocMs)
	r.setLayer("route.ms", ms(rec.total("transpile.ToPhysical")))
	swaps := 0
	for _, rc := range circuits {
		swaps += rc.swaps
	}
	r.setLayer("route.swaps", float64(swaps))
	r.setLayer("pulse.hit_frac", ratio(float64(sr.dbHits), float64(sr.dbHits+sr.dbMisses)))
	r.setLayer("pulse.entries", float64(sr.dbEntries))
	r.setLayer("trace.overhead_frac", ratio(m.walls[0], ref.walls[0]))
	addGCLayer(r, gcBefore, gcAfter)
	r.fillLayerDefaults()
	return r, writeTrace(cfg, rec)
}

// all returns every compile of the measurement, passes first, with the
// cold/warm phase as one more list.
func (m *sweepMeasurement) all() [][]*compiled {
	return append(append([][]*compiled(nil), m.passes...), append(append([]*compiled(nil), m.cold...), m.warm...))
}

// repeatSetup times set-up at least five times and for at least 1 s, so
// setup_s, their median, is steady even when set-up takes milliseconds
// (over 0.2 s, about ten sweep set-ups, the median still moved by a
// quarter between sets of runs). Traced and smoke runs set up once.
func repeatSetup(cfg *config, setup func() error) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < 5 || time.Since(start) < time.Second {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if cfg.trace || cfg.smoke {
			break
		}
	}
	return times, nil
}

// sweepE2E derives the end-to-end metrics of an untraced sweep run.
func sweepE2E(r *result, m *sweepMeasurement, setups []float64) {
	var compileMs, coldMs, warmMs, lat, esp []float64
	for pi, pass := range m.passes {
		for _, c := range pass {
			if c.err != nil {
				continue
			}
			compileMs = append(compileMs, ms(c.dur))
			if pi == 0 {
				lat = append(lat, c.latency)
				esp = append(esp, c.esp)
			}
		}
	}
	for _, c := range m.cold {
		coldMs = append(coldMs, ms(c.dur))
	}
	for _, c := range m.warm {
		warmMs = append(warmMs, ms(c.dur))
	}
	wall := median(m.walls)
	compileTail, pq := tailQuantile(compileMs, 0.9)
	warmTail, wq := tailQuantile(warmMs, 0.99)
	coldTail, cq := tailQuantile(coldMs, 0.9)
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.e2e["wall_s"] = metric{wall, "s"}
	r.e2e["compile_ms.p50"] = metric{quantile(compileMs, 0.5), "ms"}
	r.e2e["compile_ms.p90"] = metric{compileTail, "ms"}
	r.e2e["warm_ms.p50"] = metric{quantile(warmMs, 0.5), "ms"}
	r.e2e["warm_ms.p99"] = metric{warmTail, "ms"}
	r.e2e["cold_ms.p50"] = metric{quantile(coldMs, 0.5), "ms"}
	r.e2e["cold_ms.p90"] = metric{coldTail, "ms"}
	r.e2e["goodput_rps"] = metric{ratio(float64(len(lat)), wall), "1/s"}
	r.e2e["circuit_latency_dt"] = metric{geomean(lat), "dt"}
	r.e2e["esp"] = metric{geomean(esp), "frac"}
	r.e2e["peak_heap_mb"] = metric{m.heapMB, "MB"}
	r.note("%d passes of %d (circuit, method) compiles; wall_s is the median pass", len(m.passes), len(lat))
	r.note("cold/warm_ms: accqoc_n3d3 on %s with a fresh vs an already filled pulse DB, serially", sweepProbeCircuit)
	r.note(tailNote("compile_ms.p90", 0.9, pq, len(compileMs)))
	r.note(tailNote("warm_ms.p99", 0.99, wq, len(warmMs)))
	r.note(tailNote("cold_ms.p90", 0.9, cq, len(coldMs)))
}
