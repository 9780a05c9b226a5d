// Package repro_test hosts the top-level benchmark harness: one testing.B
// per table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index) plus ablation benchmarks for the design knobs.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-iteration work of each benchmark is one full regeneration of the
// corresponding artifact (on the fast representative subset where the full
// 17-benchmark sweep would dominate; cmd/paqoc-bench runs the full sweeps).
package repro_test

import (
	"context"
	"io"
	"testing"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/experiments"
	"paqoc/internal/grape"
	"paqoc/internal/latency"
	"paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/topology"
)

func subset(b *testing.B, names ...string) []bench.Spec {
	b.Helper()
	var specs []bench.Spec
	for _, n := range names {
		s, ok := bench.ByName(n)
		if !ok {
			b.Fatalf("missing benchmark %s", n)
		}
		specs = append(specs, s)
	}
	return specs
}

var fastFive = []string{"rd32_270", "bv", "qaoa", "simon", "qft"}

// BenchmarkTableIInventory regenerates the benchmark inventory.
func BenchmarkTableIInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI()
		if len(rows) != 17 {
			b.Fatal("bad inventory")
		}
	}
}

// BenchmarkFig2MergedVsSeparate regenerates the motivating GRAPE example.
func BenchmarkFig2MergedVsSeparate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if r.MergedLatency >= r.HLatency+r.CXLatency {
			b.Fatal("Fig. 2 shape lost")
		}
	}
}

// BenchmarkFig6Observations regenerates the §III-B latency study.
func BenchmarkFig6Observations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(30)
		if err != nil {
			b.Fatal(err)
		}
		if r.BelowDiagonal < len(r.Points)*99/100 {
			b.Fatal("Observation 1 lost")
		}
	}
}

func sweepOnce(b *testing.B) []experiments.BenchRow {
	b.Helper()
	rows, err := experiments.DefaultPlatform().RunAll(subset(b, fastFive...))
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig10Latency regenerates the latency comparison.
func BenchmarkFig10Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepOnce(b)
		experiments.Fig10(io.Discard, rows)
	}
}

// BenchmarkFig11Compile regenerates the compilation-time comparison.
func BenchmarkFig11Compile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepOnce(b)
		experiments.Fig11(io.Discard, rows)
	}
}

// BenchmarkFig12ESP regenerates the ESP comparison.
func BenchmarkFig12ESP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweepOnce(b)
		experiments.Fig12(io.Discard, rows)
	}
}

// BenchmarkFig13DepthLuck regenerates the fixed-depth partitioning study.
func BenchmarkFig13DepthLuck(b *testing.B) {
	p := experiments.DefaultPlatform()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(p)
		if err != nil {
			b.Fatal(err)
		}
		if r.CapturedN3D3 <= r.CapturedN3D5 {
			b.Fatal("Fig. 13 shape lost")
		}
	}
}

// BenchmarkFig14Scaling regenerates the compile-time scaling study.
func BenchmarkFig14Scaling(b *testing.B) {
	p := experiments.DefaultPlatform()
	specs := subset(b, "rd32_270", "4gt10-v1_81", "hwb4_49", "ham7_104", "majority_239")
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(p, specs)
		if err != nil {
			b.Fatal(err)
		}
		if r.Slope <= 0 {
			b.Fatal("scaling shape lost")
		}
	}
}

// BenchmarkTableIIFidelity regenerates the pulse-simulation fidelity table.
func BenchmarkTableIIFidelity(b *testing.B) {
	p := experiments.DefaultPlatform()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIIMiner regenerates the frequent-subcircuit showcase.
func BenchmarkTableIIIMiner(b *testing.B) {
	p := experiments.DefaultPlatform()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("missing showcase rows")
		}
	}
}

// ─────────────────────────── Ablations ───────────────────────────
// Design-choice benchmarks called out in DESIGN.md. Each reports the
// compile wall time of the configuration; correctness deltas are asserted
// in the unit tests.

func compileQaoa(b *testing.B, mutate func(*paqoc.Config)) {
	b.Helper()
	p := experiments.DefaultPlatform()
	spec, _ := bench.ByName("qaoa")
	phys, err := p.Physical(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := paqoc.DefaultConfig()
		cfg.ProbeCaseII = false
		mutate(&cfg)
		comp := paqoc.New(nil, p.Topo, cfg)
		if _, err := comp.CompileCtx(context.Background(), phys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAPAKnob compares the M knob settings.
func BenchmarkAblationAPAKnob(b *testing.B) {
	b.Run("m0", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.M = 0 }) })
	b.Run("minf", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.M = paqoc.MInf }) })
}

// BenchmarkAblationTopK compares the per-iteration merge width (§V-A2).
func BenchmarkAblationTopK(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(benchName("topk", k), func(b *testing.B) {
			compileQaoa(b, func(c *paqoc.Config) { c.TopK = k })
		})
	}
}

// BenchmarkAblationCriticality compares Case III pruning on/off (§V-A1).
func BenchmarkAblationCriticality(b *testing.B) {
	b.Run("pruned", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.PruneCaseIII = true }) })
	b.Run("unpruned", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.PruneCaseIII = false }) })
}

// BenchmarkAblationMaxN compares customized-gate width caps.
func BenchmarkAblationMaxN(b *testing.B) {
	for _, n := range []int{2, 3} {
		n := n
		b.Run(benchName("maxn", n), func(b *testing.B) {
			compileQaoa(b, func(c *paqoc.Config) { c.MaxN = n })
		})
	}
}

// BenchmarkAblationCommute measures the commutativity extension (§VII
// future work) on and off.
func BenchmarkAblationCommute(b *testing.B) {
	b.Run("on", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.Commute = true }) })
	b.Run("off", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.Commute = false }) })
}

// BenchmarkAblationProbeCaseII measures the §V-A probing cost.
func BenchmarkAblationProbeCaseII(b *testing.B) {
	b.Run("probe", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.ProbeCaseII = true }) })
	b.Run("model", func(b *testing.B) { compileQaoa(b, func(c *paqoc.Config) { c.ProbeCaseII = false }) })
}

// BenchmarkAblationPulseDB measures the pulse database's effect (§V-B):
// with the DB disabled, every customized gate pays full generation cost.
func BenchmarkAblationPulseDB(b *testing.B) {
	p := experiments.DefaultPlatform()
	spec, _ := bench.ByName("qaoa")
	phys, err := p.Physical(spec)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, db bool) {
		for i := 0; i < b.N; i++ {
			gen := latency.NewModel()
			gen.Topo = p.Topo
			if !db {
				gen.DB = nil
			}
			cfg := paqoc.DefaultConfig()
			cfg.ProbeCaseII = false
			comp := paqoc.New(gen, p.Topo, cfg)
			if _, err := comp.CompileCtx(context.Background(), phys); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("with-db", func(b *testing.B) { run(b, true) })
	b.Run("no-db", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPermutationDetection measures §V-B's permuted-qubit
// lookup.
func BenchmarkAblationPermutationDetection(b *testing.B) {
	run := func(b *testing.B, detect bool) {
		db := pulse.NewDB()
		db.DetectPermutations = detect
		m := latency.NewModel()
		m.DB = db
		m.Topo = topology.Grid(5, 5)
		p := experiments.DefaultPlatform()
		spec, _ := bench.ByName("bv")
		phys, err := p.Physical(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := paqoc.DefaultConfig()
			cfg.ProbeCaseII = false
			comp := paqoc.New(m, p.Topo, cfg)
			if _, err := comp.CompileCtx(context.Background(), phys); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("detect", func(b *testing.B) { run(b, true) })
	b.Run("exact-only", func(b *testing.B) { run(b, false) })
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "-" + digits[v:v+1]
	}
	return prefix + "-" + digits[v/10:v/10+1] + digits[v%10:v%10+1]
}

// BenchmarkParallelEmit measures the worker-pool pulse emission (the
// internal/engine fan-out) against the serial pipeline on a GRAPE-backed
// compile: 10 disjoint two-qubit blocks on the 5×5 grid, 8 distinct
// unitaries plus 2 adjacent duplicates so the singleflight dedup path is
// exercised under overlap (reported as dedups/op). The blocks mix rotation
// axes and entanglers so their unitaries sit outside the warm-start
// similarity radius: the serial/parallel comparison then isolates the
// fan-out itself rather than the order-dependent warm starts.
// EXPERIMENTS.md records measured speedups.
func BenchmarkParallelEmit(b *testing.B) {
	topo := topology.Grid(5, 5)
	// Ten disjoint horizontally adjacent pairs: (5r,5r+1), (5r+2,5r+3).
	// Duplicates are adjacent in block order (0=1, 8=9) so they are in
	// flight together for any workers ≥ 2.
	specs := []struct {
		axis  string
		theta float64
		ent   string
	}{
		{"rx", 0.30, "cx"}, {"rx", 0.30, "cx"},
		{"ry", 0.64, "cx"}, {"rz", 0.81, "cx"},
		{"rx", 0.98, "cz"}, {"ry", 1.15, "cz"},
		{"rz", 1.32, "cz"}, {"ry", 1.49, "cx"},
		{"rx", 1.66, "cz"}, {"rx", 1.66, "cz"},
	}
	c := circuit.New(25)
	for i, s := range specs {
		r, off := i/2, (i%2)*2
		q := 5*r + off
		c.AddParam(s.axis, []float64{s.theta}, q)
		c.Add(s.ent, q, q+1)
	}
	run := func(b *testing.B, workers int) {
		var dedups int64
		for i := 0; i < b.N; i++ {
			gen := grape.NewGenerator(grape.Options{
				MaxIter:        60,
				TargetFidelity: 0.95,
				MaxSlices:      64,
			})
			gen.Topo = topo
			cfg := paqoc.DefaultConfig()
			cfg.MaxN = 2
			cfg.M = 0
			cfg.ProbeCaseII = false
			cfg.FidelityTarget = 0.95
			cfg.Workers = workers
			comp := paqoc.New(gen, topo, cfg)
			res, err := comp.CompileCtx(context.Background(), c)
			if err != nil {
				b.Fatal(err)
			}
			if res.NumBlocks < 8 {
				b.Fatalf("only %d blocks, want ≥ 8 customized gates", res.NumBlocks)
			}
			dedups += gen.DB.Dedups()
		}
		b.ReportMetric(float64(dedups)/float64(b.N), "dedups/op")
	}
	b.Run("workers-1", func(b *testing.B) { run(b, 1) })
	b.Run("workers-4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkCrossBackend runs the full method sweep on a non-default device
// profile end to end — routing on the heavy-hex topology, profile-derived
// control bounds in the latency model, and a fingerprint-namespaced pulse
// DB. CI runs it at -benchtime=1x as the cross-backend smoke test.
func BenchmarkCrossBackend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Backends([]string{"heavy-hex"}, []string{"rd32_270"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Fingerprint == "" {
			b.Fatalf("bad backend rows: %+v", rows)
		}
		for _, row := range rows[0].Rows {
			for _, m := range row.Results {
				if m.Latency <= 0 || m.ESP <= 0 || m.ESP > 1 {
					b.Fatalf("%s/%s: implausible result %+v", row.Bench, m.Method, m)
				}
			}
		}
	}
}

// BenchmarkTableIINoisy regenerates the density-matrix Table II.
func BenchmarkTableIINoisy(b *testing.B) {
	p := experiments.DefaultPlatform()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIINoisy(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("missing rows")
		}
	}
}
