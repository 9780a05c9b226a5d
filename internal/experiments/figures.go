package experiments

import (
	"context"
	"fmt"
	"io"

	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/grape"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/latency"
	paqocpkg "paqoc/internal/paqoc"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
)

// ───────────────────────────── Fig. 2 ─────────────────────────────

// Fig2Result compares pulse latencies for H and CX generated separately
// versus the consolidated H;CX unitary (the paper reports 170 dt vs
// 110 dt; absolute values differ on our platform, the ordering must not).
type Fig2Result struct {
	HLatency      float64
	CXLatency     float64
	MergedLatency float64
}

// Fig2 runs real GRAPE for the motivating example.
func Fig2() (*Fig2Result, error) {
	opts := grape.DefaultOptions()
	sys1 := hamiltonian.XYTransmon(1, nil)
	_, hLat, _, err := grape.MinimumTimeCtx(context.Background(), sys1, quantum.MatH.Clone(), opts)
	if err != nil {
		return nil, err
	}
	sys2 := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	_, cxLat, _, err := grape.MinimumTimeCtx(context.Background(), sys2, quantum.MatCX.Clone(), opts)
	if err != nil {
		return nil, err
	}
	merged := quantum.MatCX.Mul(quantum.MatH.Kron(quantum.MatI))
	_, mLat, _, err := grape.MinimumTimeCtx(context.Background(), sys2, merged, opts)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{HLatency: hLat, CXLatency: cxLat, MergedLatency: mLat}, nil
}

// Print renders the figure-2 comparison.
func (r *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 2 — merged vs stitched pulse latency (GRAPE, dt)\n")
	fmt.Fprintf(w, "  separate: H = %.0f, CX = %.0f, stitched = %.0f\n", r.HLatency, r.CXLatency, r.HLatency+r.CXLatency)
	fmt.Fprintf(w, "  merged H+CX unitary   = %.0f\n", r.MergedLatency)
	fmt.Fprintf(w, "  paper: 170 dt stitched vs 110 dt merged\n")
}

// ───────────────────────────── Fig. 6 ─────────────────────────────

// Fig6Point is one subcircuit sample: the sum of individual gate pulse
// latencies (X axis) against the merged-group latency (Y axis).
type Fig6Point struct {
	SumLatency    float64
	MergedLatency float64
	Qubits        int
	Gates         int
}

// Fig6Result aggregates the §III-B study over the 150-benchmark suite.
type Fig6Result struct {
	Points []Fig6Point
	// BelowDiagonal counts points with merged ≤ sum (Observation 1).
	BelowDiagonal int
	// MeanLatencyByQubits supports Observation 2.
	MeanLatencyByQubits map[int]float64
}

// Fig6 extracts maximal same-qubit-set runs of 1–3 qubit gates from the
// 150-circuit suite and compares merged vs summed pulse latencies using
// the calibrated model.
func Fig6(limit int) (*Fig6Result, error) {
	model := latency.NewModel()
	suite := bench.Suite150()
	if limit > 0 && limit < len(suite) {
		suite = suite[:limit]
	}
	res := &Fig6Result{MeanLatencyByQubits: map[int]float64{}}
	counts := map[int]int{}

	for _, c := range suite {
		for _, run := range maximalRuns(c) {
			if len(run) < 2 {
				continue
			}
			var sum float64
			ok := true
			for _, g := range run {
				gen, err := model.GenerateCtx(context.Background(), pulse.NewCustomGate([]circuit.Gate{g}), 0.999)
				if err != nil {
					ok = false
					break
				}
				sum += gen.Latency
			}
			if !ok {
				continue
			}
			cg := pulse.NewCustomGate(run)
			gen, err := model.GenerateCtx(context.Background(), cg, 0.999)
			if err != nil {
				continue
			}
			pt := Fig6Point{SumLatency: sum, MergedLatency: gen.Latency, Qubits: cg.NumQubits(), Gates: len(run)}
			res.Points = append(res.Points, pt)
			if pt.MergedLatency <= pt.SumLatency+1e-9 {
				res.BelowDiagonal++
			}
			res.MeanLatencyByQubits[pt.Qubits] += pt.MergedLatency
			counts[pt.Qubits]++
		}
	}
	for q, total := range res.MeanLatencyByQubits {
		res.MeanLatencyByQubits[q] = total / float64(counts[q])
	}
	return res, nil
}

// maximalRuns extracts the paper's §III-B subcircuits: maximal consecutive
// gate sequences whose gates share qubit(s) with the group, capped at
// three qubits total.
func maximalRuns(c *circuit.Circuit) [][]circuit.Gate {
	var runs [][]circuit.Gate
	var cur []circuit.Gate
	qubits := map[int]bool{}

	flush := func() {
		if len(cur) > 0 {
			runs = append(runs, cur)
		}
		cur = nil
		qubits = map[int]bool{}
	}
	for _, g := range c.Gates {
		shares := len(cur) == 0
		grown := 0
		for _, q := range g.Qubits {
			if qubits[q] {
				shares = true
			} else {
				grown++
			}
		}
		if !shares || len(qubits)+grown > 3 {
			flush()
		}
		cur = append(cur, g)
		for _, q := range g.Qubits {
			qubits[q] = true
		}
	}
	flush()
	return runs
}

// Print renders the Fig. 6 summary (the scatter itself is the Points
// slice; cmd/paqoc-bench can dump it as CSV).
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6 — merged vs summed subcircuit latency (%d samples)\n", len(r.Points))
	fmt.Fprintf(w, "  below diagonal (Observation 1): %d / %d\n", r.BelowDiagonal, len(r.Points))
	for q := 1; q <= 3; q++ {
		if v, ok := r.MeanLatencyByQubits[q]; ok {
			fmt.Fprintf(w, "  mean merged latency, %dq groups: %.1f dt\n", q, v)
		}
	}
}

// CSV writes the scatter points.
func (r *Fig6Result) CSV(w io.Writer) {
	fmt.Fprintln(w, "sum_latency_dt,merged_latency_dt,qubits,gates")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f,%.2f,%d,%d\n", p.SumLatency, p.MergedLatency, p.Qubits, p.Gates)
	}
}

// ─────────────────────────── Figs. 10–12 ───────────────────────────

// Fig10 prints circuit latency normalized to accqoc_n3d3 (lower is
// better; the paper's paqoc(M=0) averages a 54% reduction).
func Fig10(w io.Writer, rows []BenchRow) {
	printNormalized(w, rows, func(m MethodResult) float64 { return m.Latency },
		"Fig. 10 — circuit latency", false)
}

// Fig11 prints compilation time normalized to accqoc_n3d3 (lower is
// better; the paper's paqoc(M=inf) is fastest, ~43% average reduction).
func Fig11(w io.Writer, rows []BenchRow) {
	printNormalized(w, rows, func(m MethodResult) float64 { return m.CompileCost },
		"Fig. 11 — compilation time", false)
}

// Fig12 prints ESP normalized to accqoc_n3d3 (higher is better; the
// paper's paqoc(M=0) averages +27%).
func Fig12(w io.Writer, rows []BenchRow) {
	printNormalized(w, rows, func(m MethodResult) float64 { return m.ESP },
		"Fig. 12 — estimated success probability", true)
}

// ───────────────────────────── Fig. 14 ─────────────────────────────

// Fig14Point is one (gate count, compile time) sample for paqoc(M=inf).
type Fig14Point struct {
	Bench       string
	Gates       int
	CompileCost float64
}

// Fig14Result carries the scalability study with its linear fit.
type Fig14Result struct {
	Points           []Fig14Point
	Slope, Intercept float64 // compile seconds per gate
	R2               float64
}

// Fig14 measures paqoc(M=inf) compile cost against circuit size.
func Fig14(p *Platform, specs []bench.Spec) (*Fig14Result, error) {
	res := &Fig14Result{}
	for _, s := range specs {
		phys, err := p.Physical(s)
		if err != nil {
			return nil, err
		}
		cfg := paqocpkg.DefaultConfig()
		cfg.M = paqocpkg.MInf
		cfg.FidelityTarget = p.Fidelity
		out, err := paqocpkg.NewForProfile(nil, p.Profile, cfg).CompileCtx(context.Background(), phys)
		if err != nil {
			return nil, err
		}
		// Fig. 14 charts total compilation time, so the offline APA pulse
		// generation is included here.
		res.Points = append(res.Points, Fig14Point{
			Bench: s.Name, Gates: len(phys.Gates),
			CompileCost: out.CompileCost + out.OfflineCost,
		})
	}
	res.Slope, res.Intercept, res.R2 = linearFit(res.Points)
	return res, nil
}

func linearFit(pts []Fig14Point) (slope, intercept, r2 float64) {
	n := float64(len(pts))
	if n < 2 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for _, p := range pts {
		x, y := float64(p.Gates), p.CompileCost
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for _, p := range pts {
		pred := slope*float64(p.Gates) + intercept
		d := p.CompileCost - pred
		ssRes += d * d
	}
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return slope, intercept, r2
}

// Print renders the Fig. 14 series.
func (r *Fig14Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 14 — paqoc(M=inf) compile time vs circuit size\n")
	fmt.Fprintf(w, "%-16s %8s %14s\n", "bench", "gates", "compile (s)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-16s %8d %14.2f\n", p.Bench, p.Gates, p.CompileCost)
	}
	fmt.Fprintf(w, "linear fit: t = %.4f·gates %+.2f  (R² = %.3f)\n", r.Slope, r.Intercept, r.R2)
	fmt.Fprintf(w, "paper: <25 min at ~1200 gates, near-linear scaling\n")
}
