package experiments

import (
	"context"
	"fmt"
	"io"

	"paqoc/internal/accqoc"
	"paqoc/internal/bench"
	"paqoc/internal/circuit"
	"paqoc/internal/mining"
	"paqoc/internal/pulsesim"
)

// ───────────────────────────── Table I ─────────────────────────────

// TableIRow compares the paper's benchmark inventory with this repo's
// generated circuits.
type TableIRow struct {
	Name, Description       string
	Qubits                  int
	Paper1Q, Paper2Q        int
	Measured1Q, Measured2Q  int
	Measured3Q, MeasuredAll int
}

// TableI builds every benchmark and counts gates.
func TableI() []TableIRow {
	var rows []TableIRow
	for _, s := range bench.All() {
		c := s.Build()
		one, two, three := c.CountByArity()
		rows = append(rows, TableIRow{
			Name: s.Name, Description: s.Description, Qubits: s.Qubits,
			Paper1Q: s.Paper1Q, Paper2Q: s.Paper2Q,
			Measured1Q: one, Measured2Q: two, Measured3Q: three,
			MeasuredAll: len(c.Gates),
		})
	}
	return rows
}

// PrintTableI renders the inventory.
func PrintTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintln(w, "Table I — benchmark inventory (paper vs generated)")
	fmt.Fprintf(w, "%-16s %-22s %6s %9s %9s %9s %9s %4s\n",
		"name", "description", "qubits", "paper 1q", "paper 2q", "ours 1q", "ours 2q", "3q")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-22s %6d %9d %9d %9d %9d %4d\n",
			r.Name, r.Description, r.Qubits, r.Paper1Q, r.Paper2Q, r.Measured1Q, r.Measured2Q, r.Measured3Q)
	}
}

// ───────────────────────────── Table II ─────────────────────────────

// TableIIBenches are the six pulse-simulated benchmarks of Table II.
var TableIIBenches = []string{"4gt10-v1_81", "decod24-v1_41", "hwb4_49", "rd32_270", "bb84", "simon"}

// TableIIRow holds per-method simulated whole-circuit fidelity.
type TableIIRow struct {
	Bench    string
	Fidelity map[string]float64 // method → fidelity
}

// TableII evaluates whole-circuit pulse fidelity for the five methods on
// the six small benchmarks using the quick coherent-ESP × dephasing model.
// Heavier protocols live alongside: TableIINoisy (density-matrix T1/T2
// channels, `paqoc-bench table2noisy`) and TableIIFull (real GRAPE
// schedules propagated through the Hamiltonian, `paqoc-bench table2full`).
func TableII(p *Platform) ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, name := range TableIIBenches {
		spec, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		phys, err := p.Physical(spec)
		if err != nil {
			return nil, err
		}
		results, err := p.RunMethods(phys)
		if err != nil {
			return nil, err
		}
		row := TableIIRow{Bench: name, Fidelity: map[string]float64{}}
		for _, m := range results {
			// Coherent part: the per-gate pulse errors are already folded
			// into ESP (Eq. 2); dephasing follows the critical-path latency
			// at the backend's T2.
			row.Fidelity[m.Method] = m.ESP * pulsesim.DecoherenceFactor(m.Latency, p.Profile.T2Dt)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTableII renders the fidelity table.
func PrintTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintln(w, "Table II — simulated whole-circuit fidelity (larger is better)")
	fmt.Fprintf(w, "%-16s", "bench")
	for _, m := range Methods {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Bench)
		for _, m := range Methods {
			fmt.Fprintf(w, " %13.2f%%", r.Fidelity[m]*100)
		}
		fmt.Fprintln(w)
	}
}

// ───────────────────────────── Table III ─────────────────────────────

// TableIIIBenches are the five benchmarks whose mined patterns the paper
// showcases.
var TableIIIBenches = []string{"bv", "adder", "qft", "qaoa", "supre"}

// TableIIIRow reports the two most frequent subcircuits of a benchmark.
type TableIIIRow struct {
	Bench    string
	Patterns []mining.Pattern // at most two, by coverage
}

// TableIII mines the physical circuits of the showcase benchmarks.
func TableIII(p *Platform) ([]TableIIIRow, error) {
	var rows []TableIIIRow
	for _, name := range TableIIIBenches {
		spec, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		phys, err := p.Physical(spec)
		if err != nil {
			return nil, err
		}
		patterns, err := mining.MineCtx(context.Background(), phys, mining.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if len(patterns) > 2 {
			patterns = patterns[:2]
		}
		rows = append(rows, TableIIIRow{Bench: name, Patterns: patterns})
	}
	return rows, nil
}

// PrintTableIII renders the mined patterns.
func PrintTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintln(w, "Table III — most frequent subcircuits found by the miner")
	for _, r := range rows {
		fmt.Fprintf(w, "%s:\n", r.Bench)
		for rank, pat := range r.Patterns {
			fmt.Fprintf(w, "  #%d  support %-3d gates %-2d qubits %d  %s\n",
				rank+1, pat.Support, pat.GateCount, pat.QubitCount, shorten(pat.Signature, 90))
		}
	}
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// ───────────────────────────── Fig. 13 ─────────────────────────────

// Fig13Result compares how many CPHASE idioms (cx;rz;cx on one pair) each
// fixed-depth AccQOC partition captures intact on the qaoa benchmark.
type Fig13Result struct {
	TotalIdioms  int
	CapturedN3D3 int
	CapturedN3D5 int
}

// Fig13 reproduces the partitioning comparison of Fig. 13.
func Fig13(p *Platform) (*Fig13Result, error) {
	spec, _ := bench.ByName("qaoa")
	phys, err := p.Physical(spec)
	if err != nil {
		return nil, err
	}
	idioms := cphaseIdioms(phys)
	res := &Fig13Result{TotalIdioms: len(idioms)}
	res.CapturedN3D3 = captured(idioms, accqoc.Partition(phys, 3, 3))
	res.CapturedN3D5 = captured(idioms, accqoc.Partition(phys, 3, 5))
	return res, nil
}

// cphaseIdioms finds cx;rz;cx runs on a single qubit pair.
func cphaseIdioms(c *circuit.Circuit) [][]int {
	var out [][]int
	dag := circuit.BuildDAG(c)
	for i, g := range c.Gates {
		if g.Name != "cx" {
			continue
		}
		// successor rz on the target, then cx on the same pair.
		for _, j := range dag.Succs[i] {
			gj := c.Gates[j]
			if gj.Name != "rz" || gj.Qubits[0] != g.Qubits[1] {
				continue
			}
			for _, k := range dag.Succs[j] {
				gk := c.Gates[k]
				if gk.Name == "cx" && gk.Qubits[0] == g.Qubits[0] && gk.Qubits[1] == g.Qubits[1] {
					out = append(out, []int{i, j, k})
				}
			}
		}
	}
	return out
}

// captured counts idioms fully inside a single partition group.
func captured(idioms [][]int, groups [][]int) int {
	groupOf := map[int]int{}
	for gi, grp := range groups {
		for _, gate := range grp {
			groupOf[gate] = gi
		}
	}
	n := 0
	for _, idiom := range idioms {
		g0 := groupOf[idiom[0]]
		same := true
		for _, gate := range idiom[1:] {
			if groupOf[gate] != g0 {
				same = false
				break
			}
		}
		if same {
			n++
		}
	}
	return n
}

// Print renders the Fig. 13 comparison.
func (r *Fig13Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 13 — CPHASE idioms captured intact by fixed-depth partitioning (qaoa)\n")
	fmt.Fprintf(w, "  idioms in circuit: %d\n", r.TotalIdioms)
	fmt.Fprintf(w, "  accqoc_n3d3 captures %d, accqoc_n3d5 captures %d\n", r.CapturedN3D3, r.CapturedN3D5)
	fmt.Fprintf(w, "  paper: depth-3 happens to capture the CPHASE pattern, depth-5 does not\n")
}
