package experiments

import (
	"fmt"
	"io"
	"math"

	"paqoc/internal/bench"
	"paqoc/internal/critical"
	"paqoc/internal/noise"
	"paqoc/internal/statevec"
)

// TableIINoisyRow holds per-method density-matrix fidelities (T1/T2 Kraus
// channels per pulse duration) for one benchmark. Methods whose compacted
// register exceeds the density-matrix budget report NaN.
type TableIINoisyRow struct {
	Bench    string
	Fidelity map[string]float64
}

// TableIINoisy is the noise-channel upgrade of TableII: instead of the
// scalar exp(-latency/T2) factor it plays every customized gate through
// the density-matrix simulator with amplitude-damping and dephasing scaled
// by the gate's pulse duration, at the platform profile's T1/T2. Fidelity
// is ⟨ψ_ideal|ρ|ψ_ideal⟩.
func TableIINoisy(p *Platform) ([]TableIINoisyRow, error) {
	params := p.Profile.Noise()
	var rows []TableIINoisyRow
	for _, name := range TableIIBenches {
		spec, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", name)
		}
		phys, err := p.Physical(spec)
		if err != nil {
			return nil, err
		}
		row := TableIINoisyRow{Bench: name, Fidelity: map[string]float64{}}
		err = p.compileMethods(phys, func(r MethodResult, bc *critical.BlockCircuit) {
			f, err := noisyFidelity(bc, params)
			if err != nil {
				f = math.NaN()
			}
			row.Fidelity[r.Method] = f
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// compactRegister maps the physical qubits a block circuit uses onto a
// dense register, in ascending order.
func compactRegister(bc *critical.BlockCircuit) (n int, remap map[int]int) {
	used := bc.Flatten().UsedQubits()
	remap = make(map[int]int, len(used))
	for i, q := range used {
		remap[q] = i
	}
	return len(used), remap
}

// localWires relabels physical qubits onto the compacted register.
func localWires(remap map[int]int, qubits []int) []int {
	wires := make([]int, len(qubits))
	for i, q := range qubits {
		wires[i] = remap[q]
	}
	return wires
}

// noisyFidelity plays a block circuit through the density-matrix channel
// model on the compacted register.
func noisyFidelity(bc *critical.BlockCircuit, params noise.Params) (float64, error) {
	n, remap := compactRegister(bc)
	if n > noise.MaxQubits {
		return 0, fmt.Errorf("register too wide: %d", n)
	}
	if n == 0 {
		return 1, nil
	}

	ideal, err := statevec.NewState(n)
	if err != nil {
		return 0, err
	}
	var gates []noise.TimedGate
	for _, b := range bc.Blocks {
		cg := b.Custom()
		u, err := cg.Unitary()
		if err != nil {
			return 0, err
		}
		wires := localWires(remap, cg.Qubits)
		if err := ideal.ApplyUnitary(u, wires); err != nil {
			return 0, err
		}
		gates = append(gates, noise.TimedGate{U: u, Wires: wires, Duration: b.Latency})
	}
	rho, err := noise.RunSequential(n, gates, params)
	if err != nil {
		return 0, err
	}
	return rho.StateFidelity(ideal.Amps)
}

// PrintTableIINoisy renders the noise-channel fidelity table.
func PrintTableIINoisy(w io.Writer, rows []TableIINoisyRow) {
	fmt.Fprintln(w, "Table II (density-matrix T1/T2 channels, larger is better)")
	fmt.Fprintf(w, "%-16s", "bench")
	for _, m := range Methods {
		fmt.Fprintf(w, " %14s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s", r.Bench)
		for _, m := range Methods {
			v := r.Fidelity[m]
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %14s", "n/a")
			} else {
				fmt.Fprintf(w, " %13.2f%%", v*100)
			}
		}
		fmt.Fprintln(w)
	}
}
