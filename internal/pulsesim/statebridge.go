package pulsesim

import (
	"fmt"

	"paqoc/internal/linalg"
	"paqoc/internal/statevec"
)

// RealizedGate is one customized gate's realized local unitary (from a
// pulse simulation) together with the physical wires it acts on.
type RealizedGate struct {
	U     *linalg.Matrix
	Wires []int
}

// StateFidelity compares the state produced by a sequence of realized
// gates against the ideal sequence, starting from |0…0⟩ on n qubits. It
// uses the statevector backend, so it scales to the full 5×5-grid platform
// (up to statevec.MaxQubits), far past the dense-unitary process-fidelity
// limit.
func StateFidelity(n int, ideal, realized []RealizedGate) (float64, error) {
	if len(ideal) != len(realized) {
		return 0, fmt.Errorf("pulsesim: %d ideal vs %d realized gates", len(ideal), len(realized))
	}
	si, err := statevec.NewState(n)
	if err != nil {
		return 0, err
	}
	sr := si.Clone()
	for k := range ideal {
		if err := si.ApplyUnitary(ideal[k].U, ideal[k].Wires); err != nil {
			return 0, fmt.Errorf("pulsesim: ideal gate %d: %v", k, err)
		}
		if err := sr.ApplyUnitary(realized[k].U, realized[k].Wires); err != nil {
			return 0, fmt.Errorf("pulsesim: realized gate %d: %v", k, err)
		}
	}
	return statevec.Fidelity(si, sr)
}
