// Package noise is a density-matrix simulator with amplitude-damping (T1)
// and pure-dephasing (T2) channels. It upgrades the scalar exp(-t/T2)
// fidelity model used by the quick-mode Table II: each customized gate is
// applied as a unitary, followed by per-qubit Kraus channels for the
// gate's pulse duration — the standard gate-based Lindblad approximation
// QuTiP-style evaluations use. Density matrices are dense, so the register
// is capped at 8 qubits (256×256), which covers every Table II benchmark's
// compacted working set.
package noise

import (
	"fmt"
	"math"
	"math/cmplx"

	"paqoc/internal/linalg"
)

// MaxQubits caps the density-matrix dimension (4^n scaling).
const MaxQubits = 8

// Params holds per-qubit coherence times in dt units.
type Params struct {
	T1 float64 // amplitude damping time; 0 disables the channel
	T2 float64 // total dephasing time (T2 ≤ 2·T1 physically); 0 disables
}

// Density is an n-qubit density matrix ρ.
type Density struct {
	NumQubits int
	Rho       *linalg.Matrix
}

// NewDensity returns |0…0⟩⟨0…0|.
func NewDensity(n int) (*Density, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("noise: %d qubits outside 1..%d", n, MaxQubits)
	}
	d := &Density{NumQubits: n, Rho: linalg.New(1<<n, 1<<n)}
	d.Rho.Set(0, 0, 1)
	return d, nil
}

// ApplyUnitary conjugates ρ by a k-qubit unitary on the given wires:
// ρ → U ρ U†, computed as per-column then per-row sub-block transforms in
// O(4^n·2^k) instead of two dense 8^n products.
func (d *Density) ApplyUnitary(u *linalg.Matrix, wires []int) error {
	if err := checkWires(d.NumQubits, u, wires); err != nil {
		return err
	}
	d.leftMul(u, wires)
	d.rightMulDagger(u, wires)
	return nil
}

// leftMul computes ρ ← (U on wires) ρ by transforming every column.
func (d *Density) leftMul(u *linalg.Matrix, wires []int) {
	dim := d.Rho.Rows
	k := len(wires)
	sub := 1 << k
	shift := make([]int, k)
	wireMask := 0
	for i, w := range wires {
		shift[i] = d.NumQubits - 1 - w
		wireMask |= 1 << shift[i]
	}
	idxs := make([]int, sub)
	amps := make([]complex128, sub)
	for base := 0; base < dim; base++ {
		if base&wireMask != 0 {
			continue
		}
		for s := 0; s < sub; s++ {
			idx := base
			for b := 0; b < k; b++ {
				if s>>(k-1-b)&1 == 1 {
					idx |= 1 << shift[b]
				}
			}
			idxs[s] = idx
		}
		for col := 0; col < dim; col++ {
			for s, idx := range idxs {
				amps[s] = d.Rho.Data[idx*dim+col]
			}
			for row := 0; row < sub; row++ {
				var acc complex128
				urow := u.Data[row*sub : (row+1)*sub]
				for s, a := range amps {
					if a != 0 {
						acc += urow[s] * a
					}
				}
				d.Rho.Data[idxs[row]*dim+col] = acc
			}
		}
	}
}

// rightMulDagger computes ρ ← ρ (U† on wires) by transforming every row
// with conj(U).
func (d *Density) rightMulDagger(u *linalg.Matrix, wires []int) {
	dim := d.Rho.Rows
	k := len(wires)
	sub := 1 << k
	shift := make([]int, k)
	wireMask := 0
	for i, w := range wires {
		shift[i] = d.NumQubits - 1 - w
		wireMask |= 1 << shift[i]
	}
	idxs := make([]int, sub)
	amps := make([]complex128, sub)
	for base := 0; base < dim; base++ {
		if base&wireMask != 0 {
			continue
		}
		for s := 0; s < sub; s++ {
			idx := base
			for b := 0; b < k; b++ {
				if s>>(k-1-b)&1 == 1 {
					idx |= 1 << shift[b]
				}
			}
			idxs[s] = idx
		}
		for row := 0; row < dim; row++ {
			rowBase := row * dim
			for s, idx := range idxs {
				amps[s] = d.Rho.Data[rowBase+idx]
			}
			for j := 0; j < sub; j++ {
				var acc complex128
				ujrow := u.Data[j*sub : (j+1)*sub]
				for s, a := range amps {
					if a != 0 {
						acc += a * cmplx.Conj(ujrow[s])
					}
				}
				d.Rho.Data[rowBase+idxs[j]] = acc
			}
		}
	}
}

// ApplyKraus applies a single-qubit Kraus channel {K_i} to qubit q:
// ρ → Σ_i K_i ρ K_i†, in O(4^n) per operator.
func (d *Density) ApplyKraus(ks []*linalg.Matrix, q int) error {
	if q < 0 || q >= d.NumQubits {
		return fmt.Errorf("noise: qubit %d out of range", q)
	}
	for _, k := range ks {
		if k.Rows != 2 || k.Cols != 2 {
			return fmt.Errorf("noise: Kraus operators must be 2x2")
		}
	}
	dim := d.Rho.Rows
	sh := d.NumQubits - 1 - q
	acc := make([]complex128, len(d.Rho.Data))
	for _, kop := range ks {
		// term = K ρ K†, elementwise over (i_q, j_q) blocks.
		for i := 0; i < dim; i++ {
			ib := i >> sh & 1
			for j := 0; j < dim; j++ {
				jb := j >> sh & 1
				var v complex128
				for a := 0; a < 2; a++ {
					ka := kop.At(ib, a)
					if ka == 0 {
						continue
					}
					ia := (i &^ (1 << sh)) | a<<sh
					for b := 0; b < 2; b++ {
						kb := kop.At(jb, b)
						if kb == 0 {
							continue
						}
						jbIdx := (j &^ (1 << sh)) | b<<sh
						v += ka * d.Rho.Data[ia*dim+jbIdx] * cmplx.Conj(kb)
					}
				}
				acc[i*dim+j] += v
			}
		}
	}
	copy(d.Rho.Data, acc)
	return nil
}

// Idle applies T1/T2 decay to every qubit for a duration (dt).
func (d *Density) Idle(duration float64, p Params) error {
	if duration <= 0 {
		return nil
	}
	for q := 0; q < d.NumQubits; q++ {
		if p.T1 > 0 {
			if err := d.ApplyKraus(AmplitudeDamping(1-math.Exp(-duration/p.T1)), q); err != nil {
				return err
			}
		}
		if gamma := dephasingProb(duration, p); gamma > 0 {
			if err := d.ApplyKraus(PhaseDamping(gamma), q); err != nil {
				return err
			}
		}
	}
	return nil
}

// dephasingProb converts T1/T2 into the pure-dephasing probability for a
// duration: 1/Tφ = 1/T2 − 1/(2·T1).
func dephasingProb(duration float64, p Params) float64 {
	if p.T2 <= 0 {
		return 0
	}
	rate := 1 / p.T2
	if p.T1 > 0 {
		rate -= 1 / (2 * p.T1)
	}
	if rate <= 0 {
		return 0
	}
	return 1 - math.Exp(-duration*rate)
}

// AmplitudeDamping returns the T1 channel with decay probability gamma.
func AmplitudeDamping(gamma float64) []*linalg.Matrix {
	g := clamp01(gamma)
	k0 := linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Sqrt(1-g), 0)},
	})
	k1 := linalg.FromRows([][]complex128{
		{0, complex(math.Sqrt(g), 0)},
		{0, 0},
	})
	return []*linalg.Matrix{k0, k1}
}

// PhaseDamping returns the pure-dephasing channel with probability gamma.
func PhaseDamping(gamma float64) []*linalg.Matrix {
	g := clamp01(gamma)
	k0 := linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Sqrt(1-g), 0)},
	})
	k1 := linalg.FromRows([][]complex128{
		{0, 0},
		{0, complex(math.Sqrt(g), 0)},
	})
	return []*linalg.Matrix{k0, k1}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Trace returns tr(ρ) — 1 for any CPTP evolution.
func (d *Density) Trace() float64 { return real(d.Rho.Trace()) }

// Purity returns tr(ρ²) ∈ (0, 1]; 1 for pure states.
func (d *Density) Purity() float64 { return real(d.Rho.Mul(d.Rho).Trace()) }

// StateFidelity returns ⟨ψ|ρ|ψ⟩ for a pure reference state.
func (d *Density) StateFidelity(psi []complex128) (float64, error) {
	if len(psi) != d.Rho.Rows {
		return 0, fmt.Errorf("noise: state length %d vs dim %d", len(psi), d.Rho.Rows)
	}
	rhoPsi := d.Rho.MulVec(psi)
	var f complex128
	for i := range psi {
		f += cmplx.Conj(psi[i]) * rhoPsi[i]
	}
	return real(f), nil
}

// Probability returns ⟨i|ρ|i⟩.
func (d *Density) Probability(i int) float64 { return real(d.Rho.At(i, i)) }

func checkWires(n int, u *linalg.Matrix, wires []int) error {
	k := len(wires)
	if u.Rows != 1<<k || u.Cols != 1<<k {
		return fmt.Errorf("noise: unitary dim %d for %d wires", u.Rows, k)
	}
	seen := map[int]bool{}
	for _, w := range wires {
		if w < 0 || w >= n || seen[w] {
			return fmt.Errorf("noise: bad wires %v", wires)
		}
		seen[w] = true
	}
	return nil
}

// TimedGate is one gate application with a pulse duration: the channel
// model applies the unitary and then duration-scaled decay on the gate's
// qubits (idle qubits decay too, handled by the caller's timeline).
type TimedGate struct {
	U        *linalg.Matrix
	Wires    []int
	Duration float64
}

// RunSequential plays timed gates one after another, applying decay on
// every qubit for each gate's duration (the sequential-stitch execution
// model). Returns the final density matrix.
func RunSequential(n int, gates []TimedGate, p Params) (*Density, error) {
	d, err := NewDensity(n)
	if err != nil {
		return nil, err
	}
	for i, g := range gates {
		if err := d.ApplyUnitary(g.U, g.Wires); err != nil {
			return nil, fmt.Errorf("noise: gate %d: %v", i, err)
		}
		if err := d.Idle(g.Duration, p); err != nil {
			return nil, err
		}
	}
	return d, nil
}
