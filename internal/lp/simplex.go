// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_k·x {≤,=,≥} b_k   for every constraint k
//	            x ≥ 0
//
// It is the substrate for the paper's Section IV result that BI-CRIT
// under the VDD-HOPPING model is solvable in polynomial time via a
// linear program. Bland's anti-cycling rule guarantees termination;
// problem sizes in this repository are small (hundreds of variables),
// so a dense tableau is appropriate and keeps the implementation
// auditable. The tableau lives in one contiguous row-major array, and
// the kernel does only the work the LP's sparsity leaves:
//
//   - a pivot gathers the nonzero columns of the scaled pivot row
//     once, then updates only those columns, in only the rows whose
//     entry in the pivot column is nonzero;
//   - phase 2 eliminates only the columns below the artificial ones,
//     which are barred from entering and never read again;
//   - pricing computes reduced costs one column at a time, summing
//     over the rows whose basic cost is nonzero in ascending row
//     order, and stops at the first improving column (Bland's rule).
//
// Every operation skipped is x −= f·0, which can at most flip the sign
// of a zero that no comparison and no output reads, so the pivot
// sequence and the returned Solution are bit-identical to a dense
// sweep. The tableau and its scratch are pooled: a warmed solve
// allocates only its Solution.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Sense is the direction of a linear constraint.
type Sense int

const (
	// LE is a_k·x ≤ b_k.
	LE Sense = iota
	// GE is a_k·x ≥ b_k.
	GE
	// EQ is a_k·x = b_k.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is one row a·x {≤,=,≥} rhs. Coeffs must have the
// problem's NumVars entries.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a minimization LP over non-negative variables.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
}

// AddConstraint appends a constraint (convenience builder).
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Sense: sense, RHS: rhs})
}

// Solution is an optimal basic feasible solution.
type Solution struct {
	X         []float64
	Objective float64
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

const eps = 1e-9

// cancelCheckPivots is how many pivots run between two looks at the
// context: often enough that a cancelled solve stops within
// milliseconds, rarely enough that the check costs nothing.
const cancelCheckPivots = 8

// tableaus pools tableaus across Solve calls, so repeated solves
// reuse the tableau and its scratch instead of reallocating them.
var tableaus = sync.Pool{New: func() any { return new(tableau) }}

// Solve returns an optimal solution, ErrInfeasible or ErrUnbounded.
// It stops early with ctx.Err() once ctx is done.
func Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	n := p.NumVars
	m := len(p.Constraints)

	// Count auxiliary columns: one slack per LE, one surplus + one
	// artificial per GE, one artificial per EQ. Rows are normalized to
	// b ≥ 0 while being copied into the tableau.
	nSlack := 0
	nArt := 0
	for _, c := range p.Constraints {
		sense := c.Sense
		if c.RHS < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE, GE:
			nSlack++
		}
		if sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	t := tableaus.Get().(*tableau)
	defer tableaus.Put(t)
	t.reset(m, total)
	artStart := n + nSlack
	slackCol := n
	artCol := artStart
	for k, c := range p.Constraints {
		row := t.a[k*total : k*total+total]
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			for j, v := range c.Coeffs {
				row[j] = -v
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		} else {
			copy(row, c.Coeffs)
		}
		clear(row[n:])
		t.b[k] = rhs
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[k] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[k] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[k] = artCol
			artCol++
		}
	}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		clear(t.cost[:artStart])
		for j := artStart; j < total; j++ {
			t.cost[j] = 1
		}
		z, err := t.simplex(ctx, total)
		if err != nil {
			return nil, err
		}
		if z > 1e-7 {
			return nil, ErrInfeasible
		}
		// Drive remaining artificial variables out of the basis. From
		// here on no artificial column is read, so pivots stop
		// eliminating them.
		for r := 0; r < t.m; r++ {
			if t.basis[r] >= artStart {
				row := t.a[r*total : r*total+artStart]
				pivoted := false
				for j, v := range row {
					if math.Abs(v) > eps {
						t.pivot(r, j, artStart)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row; the artificial stays basic at value
					// 0, harmless as long as it cannot re-enter with a
					// positive value — it cannot, since the row is all
					// zeros on structural columns.
					t.b[r] = 0
				}
			}
		}
	}

	// Phase 2: original objective over the columns below artStart;
	// the artificial columns are barred from entering.
	copy(t.cost, p.Objective)
	clear(t.cost[n:])
	if _, err := t.simplex(ctx, artStart); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for r := 0; r < m; r++ {
		if t.basis[r] < n {
			x[t.basis[r]] = t.b[r]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Objective[j] * x[j]
	}
	return &Solution{X: x, Objective: obj}, nil
}

func validate(p *Problem) error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d", p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.Objective), p.NumVars)
	}
	for k, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", k, len(c.Coeffs), p.NumVars)
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has invalid RHS %v", k, c.RHS)
		}
		for j, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d invalid: %v", k, j, v)
			}
		}
	}
	for j, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("lp: objective coefficient %d invalid: %v", j, v)
		}
	}
	return nil
}

// tableau is a simplex tableau kept in canonical form with respect to
// the current basis, plus the scratch its kernel reuses. Rows live
// back to back in one flat array: row r occupies a[r*n : (r+1)*n].
type tableau struct {
	m, n  int
	a     []float64 // m × n row-major, updated in place
	b     []float64 // m, current basic values (≥ 0)
	basis []int     // basis[r] = variable basic in row r
	cost  []float64 // n, the current phase's cost vector
	// Scratch rebuilt by every pivot or pricing pass; reset gives each
	// enough capacity that appending never reallocates.
	nz    []int     // nonzero columns of the scaled pivot row
	cbOff []int     // a-offsets of the rows with nonzero basic cost
	cbVal []float64 // and those basic costs
}

// reset sizes t for an m × n problem. The caller overwrites every
// entry of a, b and basis.
func (t *tableau) reset(m, n int) {
	t.m, t.n = m, n
	t.a = resize(t.a, m*n)
	t.b = resize(t.b, m)
	t.basis = resize(t.basis, m)
	t.cost = resize(t.cost, n)
	t.nz = resize(t.nz, n)[:0]
	t.cbOff = resize(t.cbOff, m)[:0]
	t.cbVal = resize(t.cbVal, m)[:0]
}

// resize returns s with length n, reallocating only when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pivot performs a Gauss-Jordan pivot on (r, c) over the columns
// below width and updates the basis. Only the nonzero columns of the
// scaled pivot row are updated, in the rows with a nonzero entry in
// column c.
func (t *tableau) pivot(r, c, width int) {
	n := t.n
	rowR := t.a[r*n : r*n+width]
	inv := 1 / rowR[c]
	nz := t.nz[:0]
	for j, v := range rowR {
		if v != 0 {
			rowR[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.b[r] *= inv
	rowR[c] = 1 // kill round-off
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		rowI := t.a[i*n : i*n+width]
		f := rowI[c]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			rowI[j] -= f * rowR[j]
		}
		t.b[i] -= f * t.b[r]
		rowI[c] = 0
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	t.basis[r] = c
}

// simplex minimizes t.cost over the current BFS using Bland's rule.
// Only columns below width are priced, may enter the basis and are
// kept up to date by pivots (phase 2 passes artStart to bar the
// artificial columns). Returns the optimal objective value of the
// basic solution.
func (t *tableau) simplex(ctx context.Context, width int) (float64, error) {
	maxIter := 50 * (t.m + t.n + 10)
	n := t.n
	cost := t.cost
	for iter := 0; iter < maxIter; iter++ {
		if iter%cancelCheckPivots == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		// rc_j = c_j − Σ_r c_basis[r]·a[r][j] over the rows with a
		// nonzero basic cost, in ascending row order; the first j with
		// rc_j < −eps enters (Bland).
		cbOff, cbVal := t.cbOff[:0], t.cbVal[:0]
		for r, v := range t.basis {
			if cb := cost[v]; cb != 0 {
				cbOff = append(cbOff, r*n)
				cbVal = append(cbVal, cb)
			}
		}
		enter := -1
		for j := 0; j < width; j++ {
			rc := cost[j]
			for k, off := range cbOff {
				rc -= cbVal[k] * t.a[off+j]
			}
			if rc < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			z := 0.0
			for r := 0; r < t.m; r++ {
				z += cost[t.basis[r]] * t.b[r]
			}
			return z, nil
		}
		// Ratio test with Bland tie-breaking on basis index.
		leave := -1
		best := math.Inf(1)
		for r := 0; r < t.m; r++ {
			v := t.a[r*n+enter]
			if v > eps {
				ratio := t.b[r] / v
				if ratio < best-eps || (ratio < best+eps && (leave == -1 || t.basis[r] < t.basis[leave])) {
					best = ratio
					leave = r
				}
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		t.pivot(leave, enter, width)
	}
	return 0, errors.New("lp: iteration limit exceeded (cycling?)")
}
