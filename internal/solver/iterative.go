package solver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// ErrStalled tags iterative failures that may be specific to the starting
// point — non-convergence within MaxIter, or a non-finite residual from a
// poisoned seed. Warm-start callers retry these from zero (errors.Is);
// structural failures (dimension mismatches, SPD breakdowns, preconditioner
// construction errors) are not tagged, as a different start cannot fix them.
var ErrStalled = errors.New("iteration stalled")

// Stats reports the outcome of an iterative solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
	// Precond is the concrete preconditioner the solve ran with (Auto
	// resolved against the system size).
	Precond PrecondKind
	// Ordering is the symmetric ordering the preconditioner factored under
	// (OrderingNatural for the ordering-invariant kinds; prebuilt Options.M
	// preconditioners report their own).
	Ordering OrderingKind
	// Precision is the concrete storage precision of the preconditioner's
	// factor values (PrecisionFloat64 for the non-factorizing kinds; prebuilt
	// Options.M preconditioners report their own).
	Precision Precision
	// Refinements counts the iterative-refinement restarts a float32-factor
	// PCG solve took when the recurrence residual diverged from the true
	// residual (always zero for float64 factors and for GMRES, whose
	// restarts recompute the true residual anyway).
	Refinements int
	// Warm reports whether the solve was seeded with an initial guess.
	Warm bool
	// PrecondBuild is the preconditioner construction cost paid by this
	// solve: zero when Options.M supplied a prebuilt (e.g. assembly-cached)
	// preconditioner. The array layer overwrites it with the cache's build
	// time on the solve that populated the cache.
	PrecondBuild time.Duration
	// PrecondApply accumulates the preconditioner application time across
	// the solve's iterations.
	PrecondApply time.Duration
}

// Options configures the iterative solvers.
type Options struct {
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIter bounds the iteration count (default 10·n).
	MaxIter int
	// Restart is the GMRES restart length m (default 60).
	Restart int
	// Workers sizes the resident pool of the per-solve workspace the solver
	// creates when Work is nil (default DefaultWorkers: GOMAXPROCS unless
	// host-profile tuning installed a measured ceiling). Ignored when Work
	// is set: its pool sets the parallelism.
	Workers int
	// Precond selects the preconditioner (default PrecondAuto: block-
	// Jacobi-3 below AutoIC0Threshold DoFs, IC0 at and above it).
	Precond PrecondKind
	// Ordering selects the symmetric ordering the factorizing
	// preconditioners (IC0) are built under (default OrderingAuto:
	// multicolor when the natural-order dependency levels are too narrow to
	// fan out, natural otherwise). Ignored when Options.M supplies a
	// prebuilt preconditioner, which carries its own ordering.
	Ordering OrderingKind
	// Precision selects the storage precision of the factorizing
	// preconditioners' values (default PrecisionAuto: float32 when the
	// blocked factor layout engages, float64 otherwise — see Precision).
	// Ignored when Options.M supplies a prebuilt preconditioner, which
	// carries its own precision.
	Precision Precision
	// M optionally supplies a prebuilt preconditioner — e.g. one cached on
	// an array.Assembly — and skips construction (Stats.PrecondBuild stays
	// zero). Precond should name the concrete kind M was built as; it is
	// resolved and recorded in Stats either way. Runtime-only: never
	// serialized.
	M Preconditioner
	// MatBlocked optionally supplies the 3×3-tiled form of the system
	// matrix (e.g. assembly-cached); the workspace mat-vec then runs the
	// blocked kernel instead of the scalar CSR one. Must represent the same
	// matrix as a — dimension mismatches are ignored (scalar path). Runtime-
	// only: never serialized.
	MatBlocked *sparse.BCSR
	// Work optionally supplies a reusable Workspace (pooled work vectors,
	// resident worker pool). The returned solution vector is then owned by
	// the workspace and valid only until its next solve — copy it to retain
	// it. nil creates a workspace with a pool of Workers for the call and
	// closes it on return. Runtime-only: never serialized.
	Work *Workspace
}

// normWorkers applies the package-wide worker-count default (DefaultWorkers:
// GOMAXPROCS unless host-profile tuning installed a measured ceiling) to an
// unset worker count.
func normWorkers(w int) int {
	if w <= 0 {
		return DefaultWorkers()
	}
	return w
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
	}
	if o.Restart <= 0 {
		o.Restart = 60
	}
	o.Workers = normWorkers(o.Workers)
	return o
}

// jacobi builds the inverse-diagonal preconditioner of a, falling back to 1
// for zero diagonal entries (which cannot occur on an SPD matrix but keeps
// the solver total).
func jacobi(a *sparse.CSR) []float64 {
	d := a.Diag()
	for i, v := range d {
		if v != 0 {
			d[i] = 1 / v
		} else {
			d[i] = 1
		}
	}
	return d
}

// GMRES solves a·x = b with left-preconditioned restarted GMRES(m) using
// modified Gram–Schmidt orthogonalization and Givens rotations. This is the
// global-stage solver recommended by the paper (§4.3). The preconditioner
// comes from Options.M when prebuilt or is constructed from Options.Precond
// (default PrecondAuto); x0 optionally seeds the iteration and may be nil.
// Like PCG, GMRES draws its work vectors, Krylov basis, and Hessenberg from
// Options.Work when supplied (the returned solution then aliases workspace
// memory) and drives level-scheduled preconditioners through the
// workspace's resident gang.
func GMRES(a *sparse.CSR, b, x0 []float64, opt Options) ([]float64, Stats, error) {
	n := a.NRows
	if a.NCols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("solver: GMRES dimension mismatch: matrix %d×%d, b %d", a.NRows, a.NCols, len(b))
	}
	opt = opt.withDefaults(n)
	m := opt.Restart
	if m > n {
		m = n
	}
	kind := opt.Precond.Resolve(n)
	st := Stats{Precond: kind, Warm: x0 != nil}
	pre := opt.M
	if pre == nil {
		tBuild := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		var err error
		pre, err = NewPreconditioner(kind, opt.Ordering, opt.Precision, a)
		if err != nil {
			return nil, st, err
		}
		st.PrecondBuild = time.Since(tBuild)
	}
	st.Ordering = orderingOf(pre)
	// GMRES needs no refinement guard for float32 factors: every restart
	// already recomputes the true residual b−A·x and the convergence test
	// runs on it, so a rounded factor can slow convergence but never fake it.
	st.Precision = precisionOf(pre)
	ws := opt.Work
	if ws == nil {
		ws = NewWorkspace(opt.Workers)
		defer ws.Close()
	}
	ws.reset()
	ws.prepMatVec(a, opt.MatBlocked)
	wa, _ := pre.(parApplier)
	apply := func(dst, src []float64) {
		t0 := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
		if wa != nil {
			wa.applyPar(dst, src, ws)
		} else {
			pre.Apply(dst, src)
		}
		st.PrecondApply += time.Since(t0)
	}

	x := ws.vec(n)
	if x0 != nil {
		copy(x, x0)
	} else {
		linalg.Zero(x)
	}
	bnorm := linalg.Norm2(b)
	if bnorm == 0 {
		st.Converged = true
		return x, st, nil
	}

	// Krylov basis (m+1 vectors) and Hessenberg in Givens-reduced form.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = ws.vec(n)
	}
	h := ws.hessenberg(m+1, m)
	cs := ws.vec(m)
	sn := ws.vec(m)
	g := ws.vec(m + 1)
	w := ws.vec(n)
	pw := ws.vec(n)
	r := ws.vec(n)
	pr := ws.vec(n)
	yBuf := ws.vec(m)

	totalIt := 0
	for totalIt < opt.MaxIter {
		// r = M⁻¹(b − A·x); the true (unpreconditioned) residual for the
		// convergence check falls out of the same mat-vec.
		ws.matvec(w, x)
		var ss float64
		for i := range b {
			d := b[i] - w[i]
			ss += d * d
		}
		trueRes := math.Sqrt(ss) / bnorm
		linalg.Sub(r, b, w)
		apply(pr, r)
		copy(r, pr)
		beta := linalg.Norm2(r)
		if trueRes <= opt.Tol {
			st.Iterations, st.Residual, st.Converged = totalIt, trueRes, true
			return x, st, nil
		}
		// A non-finite residual (NaN/Inf seed or restart blow-up) can never
		// converge; fail now instead of burning MaxIter iterations —
		// warm-start callers fall back to a cold solve on this error.
		if math.IsNaN(trueRes) || math.IsInf(trueRes, 0) {
			st.Iterations = totalIt
			return x, st, fmt.Errorf("solver: GMRES residual is non-finite at iteration %d: %w", totalIt, ErrStalled)
		}
		if beta == 0 {
			st.Iterations, st.Residual, st.Converged = totalIt, trueRes, trueRes <= opt.Tol
			return x, st, nil
		}
		for i := range v[0] {
			v[0][i] = r[i] / beta
		}
		linalg.Zero(g)
		g[0] = beta

		var k int
		for k = 0; k < m && totalIt < opt.MaxIter; k++ {
			totalIt++
			// w = M⁻¹·A·v[k]
			ws.matvec(pw, v[k])
			apply(w, pw)
			// Modified Gram–Schmidt.
			for j := 0; j <= k; j++ {
				hjk := linalg.Dot(w, v[j])
				h.Set(j, k, hjk)
				linalg.Axpy(-hjk, v[j], w)
			}
			hn := linalg.Norm2(w)
			h.Set(k+1, k, hn)
			if hn > 0 {
				for i := range v[k+1] {
					v[k+1][i] = w[i] / hn
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for j := 0; j < k; j++ {
				t1 := cs[j]*h.At(j, k) + sn[j]*h.At(j+1, k)
				t2 := -sn[j]*h.At(j, k) + cs[j]*h.At(j+1, k)
				h.Set(j, k, t1)
				h.Set(j+1, k, t2)
			}
			// New rotation annihilating h[k+1,k].
			c, s := givens(h.At(k, k), h.At(k+1, k))
			cs[k], sn[k] = c, s
			h.Set(k, k, c*h.At(k, k)+s*h.At(k+1, k))
			h.Set(k+1, k, 0)
			g[k+1] = -s * g[k]
			g[k] = c * g[k]
			if math.Abs(g[k+1])/bnorm <= opt.Tol/10 || hn == 0 {
				k++
				break
			}
		}
		// Solve the k×k triangular system and update x.
		y := yBuf[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h.At(i, j) * y[j]
			}
			y[i] = s / h.At(i, i)
		}
		for j := 0; j < k; j++ {
			linalg.Axpy(y[j], v[j], x)
		}
	}
	ws.matvec(w, x)
	linalg.Sub(r, b, w)
	res := linalg.Norm2(r) / bnorm
	st.Iterations, st.Residual = totalIt, res
	if res <= opt.Tol {
		st.Converged = true
		return x, st, nil
	}
	return x, st, fmt.Errorf("solver: GMRES did not converge in %d iterations (residual %g): %w", totalIt, res, ErrStalled)
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
//
//stressvet:noalloc
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}
