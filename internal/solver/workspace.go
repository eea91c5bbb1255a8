package solver

import (
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Workspace pools the state an iterative solve reuses across calls: the work
// vectors, the GMRES Hessenberg, the pooled matrix-vector op with its
// nnz-balanced row partition, the triangular-solve scratch, and the resident
// sparse.Pool every parallel kernel of the solve dispatches through. Every
// PCG and GMRES solve runs on one: Options.Work supplies a reusable
// workspace, and without it the solver creates one per call. With a
// Workspace in Options.Work and a prebuilt preconditioner in Options.M, the
// PCG hot loop performs zero allocations in steady state — no vector makes,
// no closure per mat-vec, no goroutine fan-out (see BenchmarkPCGNoAlloc).
//
// Create one with NewWorkspace; the zero value has no pool and is not
// usable. A Workspace serves one solve at a time; it is not safe for
// concurrent use.
// The solution slice returned by a workspace-backed solve is owned by the
// workspace and is only valid until its next solve — copy it to retain it.
type Workspace struct {
	pool *sparse.Pool

	vecs [][]float64
	used int

	// The mat-vec binding of the current solve, with its work-balanced
	// chunk partition: the scalar op, or the blocked one (blocked set) when
	// prepMatVec received the 3×3-tiled form of the matrix.
	mv        sparse.MatVec
	mvBounds  []int32
	bmv       sparse.BlockMatVec
	bmvBounds []int32
	blocked   bool
	tri       sparse.TriScratch
	btri      sparse.BlockTriScratch
	// permBuf is the scratch of permuted preconditioner applications
	// (ic0 under a non-natural ordering). A dedicated field rather than a
	// vec(): applyPar runs once per iteration, and the vec free-list is
	// consumed positionally per solve.
	permBuf []float64

	h *linalg.Dense // GMRES Hessenberg, reused when the restart length matches
}

// NewWorkspace creates a workspace around a resident pool of the given total
// parallelism: workers−1 goroutines plus the solving goroutine, so parallel
// kernels dispatch without spawning. workers ≤ 1 gives a serial workspace
// that starts no goroutines. Close releases the pool's goroutines.
func NewWorkspace(workers int) *Workspace {
	return &Workspace{pool: sparse.NewPool(workers)}
}

// Close releases the resident worker gang. The workspace remains usable
// afterwards (serially); Close is idempotent.
func (w *Workspace) Close() { w.pool.Close() }

// reset starts a new solve: every pooled vector returns to the free list and
// the mat-vec binding is cleared.
func (w *Workspace) reset() {
	w.used = 0
	w.mv = sparse.MatVec{}
	w.bmv = sparse.BlockMatVec{}
	w.blocked = false
}

// vec returns a length-n scratch vector with unspecified contents (callers
// initialize). Vectors are handed out in call order, so a solver's fixed
// take sequence reuses the same backing arrays every solve.
func (w *Workspace) vec(n int) []float64 {
	if w.used < len(w.vecs) && cap(w.vecs[w.used]) >= n {
		v := w.vecs[w.used][:n]
		w.used++
		return v
	}
	v := make([]float64, n)
	if w.used < len(w.vecs) {
		w.vecs[w.used] = v
	} else {
		w.vecs = append(w.vecs, v)
	}
	w.used++
	return v
}

// permScratch returns the length-n permute buffer, growing it at most once
// per size increase (steady-state solves reuse one backing array, so the
// zero-allocation contract extends to permuted preconditioners).
func (w *Workspace) permScratch(n int) []float64 {
	if cap(w.permBuf) < n {
		w.permBuf = make([]float64, n)
	}
	return w.permBuf[:n]
}

// prepMatVec binds the matrix-vector product to a for the duration of a
// solve: the work-balanced row partition — one chunk per pool worker, a
// single chunk below MinParRows — is computed once here and reused by every
// matvec call of the solve. When bm supplies the 3×3-tiled form of the same
// matrix, the blocked kernel takes over, partitioned over block rows
// weighted by tile count (the blocked work profile).
func (w *Workspace) prepMatVec(a *sparse.CSR, bm *sparse.BCSR) {
	parts := w.pool.Workers()
	if a.NRows < sparse.MinParRows {
		parts = 1
	}
	if bm != nil && bm.NRows == a.NRows && bm.NCols == a.NCols {
		w.bmvBounds = sparse.PartitionByWorkInto(w.bmvBounds, bm.BRowPtr, 0, bm.NBRows(), parts)
		w.bmv.M = bm
		w.blocked = true
		return
	}
	w.mvBounds = sparse.PartitionByWorkInto(w.mvBounds, a.RowPtr, 0, a.NRows, parts)
	w.mv.M = a
}

// matvec computes dst = A·x for the matrix prepMatVec bound, through the
// pool (allocation-free).
//
//stressvet:noalloc
func (w *Workspace) matvec(dst, x []float64) {
	if w.blocked {
		w.bmv.Dst, w.bmv.X = dst, x
		w.pool.Run(w.bmvBounds, &w.bmv)
		return
	}
	w.mv.Dst, w.mv.X = dst, x
	w.pool.Run(w.mvBounds, &w.mv)
}

// hessenberg returns a pooled (rows × cols) dense matrix for GMRES.
func (w *Workspace) hessenberg(rows, cols int) *linalg.Dense {
	if w.h == nil || w.h.Rows != rows || w.h.Cols != cols {
		w.h = linalg.NewDense(rows, cols)
		return w.h
	}
	linalg.Zero(w.h.Data)
	return w.h
}
