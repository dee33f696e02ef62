package matrix

import (
	"fmt"
	"math"
)

// krylov.go: Lanczos (symmetric Arnoldi) approximation of the matrix
// exponential acting on a vector, w ≈ e^{t·A}·v, without ever materializing
// e^{t·A}. This is the transient kernel of the sparse thermal path: the
// whitened thermal system Â = −A^{-1/2}·B·A^{-1/2} is symmetric negative
// semidefinite, so the Lanczos process applies, the Ritz approximation
//
//	w_m = β · V_m · e^{t·T_m} · e₁ ,   β = ‖v‖₂ ,
//
// is a projection onto the Krylov subspace K_m(A, v), and convergence is
// superlinear once m exceeds √(t·ρ(A)) (Hochbruck & Lubich 1997; restated
// with constants in docs/THEORY.md). The subspace dimension m is chosen
// adaptively per call from the a-posteriori bound derived from Saad's exact
// error representation (Saad 1992, Thm. 5.1):
//
//	‖e^{t·A}v − w_m‖ ≤ β · h_{m+1,m} · ∫₀ᵗ |e_mᵀ e^{s·T_m} e₁| ds ,
//
// valid whenever λ_max(A) ≤ 0 (then ‖e^{s·A}‖₂ ≤ 1), which the whitened
// thermal operator satisfies by construction. The integral is evaluated in
// the eigenbasis of T_m via φ₁(s) = (e^s − 1)/s with the mode sum taken
// signed: the integrand e_mᵀe^{s·T_m}e₁ ≈ s^{m−1}·∏β_i/(m−1)! is
// single-signed to leading order in the t·ρ(A) = O(1) regime the kernel is
// built for, so the signed sum equals ∫|·| up to roundoff while preserving
// the superlinear decay in m. (Summing per-mode absolute values instead
// would be a hard bound but stalls around h·t — it never reaches tight
// tolerances and silently pins every call at the subspace cap.) For
// strongly oscillatory regimes the quantity is an estimate, not a bound.
// The differential test suite pins the kernel against the dense
// eigendecomposition path on ≥100 random systems.

// SymOp is a symmetric linear operator given implicitly by its
// matrix–vector product — the interface the matrix-free Krylov kernels
// consume. MulVecTo must compute dst = A·x without allocating; dst and x
// have length Dim() and never alias each other when called by this package.
type SymOp interface {
	Dim() int
	MulVecTo(dst, x []float64)
}

// KrylovExpm computes e^{t·A}·v products for a fixed symmetric operator A
// with per-instance scratch, so that every call after construction is
// allocation-free. Like thermal.Stepper, a KrylovExpm is confined to one
// goroutine at a time; build one per worker (construction costs O(maxDim·n)
// memory and nothing else). The operator itself is only read.
type KrylovExpm struct {
	op     SymOp
	n      int
	maxDim int
	tol    float64

	basis []float64 // (maxDim+1)×n Lanczos vectors, row-major
	w     []float64 // matvec scratch, length n
	alpha []float64 // tridiagonal diagonal, length maxDim
	beta  []float64 // tridiagonal subdiagonal, length maxDim (beta[j] couples j, j+1)
	d, e  []float64 // destroyed copies for the QL sweep, length maxDim
	z     []float64 // maxDim×maxDim eigenvector workspace for the QL sweep
	y     []float64 // e^{tT}e₁ coefficients, length maxDim
}

// DefaultKrylovDim is the default subspace cap. The thermal stepper's
// spectra satisfy t·ρ(Â) = O(1) per step, where Lanczos reaches 1e-12
// in well under 30 dimensions; 64 leaves generous slack for long steps
// (τ-adaptation rebuilds) without noticeable memory cost.
const DefaultKrylovDim = 64

// DefaultKrylovTol is the default relative error target of ExpmVTo,
// comfortably below the 1e-9 K dense-vs-sparse equivalence bound the
// thermal golden tests enforce.
const DefaultKrylovTol = 1e-12

// NewKrylovExpm builds a Krylov exponential kernel over op with the given
// subspace cap and relative error target; maxDim ≤ 0 and tol ≤ 0 select
// DefaultKrylovDim and DefaultKrylovTol.
func NewKrylovExpm(op SymOp, maxDim int, tol float64) *KrylovExpm {
	if maxDim <= 0 {
		maxDim = DefaultKrylovDim
	}
	if tol <= 0 {
		tol = DefaultKrylovTol
	}
	n := op.Dim()
	if maxDim > n {
		maxDim = n
	}
	return &KrylovExpm{
		op: op, n: n, maxDim: maxDim, tol: tol,
		basis: make([]float64, (maxDim+1)*n),
		w:     make([]float64, n),
		alpha: make([]float64, maxDim),
		beta:  make([]float64, maxDim),
		d:     make([]float64, maxDim),
		e:     make([]float64, maxDim),
		z:     make([]float64, maxDim*maxDim),
		y:     make([]float64, maxDim),
	}
}

// Dim returns the operator dimension.
func (k *KrylovExpm) Dim() int { return k.n }

// ExpmVTo computes dst ≈ e^{t·A}·v into dst (length Dim()) and reports the
// subspace dimension used and the a-posteriori error estimate relative to
// ‖v‖₂. It allocates nothing; dst may alias v (v is consumed into the
// Krylov basis before dst is written). The Lanczos vectors are kept fully
// reorthogonalized, so the result is deterministic and orthogonality loss
// cannot inflate the subspace. An error is returned only if the inner
// tridiagonal eigensolve fails or a non-finite value appears — neither
// occurs for the negative-semidefinite whitened thermal operator with
// finite inputs.
//
// If the estimate has not reached tol·‖v‖ at the subspace cap, the best
// available approximation is still written to dst and the (larger) estimate
// returned — callers that need a hard guarantee must check est themselves.
func (k *KrylovExpm) ExpmVTo(dst []float64, t float64, v []float64) (dim int, est float64, err error) {
	n := k.n
	if len(v) != n || len(dst) != n {
		panic(fmt.Sprintf("matrix: ExpmVTo got dst %d, v %d, want %d", len(dst), len(v), n))
	}

	beta0 := VecNorm2(v)
	if beta0 == 0 || t == 0 {
		// e^{0}·v = v; e^{tA}·0 = 0.
		copy(dst, v)
		return 0, 0, nil
	}

	v0 := k.basis[:n]
	inv := 1 / beta0
	for i, x := range v {
		v0[i] = x * inv
	}

	m := 0
	happy := false
	for m < k.maxDim {
		vj := k.basis[m*n : (m+1)*n]
		k.op.MulVecTo(k.w, vj)
		a := Dot(vj, k.w)
		k.alpha[m] = a
		// Three-term recurrence ...
		axpy(k.w, -a, vj)
		if m > 0 {
			axpy(k.w, -k.beta[m-1], k.basis[(m-1)*n:m*n])
		}
		// ... plus full reorthogonalization (one classical Gram–Schmidt
		// pass) to keep the basis orthonormal to working precision.
		for p := 0; p <= m; p++ {
			vp := k.basis[p*n : (p+1)*n]
			axpy(k.w, -Dot(vp, k.w), vp)
		}
		b := VecNorm2(k.w)
		m++
		if b <= 1e-14*beta0 || m == k.maxDim {
			// Happy breakdown: K_m is invariant and the projection exact
			// (up to roundoff) — or the cap is reached; either way stop
			// expanding and take the current subspace.
			happy = b <= 1e-14*beta0
			k.beta[m-1] = b
			break
		}
		k.beta[m-1] = b
		vnext := k.basis[m*n : (m+1)*n]
		invb := 1 / b
		for i, x := range k.w {
			vnext[i] = x * invb
		}
		// Convergence check. The small eigensolve is O(m³) with m ≤
		// maxDim; checking every iteration keeps m minimal, which the
		// matvec savings repay many times over on large operators.
		if est, err = k.smallExp(t, m); err != nil {
			return m, est, err
		}
		if est <= k.tol {
			k.assemble(dst, beta0, m)
			return m, est, nil
		}
	}

	if est, err = k.smallExp(t, m); err != nil {
		return m, est, err
	}
	if happy {
		est = 0
	}
	k.assemble(dst, beta0, m)
	if math.IsNaN(dst[0]) {
		return m, est, fmt.Errorf("matrix: ExpmVTo produced NaN (t=%g, beta0=%g)", t, beta0)
	}
	return m, est, nil
}

// smallExp diagonalizes the current m×m Lanczos tridiagonal, forms
// y = e^{t·T_m}·e₁ in k.y, and returns the a-posteriori error estimate
// β_{m} · |∫₀ᵗ e_mᵀ e^{s·T_m} e₁ ds| relative to ‖v‖₂, with the integral
// evaluated mode-wise in the eigenbasis: Σ_q z_{m,q}·z_{1,q} · t·φ₁(t·θ_q).
// The sum is signed — see the package comment for why that cancellation is
// essential and when it matches the true ∫|·| bound.
func (k *KrylovExpm) smallExp(t float64, m int) (float64, error) {
	copy(k.d[:m], k.alpha[:m])
	copy(k.e[:m], k.beta[:m])
	// Reset the used m×m block to the identity, honouring the row stride
	// maxDim — the workspace carries rotations from previous (larger) calls.
	for i := 0; i < m; i++ {
		row := k.z[i*k.maxDim : i*k.maxDim+m]
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
	}
	if err := symTridEigen(k.d[:m], k.e[:m], m, k.z, k.maxDim); err != nil {
		return math.Inf(1), err
	}
	// y = Z·diag(e^{tθ})·Zᵀ·e₁ — columns of z are eigenvectors, row 0 their
	// first components — and the residual integral accumulated per mode.
	for i := 0; i < m; i++ {
		k.y[i] = 0
	}
	var residual float64
	for q := 0; q < m; q++ {
		theta := k.d[q]
		first := k.z[0*k.maxDim+q]
		w := math.Exp(t*theta) * first
		for i := 0; i < m; i++ {
			k.y[i] += w * k.z[i*k.maxDim+q]
		}
		residual += k.z[(m-1)*k.maxDim+q] * first * t * phi1(t*theta)
	}
	return k.beta[m-1] * math.Abs(residual), nil
}

// phi1 evaluates φ₁(x) = (e^x − 1)/x stably near zero.
func phi1(x float64) float64 {
	if math.Abs(x) < 1e-8 {
		return 1 + x/2
	}
	return (math.Exp(x) - 1) / x
}

// assemble writes dst = β₀ · V_m · y.
func (k *KrylovExpm) assemble(dst []float64, beta0 float64, m int) {
	n := k.n
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < m; j++ {
		axpy(dst, beta0*k.y[j], k.basis[j*n:(j+1)*n])
	}
}

// axpy computes dst += s·x in place.
func axpy(dst []float64, s float64, x []float64) {
	if s == 0 {
		return
	}
	for i, v := range x {
		dst[i] += s * v
	}
}
