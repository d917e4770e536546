"""Dense complex linear-algebra primitives.

Adaptive cross approximation of sampled blocks, SVD-based recompression of
low-rank factors, Gram-based truncation of small dense blocks,
accuracy-truncated Hermitian eigendecomposition of Gram matrices, and a
pivoted dense inverse. Everything works on complex128 numpy arrays and is
pure (no hidden state), so concurrent calls are safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class AcaRankExceeded(RuntimeError):
    """Raised when ACA hits the hard rank cap before converging.

    The partial factorization accumulated so far is attached as .partial.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class SingularMatrixError(RuntimeError):
    """Raised on a pivot too small to invert; .pivot_index names the pivot."""

    def __init__(self, message, pivot_index):
        super().__init__(message)
        self.pivot_index = pivot_index


class NotHermitianError(ValueError):
    pass


@dataclass
class LowRankFactor:
    """Low-rank factorization M ~= a @ b.T (plain transpose, no conjugation)."""

    a: np.ndarray  # (m, k)
    b: np.ndarray  # (n, k)

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise ValueError("factors must be 2-D")
        if self.a.shape[1] != self.b.shape[1]:
            raise ValueError("factor ranks disagree")

    @property
    def rank(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return (self.a.shape[0], self.b.shape[0])

    def to_dense(self):
        return self.a @ self.b.T


@dataclass
class CompressionParams:
    """Tolerances for the two-step compression (cross approximation + SVD trim)."""

    eps_aca: float = 1e-5
    eps_acc: float = 1e-5
    max_rank: int = 200

    def __post_init__(self):
        if not (0.0 < self.eps_acc <= self.eps_aca < 1.0):
            raise ValueError("need 0 < eps_acc <= eps_aca < 1")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")


def empty_factor(m, n):
    """The rank-0 factor of an (m, n) block."""
    return LowRankFactor(
        np.zeros((m, 0), dtype=np.complex128), np.zeros((n, 0), dtype=np.complex128)
    )


def aca_factorize(oracle, shape, eps_aca, max_rank=None):
    """Partially pivoted adaptive cross approximation of a sampled block.

    oracle(rows, cols) must return the dense sub-block for integer index
    arrays ``rows`` x ``cols`` and be pure/reentrant; only single rows and
    single columns are requested. Stops once the latest cross satisfies
    ||a_k|| * ||b_k|| <= eps_aca * ||M_k||_F (incremental Frobenius estimate);
    the terminating cross is not appended, so an exactly rank-r block comes
    back with rank r.

    The crosses live in preallocated (m, cap) and (n, cap) arrays, so each
    residual row or column is one GEMV against the factors so far and the
    Frobenius cross term is two more; no Python loop runs over the crosses.

    Raises AcaRankExceeded (a copy of the partial factorization attached)
    if max_rank crosses are accumulated without meeting the stopping rule.
    """
    m, n = shape
    if m <= 0 or n <= 0:
        raise ValueError("index sets must be non-empty")
    full = min(m, n)
    if max_rank is None:
        max_rank = min(full, 200)
    cap = min(max_rank, full)

    all_cols = np.arange(n)
    all_rows = np.arange(m)
    a_buf = np.empty((m, cap), dtype=np.complex128)
    b_buf = np.empty((n, cap), dtype=np.complex128)
    k = 0  # crosses accepted so far: a_buf[:, :k] @ b_buf[:, :k].T
    used_rows = np.zeros(m, dtype=bool)
    used_cols = np.zeros(n, dtype=bool)
    fro2 = 0.0  # running ||M_k||_F^2 estimate
    next_row = 0

    while True:
        a, b = a_buf[:, :k], b_buf[:, :k]
        # residual row at the pivot row; skip rows that are already resolved
        row = None
        while next_row is not None:
            i = next_row
            used_rows[i] = True
            r = np.asarray(oracle(np.array([i]), all_cols), dtype=np.complex128).ravel()
            r -= b @ a[i]
            r[used_cols] = 0.0
            if np.any(r != 0.0):
                row = r
                break
            free = np.flatnonzero(~used_rows)
            next_row = int(free[0]) if free.size else None
        if row is None:
            break  # no pivot left anywhere: block fully resolved

        j = int(np.argmax(np.abs(row)))
        pivot = row[j]
        used_cols[j] = True
        b_new = row / pivot

        a_new = np.asarray(oracle(all_rows, np.array([j])), dtype=np.complex128).ravel()
        a_new -= a @ b[j]

        # incremental Frobenius update:
        # ||M_k||^2 = ||M_{k-1}||^2 + ||a||^2 ||b||^2 + 2 Re sum_i (a_i^H a)(b_i^H b)
        # where conj(a_i^H a) = (A^T conj(a))_i: conjugating the new vector
        # avoids copying the factors
        na2 = float(np.real(np.vdot(a_new, a_new)))
        nb2 = float(np.real(np.vdot(b_new, b_new)))
        cross = float(np.real((a.T @ a_new.conj()) @ (b.T @ b_new.conj())))
        fro2_new = max(fro2 + na2 * nb2 + 2.0 * cross, 0.0)

        if na2 * nb2 <= eps_aca**2 * fro2_new:
            break  # converged; terminating cross is negligible, drop it

        a_buf[:, k] = a_new
        b_buf[:, k] = b_new
        k += 1
        fro2 = fro2_new

        if k >= full:
            break  # factorization is complete at full rank
        if k >= cap:
            partial = LowRankFactor(a_buf[:, :k].copy(), b_buf[:, :k].copy())
            raise AcaRankExceeded(
                f"ACA stalled at rank cap {cap} (block {m}x{n})", partial
            )

        masked = np.where(used_rows, 0.0, np.abs(a_new))
        if np.any(masked != 0.0):
            next_row = int(np.argmax(masked))
        else:
            free = np.flatnonzero(~used_rows)
            next_row = int(free[0]) if free.size else None

    return LowRankFactor(a_buf[:, :k].copy(), b_buf[:, :k].copy())


# headroom inside the truncation threshold: the cross-approximation error
# estimate is itself only accurate to O(1), and the two stages must compose
# to eps_aca + eps_acc overall
_TRUNC_SAFETY = 0.75


def recompress_lowrank(f, eps_acc):
    """Trim a low-rank factor to its accuracy rank via QR + core SVD.

    Keeps singular values with sigma_i > 0.75 * eps_acc * sigma_1. A ratio
    criterion (rather than a Frobenius-tail sum) makes a second application
    at the same tolerance a no-op. Cost O(k^2 (m + n)) for rank-k input.
    """
    if f.rank == 0:
        return f
    qa, ra = np.linalg.qr(f.a)
    qb, rb = np.linalg.qr(f.b)
    u, s, vh = np.linalg.svd(ra @ rb.T)
    if s[0] == 0.0:
        return empty_factor(*f.shape)
    k = int(np.sum(s > _TRUNC_SAFETY * eps_acc * s[0]))
    a = qa @ (u[:, :k] * s[:k])
    b = qb @ vh[:k].T  # (V^H)^T on the right of Qb reproduces B's side
    return LowRankFactor(a, b)


_HERM_TOL = 1e-12  # relative Frobenius norm of g - g^H that counts as Hermitian


def trunc_eig_hermitian(g, eps_acc):
    """Accuracy-truncated eigendecomposition of a Hermitian PSD Gram matrix.

    Returns (p, k): the k dominant orthonormal eigenvectors, with k the
    smallest count such that sqrt(lambda_{k+1} / lambda_1) <= eps_acc. The
    square root reflects that eigenvalues of a Gram matrix are squared
    singular values of the block it represents.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("expected a square matrix")
    nrm = np.linalg.norm(g)
    if nrm > 0 and np.linalg.norm(g - g.conj().T) > _HERM_TOL * nrm:
        raise NotHermitianError("matrix is not Hermitian to tolerance")
    if g.shape[0] == 0 or nrm == 0.0:
        return np.zeros((g.shape[0], 0), dtype=np.complex128), 0
    lam, vec = np.linalg.eigh(g)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    lam = np.maximum(lam, 0.0)  # PSD up to roundoff
    if lam[0] <= 0.0:
        return np.zeros((g.shape[0], 0), dtype=np.complex128), 0
    keep = np.sqrt(lam / lam[0]) > eps_acc
    k = int(np.sum(keep))
    return np.ascontiguousarray(vec[:, :k]), k


def truncate_via_gram(mat, eps_acc):
    """Accuracy-truncated factor of a dense block with few rows.

    Keeps the eigenvectors U_k of the (m, m) Gram matrix M M^H with
    lambda_i > (0.75 * eps_acc)^2 * lambda_1, the ratio rule of
    recompress_lowrank stated for squared singular values. With
    M^T conj(U_k) = Q R (thin QR) it returns a = U_k R^T and b = Q, so that
    a @ b.T = U_k U_k^H M and, as in recompress_lowrank, b has orthonormal
    columns while a carries the weights. The QR keeps b orthonormal to
    round-off; scaling M^T conj(U_k) by 1 / sigma_i instead is off by about
    1e-16 / (sigma_k / sigma_1)^2. For a short, wide block the Gram
    eigendecomposition costs far less than an SVD of M itself. The
    eigenvalues resolve singular values down to about 1e-8 * sigma_1 only:
    a smaller eps_acc is met only to about that level, and the rank then
    also counts round-off directions.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    u, _ = trunc_eig_hermitian(mat @ mat.conj().T, _TRUNC_SAFETY * eps_acc)
    q, r = np.linalg.qr(mat.T @ u.conj())
    return LowRankFactor(u @ r.T, q)


def dense_lu_invert(m):
    """Invert a dense matrix by LU with partial pivoting.

    Raises SingularMatrixError naming the offending pivot when any pivot
    falls below 1e-14 * ||m||_F.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if m.shape[0] == 0:
        return m.copy()
    nrm = np.linalg.norm(m)
    if nrm == 0.0:
        raise SingularMatrixError("matrix is identically zero", 0)
    with warnings.catch_warnings():
        # singularity is detected below via the pivot floor and raised as our own error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    floor = 1e-14 * nrm
    bad = np.flatnonzero(pivots < floor)
    if bad.size:
        raise SingularMatrixError(
            f"pivot {bad[0]} is {pivots[bad[0]]:.3e}, below {floor:.3e}", int(bad[0])
        )
    return scipy.linalg.lu_solve((lu, piv), np.eye(m.shape[0], dtype=np.complex128),
                                 check_finite=False)


def dense_oracle(matrix):
    """Wrap a dense array as an (rows, cols) -> block sampling oracle."""
    matrix = np.asarray(matrix)

    def oracle(rows, cols):
        return matrix[np.ix_(rows, cols)]

    return oracle
