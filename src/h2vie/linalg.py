"""Dense complex linear-algebra primitives.

Adaptive cross approximation of sampled blocks, the one accuracy-truncated
SVD that every rank decision of the build goes through (truncated_svd),
recompression of low-rank factors through it, and a pivoted dense inverse.
Everything works on complex128 numpy arrays and is pure (no hidden state),
so concurrent calls are safe. CompressionParams also names the precision
in which an H2Matrix stores its payloads.
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
    """Raised on a matrix that cannot be inverted.

    .pivot_index names a pivot too small to invert, or is None when the
    matrix holds a non-finite entry.
    """

    def __init__(self, message, pivot_index):
        super().__init__(message)
        self.pivot_index = pivot_index


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


# eps_acc from which the couplings and the near field are stored in
# complex64: the representation is then good to about 1e-5, and complex64's
# unit roundoff (6e-8) does not touch that
SINGLE_PAYLOAD_EPS = 1e-4


@dataclass
class CompressionParams:
    """Tolerances for the two-step compression (cross approximation + SVD trim).

    Both tolerances are required: eps_aca stops the cross approximation,
    eps_acc sets every SVD trim, and every caller in the package passes the
    one accuracy as both. max_rank caps the rank of every Stage I factor.
    eps_acc also fixes the precision of the stored couplings and near
    field, payload_dtype: complex64 when eps_acc >= 1e-4, complex128 below.
    The build, the bases, the sweeps of the apply and the formatted
    arithmetic work in complex128 either way.
    """

    eps_aca: float
    eps_acc: float
    max_rank: int = 200

    def __post_init__(self):
        if not (0.0 < self.eps_acc <= self.eps_aca < 1.0):
            raise ValueError("need 0 < eps_acc <= eps_aca < 1")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")

    @property
    def payload_dtype(self):
        """dtype of the couplings and near-field blocks of an H2Matrix."""
        return np.dtype(np.complex64 if self.eps_acc >= SINGLE_PAYLOAD_EPS else np.complex128)


def empty_factor(m, n):
    """The rank-0 factor of an (m, n) block."""
    return LowRankFactor(
        np.zeros((m, 0), dtype=np.complex128), np.zeros((n, 0), dtype=np.complex128)
    )


def aca_factorize(oracle, shape, eps_aca, max_rank):
    """Partially pivoted adaptive cross approximation of a sampled block.

    oracle(rows, cols) must return the dense sub-block for integer index
    arrays ``rows`` x ``cols`` and be pure/reentrant; only single rows and
    single columns are requested. Stops once the latest cross satisfies
    ||a_k|| * ||b_k|| <= eps_aca * ||M_k||_F (incremental Frobenius estimate);
    the terminating cross is not appended, so an exactly rank-r block comes
    back with rank r. Pivot rows start at row 0; each next one is the largest
    unused entry of the latest column, and a row whose residual is zero, or
    a column with no unused entry left, moves on to the first unused row.

    The crosses live in preallocated (m, cap) and (n, cap) arrays, so each
    residual row or column is one GEMV against the factors so far and the
    Frobenius cross term is two more; no Python loop runs over the crosses.

    max_rank is the rank cap, CompressionParams.max_rank in the build.
    Raises AcaRankExceeded (a copy of the partial factorization attached)
    if max_rank crosses are accumulated without meeting the stopping rule.
    """
    m, n = shape
    if m <= 0 or n <= 0:
        raise ValueError("index sets must be non-empty")
    if max_rank < 1:
        raise ValueError("max_rank must be >= 1")
    full = min(m, n)
    cap = min(max_rank, full)

    all_cols = np.arange(n)
    all_rows = np.arange(m)
    a_buf = np.empty((m, cap), dtype=np.complex128)
    b_buf = np.empty((n, cap), dtype=np.complex128)
    k = 0  # crosses accepted so far: a_buf[:, :k] @ b_buf[:, :k].T
    used_rows = np.zeros(m, dtype=bool)
    used_cols = np.zeros(n, dtype=bool)
    fro2 = 0.0  # running ||M_k||_F^2 estimate

    def first_unused_row():
        free = np.flatnonzero(~used_rows)
        return int(free[0]) if free.size else None

    i = 0  # pivot row; None once every row is used
    while i is not None:
        a, b = a_buf[:, :k], b_buf[:, :k]
        used_rows[i] = True
        row = np.asarray(oracle(np.array([i]), all_cols), dtype=np.complex128).ravel()
        row -= b @ a[i]
        row[used_cols] = 0.0
        if not row.any():
            i = first_unused_row()  # row already resolved: try the next one
            continue

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

        # next pivot: the largest unused entry of the new column
        masked = np.where(used_rows, 0.0, np.abs(a_new))
        i = int(np.argmax(masked)) if masked.any() else first_unused_row()

    return LowRankFactor(a_buf[:, :k].copy(), b_buf[:, :k].copy())


# headroom inside the truncation threshold: the cross-approximation error
# estimate is itself only accurate to O(1), and the two stages must compose
# to eps_aca + eps_acc overall
TRUNC_SAFETY = 0.75


def truncated_svd(mat, tol):
    """Accuracy-truncated SVD: mat ~= (U_k * s_k) @ Vh_k.

    Keeps the singular values with s_i > tol * s_1. A ratio rule (rather
    than a Frobenius-tail sum) makes a second truncation at the same tol a
    no-op. A wide block (more columns than rows) is first reduced by the
    thin QR M^T = Q R: the SVD then runs on the small square R^T, and Vh is
    formed for the k kept rows only. A zero or empty block gives k = 0.
    Returns (U_k, s_k, Vh_k) with orthonormal columns of U_k and rows of
    Vh_k.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    wide = mat.shape[1] > mat.shape[0]
    if wide:
        q, r = np.linalg.qr(mat.T)
        mat = r.T
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    k = int(np.count_nonzero(s > tol * s.max(initial=0.0)))
    vh = vh[:k] @ q.T if wide else vh[:k]
    return np.ascontiguousarray(u[:, :k]), s[:k], vh


def recompress_lowrank(f, eps_acc):
    """Trim a low-rank factor to its accuracy rank via QR + core SVD.

    Keeps singular values with sigma_i > 0.75 * eps_acc * sigma_1
    (truncated_svd of the k x k core). Returns a = Q_a U_k Sigma_k and an
    orthonormal b = Q_b conj(V_k). Cost O(k^2 (m + n)) for rank-k input.
    """
    if f.rank == 0:
        return f
    qa, ra = np.linalg.qr(f.a)
    qb, rb = np.linalg.qr(f.b)
    u, s, vh = truncated_svd(ra @ rb.T, TRUNC_SAFETY * eps_acc)
    return LowRankFactor(qa @ (u * s), qb @ vh.T)


def dense_lu_invert(m):
    """Invert a dense matrix by LU with partial pivoting.

    Raises SingularMatrixError naming the first non-finite entry, if any,
    before factoring, and naming the offending pivot when any pivot falls
    below 1e-14 * ||m||_F.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if m.shape[0] == 0:
        return m.copy()
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise SingularMatrixError(f"entry ({i}, {j}) is {m[i, j]}, not finite", None)
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
