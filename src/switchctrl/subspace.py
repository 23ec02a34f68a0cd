"""Linear-subspace algebra over R^n with explicit numerical rank control.

Every controllability criterion in this package reduces to lattice
operations on subspaces: kernels and images of matrices, intersections,
sums, and preimages under linear maps.  A subspace is carried as an
orthonormal basis; the zero subspace is a first-class value with an
``(n, 0)`` basis.  Every rank decision is one cut of a spectrum at the
relative cutoff ``rank_tol``, made by :func:`rank_of`; a fixpoint step
``V ∩ M^{-1} T`` makes one, on the map restricted to ``V``
(:func:`restricted_preimage`, after Basile & Marro).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative singular-value cutoff used by every rank decision.
DEFAULT_RANK_TOL = 1e-9

#: Tolerance for the orthonormality invariant of stored bases.
ORTHONORMALITY_TOL = 1e-10

#: Entries of a canonical basis vector below this magnitude are set to zero.
SNAP_TOL = 1e-12


def _as_float_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    return M


def rank_of(s, rank_tol: float = DEFAULT_RANK_TOL, scale: float | None = None) -> int:
    """Number of the descending values ``s`` above ``rank_tol * scale``.

    The one rank cut of the package: every rank decision (the SVD-based
    functions below and the Gramian test of ``synth.gramian_factor``) goes
    through it.  ``scale`` defaults to the largest value ``s[0]``, so an
    empty or all-zero ``s`` has rank 0.
    """
    s = np.asarray(s, dtype=float)
    if scale is None:
        scale = s[0] if s.size else 0.0
    return int(np.count_nonzero(s > rank_tol * scale))


def numerical_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank of ``M``: number of singular values above ``rank_tol * sigma_max``."""
    return rank_of(np.linalg.svd(_as_float_matrix(M), compute_uv=False), rank_tol)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n represented by an orthonormal basis.

    ``basis`` has shape ``(n, k)`` with orthonormal columns; ``k == 0``
    encodes the zero subspace.  Instances are immutable (the array is
    marked read-only).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float, copy=True)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array of shape (n, k)")
        n, k = b.shape
        if k > n:
            raise ValueError(f"dimension {k} exceeds ambient dimension {n}")
        if k:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
                raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(np.zeros((n, 0)))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))

    @staticmethod
    def span_of(*vectors) -> "Subspace":
        return orthonormalize(list(vectors))

    # -- basic queries -----------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (symmetric, idempotent)."""
        return self.basis @ self.basis.T

    def contains_vector(self, x, tol: float = 1e-8) -> bool:
        x = np.asarray(x, dtype=float)
        r = x - self.basis @ (self.basis.T @ x)
        return float(np.linalg.norm(r)) <= tol * max(1.0, float(np.linalg.norm(x)))

    def contains(self, other: "Subspace", tol: float = 1e-8) -> bool:
        """Whether ``other`` is contained in this subspace, up to ``tol``."""
        self._check_ambient(other)
        if other.dim == 0:
            return True
        if other.dim > self.dim:
            return False
        r = other.basis - self.basis @ (self.basis.T @ other.basis)
        return float(np.linalg.norm(r, 2)) <= tol

    def isclose(self, other: "Subspace", tol: float = 1e-8) -> bool:
        """Subspace equality as mutual containment (bases are non-unique)."""
        return self.contains(other, tol) and other.contains(self, tol)

    def distance(self, other: "Subspace") -> float:
        """Spectral-norm gap between the two orthogonal projectors."""
        self._check_ambient(other)
        return float(np.linalg.norm(self.projector() - other.projector(), 2))

    # -- lattice operations ------------------------------------------------

    def intersect(self, other: "Subspace", rank_tol: float = DEFAULT_RANK_TOL) -> "Subspace":
        """Intersection, via the joint kernel of the two projector residuals."""
        self._check_ambient(other)
        n = self.ambient_dim
        eye = np.eye(n)
        stacked = np.vstack([eye - self.projector(), eye - other.projector()])
        # Projector residuals live on scale <= 1, so rank against scale 1.
        return kernel(stacked, rank_tol, scale=1.0)

    def sum(self, other: "Subspace", rank_tol: float = DEFAULT_RANK_TOL) -> "Subspace":
        """Smallest subspace containing both operands."""
        self._check_ambient(other)
        return orthonormalize(np.hstack([self.basis, other.basis]), rank_tol)

    def __and__(self, other: "Subspace") -> "Subspace":
        return self.intersect(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        return self.sum(other)

    # -- serialization support ----------------------------------------------

    def canonical_basis(self) -> np.ndarray:
        """Representative basis: deterministic for a given ``basis``.

        Built by pivoted Gram-Schmidt on the projector columns with a sign
        convention (largest-magnitude entry positive) and snapping of
        entries below ``SNAP_TOL`` (1e-12).  The snapped representative spans
        the same subspace up to ``n * SNAP_TOL``, well inside every reporting
        tolerance used here.  Equal subspaces built by different routes
        agree to rounding except at ties: where two projector columns have
        (nearly) equal norms, or a column two (nearly) equal largest
        entries, the pivot or the sign can differ, and so can the result.
        """
        n, k = self.ambient_dim, self.dim
        if k == 0:
            return np.zeros((n, 0))
        R = self.projector()
        cols = []
        for _ in range(k):
            norms = np.linalg.norm(R, axis=0)
            j = int(np.argmax(norms))
            v = R[:, j] / norms[j]
            i = int(np.argmax(np.abs(v)))
            if v[i] < 0:
                v = -v
            v = np.where(np.abs(v) < SNAP_TOL, 0.0, v)
            v = v / np.linalg.norm(v)
            cols.append(v)
            R = R - np.outer(v, v @ R)
        return np.column_stack(cols)

    def _check_ambient(self, other: "Subspace"):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormalize(vectors, rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Span of the given vectors (iterable of 1-d arrays, or an (n, k) column matrix).

    The numerical rank keeps singular values above ``rank_tol * sigma_max``;
    an empty input yields the zero subspace of the inferred ambient dimension.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        M = np.asarray(vectors, dtype=float)
    else:
        vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
        if not vecs:
            raise ValueError("cannot infer ambient dimension from an empty vector list")
        M = np.column_stack(vecs)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return Subspace(U[:, :rank_of(s, rank_tol)])


def kernel(M, rank_tol: float = DEFAULT_RANK_TOL, scale: float | None = None) -> Subspace:
    """Null space {x : Mx = 0} of a (p, n) matrix, via SVD.

    ``scale`` optionally fixes the reference magnitude for the rank cutoff;
    callers that pass a residual matrix (entries that ought to be exact
    zeros) should supply the scale of the original data so that pure
    round-off does not masquerade as full rank.
    """
    M = _as_float_matrix(M)
    p, n = M.shape
    if p == 0 or not np.any(M):
        return Subspace.full(n)
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    return Subspace(Vt[rank_of(s, rank_tol, scale):].T)


def image(M, rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Column span of a matrix."""
    M = _as_float_matrix(M)
    return orthonormalize(M, rank_tol)


def preimage(M, V: Subspace, rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Inverse image {x : Mx in V} of a subspace under a square matrix.

    Computed as the kernel of ``(I - P_V) M``; the rank cutoff is taken
    relative to ``|M|`` so that a full target subspace (residual exactly
    zero up to round-off) maps to the full preimage.
    """
    M = _as_float_matrix(M)
    n = V.ambient_dim
    if M.shape != (n, n):
        raise ValueError(f"expected a ({n}, {n}) matrix, got {M.shape}")
    residual = M - V.basis @ (V.basis.T @ M)
    return kernel(residual, rank_tol, scale=float(np.linalg.norm(M, 2)))


def unit_norm(M) -> np.ndarray:
    """``M / |M|_2`` (``M`` when zero), the form :func:`restricted_preimage` takes."""
    M = _as_float_matrix(M)
    norm = float(np.linalg.norm(M, 2))
    return M / norm if norm > 0 else M


def restricted_preimage(V: Subspace, maps, rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """``V ∩ M_1^{-1} T_1 ∩ ... ∩ M_g^{-1} T_g`` for ``maps = [(M_i, T_i), ...]``.

    One SVD: the kernel K of the stacked ``(I - P_{T_i}) M_i V``, cut at
    scale 1, so each ``M_i`` comes at unit norm (:func:`unit_norm`).  The
    basis ``V.basis @ K`` is orthonormal as a product of orthonormal bases.
    """
    blocks = []
    for M, T in maps:
        MV = M @ V.basis
        blocks.append(MV - T.basis @ (T.basis.T @ MV))
    return Subspace(V.basis @ kernel(np.vstack(blocks), rank_tol, scale=1.0).basis)


def pseudoinverse(M, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse by SVD with relative rank truncation."""
    U, s, Vt = np.linalg.svd(_as_float_matrix(M), full_matrices=False)
    r = rank_of(s, rank_tol)
    return (Vt[:r].T / s[:r]) @ U[:, :r].T
