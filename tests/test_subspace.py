import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchctrl.subspace import (
    DEFAULT_RANK_TOL,
    Subspace,
    image,
    kernel,
    numerical_rank,
    orthonormalize,
    preimage,
    pseudoinverse,
    rank_of,
)


def random_matrix(rng, shape, scale=1.0):
    return scale * rng.standard_normal(shape)


def random_subspace(rng, n, k):
    if k == 0:
        return Subspace.zero(n)
    return orthonormalize(rng.standard_normal((n, k)))


# ---------------------------------------------------------------- construction


def test_orthonormalize_collinear():
    V = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    assert V.dim == 1
    assert V.isclose(Subspace.span_of(np.array([1.0, 0.0])))


def test_orthonormalize_empty_matrix_is_zero_subspace():
    V = orthonormalize(np.zeros((3, 0)))
    assert V.dim == 0 and V.ambient_dim == 3
    assert V.is_zero


def test_orthonormalize_dim_matches_independent_rank():
    # Oracle: numpy's own rank routine on the raw stacked matrix.
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = rng.integers(1, 7)
        p = rng.integers(0, 7)
        M = random_matrix(rng, (n, p))
        if p and rng.random() < 0.4:
            # force rank deficiency by duplicating a column
            j = rng.integers(0, p)
            M[:, rng.integers(0, p)] = 2.5 * M[:, j]
        V = orthonormalize(M)
        expected = np.linalg.matrix_rank(M) if M.size else 0
        assert V.dim == expected


def test_basis_invariant_enforced():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Subspace(np.eye(3)[:, :2].T @ np.eye(2) * 5)


def test_all_outputs_are_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        W = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        for S in (V & W, V + W, kernel(random_matrix(rng, (3, n))),
                  preimage(random_matrix(rng, (n, n)), V)):
            b = S.basis
            if S.dim:
                assert np.allclose(b.T @ b, np.eye(S.dim), atol=1e-10)


# ------------------------------------------------------------ kernel and image


def test_kernel_of_column_vector_transpose():
    b0 = np.array([[1.0], [0.0]])
    K = kernel(b0.T)
    assert K.dim == 1
    assert K.isclose(Subspace.span_of(np.array([0.0, 1.0])))


def test_kernel_of_invertible_matrix_is_zero():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert kernel(M).is_zero


def test_kernel_of_zero_matrix_is_full():
    assert kernel(np.zeros((2, 3))).is_full


def test_image_plus_cokernel_spans_everything():
    # Fundamental subspaces: Im(M) + Ker(M^T) = R^n, with complementary dims.
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        M = random_matrix(rng, (n, p))
        im = image(M)
        cok = kernel(M.T)
        assert im.dim + cok.dim == n
        assert (im + cok).is_full


# ------------------------------------------------------- intersection and sum


def test_intersect_coordinate_planes():
    e1, e2, e3 = np.eye(3)
    V = Subspace.span_of(e2, e3)
    W = Subspace.span_of(e1, e3)
    assert (V & W).isclose(Subspace.span_of(e3))


def test_lattice_identities():
    rng = np.random.default_rng(3)
    n = 4
    V = random_subspace(rng, n, 2)
    assert (V + Subspace.zero(n)).isclose(V)
    assert (V & Subspace.full(n)).isclose(V)
    assert (V & Subspace.zero(n)).is_zero
    assert (V + Subspace.full(n)).is_full


def test_modular_law_on_random_pairs():
    # dim V + dim W = dim(V + W) + dim(V & W)
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        W = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        assert V.dim + W.dim == (V + W).dim + (V & W).dim


def test_intersection_of_shared_span():
    rng = np.random.default_rng(23)
    n = 5
    shared = random_subspace(rng, n, 2)
    extra_v = rng.standard_normal(n)
    extra_w = rng.standard_normal(n)
    V = orthonormalize(np.column_stack([shared.basis, extra_v]))
    W = orthonormalize(np.column_stack([shared.basis, extra_w]))
    assert (V & W).contains(shared)


# ------------------------------------------------------------------ projector


def test_projector_of_axis():
    P = Subspace.span_of(np.array([0.0, 1.0])).projector()
    assert np.allclose(P, np.diag([0.0, 1.0]))


def test_projector_idempotent_and_symmetric():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        P = V.projector()
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs(P - P.T)) < 1e-10


def test_projector_complements_pseudoinverse():
    # I - B B^+ projects onto Ker(B^T) for B = (1, 0)^T.
    B = np.array([[1.0], [0.0]])
    P = np.eye(2) - B @ pseudoinverse(B)
    assert np.allclose(P, kernel(B.T).projector())
    assert np.allclose(P, np.diag([0.0, 1.0]))


# -------------------------------------------------------------- pseudoinverse


def test_pseudoinverse_column_vector():
    assert np.allclose(pseudoinverse(np.array([[1.0], [0.0]])), np.array([[1.0, 0.0]]))


def test_pseudoinverse_zero_matrix():
    Z = pseudoinverse(np.zeros((3, 2)))
    assert Z.shape == (2, 3)
    assert not Z.any()


def test_pseudoinverse_four_penrose_conditions():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        M = random_matrix(rng, (n, d))
        if rng.random() < 0.3 and min(n, d) > 1:
            M[:, 0] = M[:, -1]
        P = pseudoinverse(M)
        assert np.max(np.abs(M @ P @ M - M)) < 1e-9
        assert np.max(np.abs(P @ M @ P - P)) < 1e-9
        assert np.max(np.abs((M @ P).T - M @ P)) < 1e-9
        assert np.max(np.abs((P @ M).T - P @ M)) < 1e-9


def test_pseudoinverse_matches_tykhonov_limit():
    # Oracle: the regularized inverse (M^T M + delta I)^{-1} M^T at delta = 1e-8.
    # The gap scales like delta / sigma_min^3, so draw well-conditioned
    # full-rank matrices (sigma_min >= 0.2 keeps the bound meaningful).
    rng = np.random.default_rng(37)
    done = 0
    while done < 40:
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n + 1))
        M = random_matrix(rng, (n, d))
        if np.linalg.svd(M, compute_uv=False)[-1] < 0.2:
            continue
        delta = 1e-8
        tyk = np.linalg.solve(M.T @ M + delta * np.eye(d), M.T)
        assert np.max(np.abs(pseudoinverse(M) - tyk)) < 1e-5
        done += 1


# ------------------------------------------------------------------- preimage


def test_preimage_identity_and_full():
    rng = np.random.default_rng(41)
    n = 4
    V = random_subspace(rng, n, 2)
    assert preimage(np.eye(n), V).isclose(V)
    M = random_matrix(rng, (n, n))
    assert preimage(M, Subspace.full(n)).is_full


def test_preimage_membership():
    # Every output vector must be mapped into V (relative residual <= 1e-9).
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        V = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        M = random_matrix(rng, (n, n))
        W = preimage(M, V)
        for j in range(W.dim):
            y = M @ W.basis[:, j]
            r = y - V.basis @ (V.basis.T @ y)
            assert np.linalg.norm(r) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_preimage_of_zero_subspace_is_kernel():
    rng = np.random.default_rng(47)
    M = random_matrix(rng, (4, 4))
    M[:, 2] = M[:, 0] - M[:, 1]
    assert preimage(M, Subspace.zero(4)).isclose(kernel(M))


# ------------------------------------------------------------------ containment


@st.composite
def subspace_triples(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dims = [draw(st.integers(min_value=0, max_value=n)) for _ in range(3)]
    return [random_subspace(rng, n, k) for k in dims]


@settings(max_examples=60, deadline=None)
@given(subspace_triples())
def test_containment_partial_order(spaces):
    V, W, U = spaces
    n = V.ambient_dim
    # reflexive
    assert V.contains(V)
    # antisymmetric up to equal dims
    if V.contains(W) and W.contains(V):
        assert V.dim == W.dim
    # transitive along a constructed chain
    A = V & W
    B = (V & W) & U
    assert V.contains(A)
    assert A.contains(B)
    assert V.contains(B)
    # sums dominate their terms
    assert (V + W).contains(V) and (V + W).contains(W)
    assert Subspace.full(n).contains(V)


def test_grassmannian_stability_under_tiny_perturbation():
    # Perturbations of size 1e-13 must not change the computed dimension
    # when the smallest retained singular value clears 10 * rank_tol * sigma_max.
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 7))
        M = random_matrix(rng, (n, p))
        s = np.linalg.svd(M, compute_uv=False)
        kept = s[s > DEFAULT_RANK_TOL * s[0]]
        if kept.size == 0 or kept[-1] <= 10 * DEFAULT_RANK_TOL * s[0]:
            continue
        dim0 = orthonormalize(M).dim
        for _ in range(3):
            E = rng.standard_normal(M.shape)
            E *= 1e-13 / max(np.linalg.norm(E, 2), 1e-300)
            assert orthonormalize(M + E).dim == dim0
        checked += 1
    assert checked > 50


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


# ------------------------------------------------------------------- rank cut


def brute_rank(values, rank_tol, scale=None):
    ref = max(values, default=0.0) if scale is None else scale
    return sum(1 for v in values if v > rank_tol * ref)


# Singular values are powers of ten or exact zeros and every cutoff is
# 3 * 10^j, so each value sits a factor 3 from the cut, far outside the
# round-off of the SVD that recovers it.
SINGULAR_VALUES = st.lists(st.sampled_from([0.0] + [10.0 ** e for e in range(-14, 4)]),
                           max_size=6)


@settings(max_examples=200, deadline=None)
@given(values=SINGULAR_VALUES, extra_rows=st.integers(0, 3),
       extra_cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       rank_tol=st.sampled_from([3e-10, 3e-7, 3e-4, 0.3]))
@example(values=[], extra_rows=0, extra_cols=0, seed=0, rank_tol=3e-10)
@example(values=[], extra_rows=0, extra_cols=3, seed=0, rank_tol=3e-10)
@example(values=[], extra_rows=3, extra_cols=0, seed=0, rank_tol=3e-10)
@example(values=[0.0, 0.0], extra_rows=1, extra_cols=0, seed=0, rank_tol=3e-10)
@example(values=[1e3, 1e-3, 1e-9], extra_rows=0, extra_cols=1, seed=1,
         rank_tol=3e-7)
def test_every_rank_decision_is_the_one_cut(values, extra_rows, extra_cols, seed,
                                            rank_tol):
    s = sorted(values, reverse=True)
    k = len(s)
    p, q = k + extra_rows, k + extra_cols
    M = np.zeros((p, q))
    if k:
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((p, k)))[0]
        V = np.linalg.qr(rng.standard_normal((q, k)))[0]
        M = (U * s) @ V.T
    r = brute_rank(s, rank_tol)
    assert rank_of(s, rank_tol) == r
    assert numerical_rank(M, rank_tol) == r
    assert orthonormalize(M, rank_tol).dim == r
    assert q - kernel(M, rank_tol).dim == r
    assert numerical_rank(pseudoinverse(M, rank_tol), rank_tol) == r
    # a fixed reference scale: the cut sits at rank_tol itself
    r1 = brute_rank(s, rank_tol, scale=1.0)
    assert rank_of(s, rank_tol, scale=1.0) == r1
    assert q - kernel(M, rank_tol, scale=1.0).dim == r1
