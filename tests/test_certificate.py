"""The exact block-positivity certificate of a covariant Choi matrix."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choimaps import (
    BlockPositivityCertificate,
    MapParams,
    NoDetectingChoiceError,
    NonHermitianError,
    OutOfRangeError,
    UndecidedError,
    alpha_range,
    block_positivity_oracle,
    build_witness,
    certify_block_positivity,
    choi_matrix,
    cp_threshold,
    edge_state,
    is_positive,
)
from choimaps.linalg import CERTIFIED_SIGN, CERTIFIED_ZERO, FACE_TOL, SUBDIVISION_ROUNDING
from choimaps.positivity import _CELL_CAP, _COVARIANT, _apply_kernel, _kernel_matrix, _root_coefficients, _subdivision
from lemmas import bernstein_polar_forms, moduli_oracle

#: Covariant Choi matrices with their minors of very different sizes: a
#: witness, the witness at theta = 1e-6 and alpha~ = lo (cubic coefficients at most
#: 6e-12, built from entries of size 2), an edge state, a positive and an
#: exterior family point, and the zero map.
_MATRICES = {
    "witness": lambda: build_witness(0.4, 2.0).matrix,
    "witness_small_theta": lambda: build_witness(1e-6, 1.0, alpha_range(1e-6)[0]).matrix,
    "edge_state": lambda: edge_state(3.0, -0.7),
    "positive": lambda: choi_matrix(MapParams(0.8, 0.5, 0.9, 2.0)),
    "exterior": lambda: choi_matrix(MapParams(0.5, 0.2, 0.2, math.pi / 6)),
    "zero": lambda: np.zeros((9, 9)),
}


def _coefficient_tables():
    """The subdivision matrix restricted to the 19 coefficient columns, as
    (19, 4, 19), and each column's (degree, multi-index, multinomial)."""
    matrix, _, _, columns = _subdivision()
    return matrix.reshape(28, 4, 28)[:19, :, :19], columns


def test_subdivision_rows_are_dyadic_convex_combinations():
    block, columns = _coefficient_tables()
    degree = np.array([n for n, _, _ in columns])
    assert np.all(block >= 0.0)
    assert np.array_equal(block * 64.0, np.round(block * 64.0))  # dyadic, exact in floats
    # each child coefficient draws on its own degree only, with weights summing to 1
    for n in (1, 2, 3):
        assert not np.any(block[degree != n][:, :, degree == n])
        np.testing.assert_array_equal(block[degree == n].sum(axis=0)[:, degree == n], 1.0)
    with pytest.raises(ValueError, match="read-only"):
        _subdivision()[0][0, 0] = 1.0


@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_root_coefficients_are_the_exact_polar_forms_rounded_once(name):
    # the package takes monomial coefficients in integers over multinomials;
    # the lemma takes polar forms of products of linear forms in Fractions
    w = _MATRICES[name]()
    exact = [x for row in bernstein_polar_forms(w) for x in row]
    assert _root_coefficients(w, _subdivision()[3]).tolist() == [float(x) for x in exact]


@pytest.mark.parametrize("name", sorted(_MATRICES))
def test_bernstein_forms_are_the_shifted_leading_minors(name):
    w = _MATRICES[name]()
    columns = _subdivision()[3]
    coefficients = _root_coefficients(w, columns)
    rng = np.random.default_rng(7)
    u = np.vstack([np.eye(3), rng.dirichlet(np.ones(3), size=40)])
    xi = np.sqrt(u)
    shifted = _apply_kernel(_kernel_matrix(w), xi[:, :, None] * xi[:, None, :]) + CERTIFIED_ZERO * np.eye(3)
    size = 1.0 + np.abs(w).max()
    for n in (1, 2, 3):
        form = sum(
            b * multinomial * np.prod(u[:, list(alpha)], axis=1)
            for b, (m, alpha, multinomial) in zip(coefficients, columns)
            if m == n
        )
        minors = np.linalg.det(shifted[:, :n, :n]).real
        np.testing.assert_allclose(form, minors, rtol=0.0, atol=1e-13 * size**n)


@pytest.mark.parametrize("name", ["witness", "witness_small_theta", "exterior"])
def test_subdivided_coefficients_stay_within_the_rounding_bound(name):
    # four full levels in floats against the same subdivision in Fractions
    w = _MATRICES[name]()
    block, columns = _coefficient_tables()
    floats = _root_coefficients(w, columns)[None]
    exact = [[x for row in bernstein_polar_forms(w) for x in row]]
    scale = np.array([np.abs(floats[0, k]).max() for k in (slice(0, 3), slice(3, 9), slice(9, 19))])
    scale = np.repeat(scale, [3, 6, 10])
    weights = [
        [[(j, Fraction(block[j, c, k])) for j in range(19) if block[j, c, k]] for k in range(19)] for c in range(4)
    ]
    for depth in range(1, 5):
        floats = (floats @ block.reshape(19, 76)).reshape(-1, 19)
        exact = [[sum(x * row[j] for j, x in child[k]) for k in range(19)] for row in exact for child in weights]
        error = np.abs(floats - np.array(exact, dtype=float))
        assert np.all(error <= (depth + 1) * SUBDIVISION_ROUNDING * scale)


@settings(max_examples=60)
@given(
    a=st.floats(0.0, 2.0),
    bc=st.tuples(st.floats(0.02, 2.0), st.floats(0.02, 2.0)),
    theta=st.floats(-np.pi, np.pi),
)
def test_certificate_agrees_with_the_closed_form_on_the_family(a, bc, theta):
    # a margin of 0.02 from both sides of (p1), (p2) and the faces b = 0, c = 0
    b, c = bc
    assume(abs(a + b + c - cp_threshold(theta)) >= 0.02)
    assume(a > 1.0 or abs(b * c - (1.0 - a) ** 2) >= 0.02)
    p = MapParams(a, b, c, theta)
    w = choi_matrix(p)
    certificate = certify_block_positivity(w)
    assert (certificate.status == "certified") == is_positive(p)
    assert certificate.cells <= 49
    if certificate.status == "negative":
        xi = np.sqrt(certificate.u)
        assert np.all(certificate.u >= 0.0) and math.isclose(certificate.u.sum(), 1.0)
        value = np.linalg.eigvalsh(_apply_kernel(_kernel_matrix(w), np.outer(xi, xi)))[0, 0]
        assert certificate.value == pytest.approx(value, rel=1e-14, abs=1e-15)
        assert certificate.value < -CERTIFIED_ZERO


_DOMAIN_THETAS = [1e-6, -1e-6, 0.5, math.pi / 3 - 1e-6, -(math.pi / 3 - 1e-6)]


@pytest.mark.parametrize("b", [1e-8, 1e-3, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("theta", _DOMAIN_THETAS)
def test_every_witness_is_certified_within_the_pinned_cells(theta, b):
    # the automatic alpha~, the ends of its range and the midpoint; the
    # largest counts over this domain are 313 cells at depth 15
    lo, hi = alpha_range(theta)
    for alpha in (None, lo, (lo + hi) / 2.0, math.nextafter(hi * (1.0 - FACE_TOL), 0.0)):
        try:
            spec = build_witness(theta, b, alpha)
        except (OutOfRangeError, NoDetectingChoiceError):
            # at |theta| = 1e-6 the optimum lies in the face band (b = 1e-8)
            # or pairs above -CERTIFIED_ZERO; a given alpha~ is always built
            assert alpha is None and abs(theta) == 1e-6
            continue
        certificate = certify_block_positivity(spec.matrix)
        assert certificate.status == "certified"
        assert certificate.cells <= 313 and certificate.depth <= 15


@pytest.mark.parametrize("theta", [0.3, -0.3, 0.9, -0.9])
def test_certificate_agrees_with_the_oracle_on_witnesses(theta):
    for b in (0.1, 1.0, 7.0):
        w = build_witness(theta, b).matrix
        assert certify_block_positivity(w).status == "certified"
        assert moduli_oracle(w).status == block_positivity_oracle(w).status == "nonnegative"


def test_exterior_point_is_negative_within_a_few_levels():
    certificate = certify_block_positivity(_MATRICES["exterior"]())
    assert certificate.status == "negative"
    assert certificate.depth <= 2 and certificate.cells <= 21
    assert certificate.value < -CERTIFIED_SIGN


def test_zero_map_is_certified_at_the_root():
    # its shifted minors eps, eps^2 and eps^3 are exact and positive, so the
    # bound, relative to each minor's own coefficients, lies under them
    assert certify_block_positivity(np.zeros((9, 9))) == BlockPositivityCertificate("certified", 1, 0)


def test_vanishing_minors_stop_at_the_cell_cap():
    # W = -eps I shifts to zero: no coefficient exceeds the bound and no
    # corner lies below minus it, so every triangle stays undecided
    with pytest.raises(UndecidedError, match=f"undecided after 5461 cells at depth 6: .* cap of {_CELL_CAP}"):
        certify_block_positivity(-CERTIFIED_ZERO * np.eye(9))


def test_a_minor_positive_by_less_than_the_bound_stays_undecided():
    # lambda_min M(e_1) = -eps + 1e-16: true, but by less than rounding
    # could decide, so the first minor at e_1 never exceeds the bound
    w = np.eye(9)
    w[3, 3] = -CERTIFIED_ZERO + 1e-16
    with pytest.raises(UndecidedError, match="cap"):
        certify_block_positivity(w)


def test_non_covariant_matrix_is_refused():
    w = choi_matrix(MapParams(0.8, 0.5, 0.9, 2.0))
    w[1, 0] = w[0, 1] = 1e-300
    assert not _COVARIANT[1, 0]
    with pytest.raises(ValueError, match="covariant"):
        certify_block_positivity(w)


def test_malformed_matrices_are_refused():
    with pytest.raises(ValueError, match="9x9"):
        certify_block_positivity(np.eye(4))
    with pytest.raises(NonHermitianError):
        certify_block_positivity(np.triu(np.ones((9, 9))))
    with pytest.raises(OutOfRangeError, match="overflows"):
        certify_block_positivity(1e200 * np.eye(9))
