"""Hencky strain: kinematics guards, closed-form values, and tangent checks."""

import math

import numpy as np
import pytest

from spectens import (
    IDENTITY2,
    IDENTITY4,
    KinematicsError,
    MultTag,
    SymTensor2,
    SymTensor4,
    double_exp_map,
    half_log_map,
    isotropic_function,
    left_cauchy_green,
    log_strain,
    log_strain_from_b,
    norm,
)

from util import (
    invert_log_strain,
    log_strain_tangent_check,
    make_with_eigs,
    quadratic_ratio,
    rand_rotation,
    rel2,
    rel4,
    rotate,
)


def test_left_cauchy_green_diagonal():
    b = left_cauchy_green([2.0, 0, 0, 0, 3.0, 0, 0, 0, 4.0])
    assert b.as_tuple() == (4.0, 9.0, 16.0, 0.0, 0.0, 0.0)
    nested = left_cauchy_green([[2.0, 0, 0], [0, 3.0, 0], [0, 0, 4.0]])
    assert nested.as_tuple() == b.as_tuple()


def test_left_cauchy_green_shear():
    # F = I + e1 (x) e2 gives B with a single off-diagonal coupling.
    b = left_cauchy_green([1.0, 1.0, 0, 0, 1.0, 0, 0, 0, 1.0])
    assert b.as_tuple() == (2.0, 1.0, 1.0, 1.0, 0.0, 0.0)


def test_left_cauchy_green_rejects_bad_input():
    with pytest.raises(KinematicsError):
        left_cauchy_green([1.0] * 8)
    with pytest.raises(KinematicsError):
        left_cauchy_green([[1.0, 0], [0, 1.0], [0, 0]])
    with pytest.raises(KinematicsError):
        left_cauchy_green([-1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])
    with pytest.raises(KinematicsError):
        left_cauchy_green([0.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])
    with pytest.raises(KinematicsError):
        left_cauchy_green([1, 2, 3])
    for bad in ([1, 0, 0, 0, 1, 0, 0, 0, "a"], [None] * 9, "abcdefghi", 5.0, "100010001",
                b"\x01\x00\x00\x00\x01\x00\x00\x00\x01", ["100", "010", "001"],
                [["1", 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0]],
                ["1", 0, 0, 0, 1, 0, 0, 0, 1], np.array(list("100010001")),
                np.array(list("100010001"), dtype="S1"), np.eye(3).ravel()[:8]):
        with pytest.raises(KinematicsError):
            left_cauchy_green(bad)


@pytest.mark.parametrize("f", ([1e200, 0, 0, 0, 1, 0, 0, 0, 1],
                               [[1, 1e160, 0], [0, 1, 0], [0, 0, 1]]))
def test_an_overflowing_b_is_a_kinematics_error(f):
    """det F is finite and positive, 1e200 and 1, but B = F F^T overflows:
    the error names B, not a component of B that the caller never wrote."""
    for call in (left_cauchy_green, log_strain):
        with pytest.raises(KinematicsError, match=r"B = F F\^T overflows"):
            call(f)


def test_left_cauchy_green_takes_numbers_of_any_real_type():
    """Arrays of floats, of float32 and of ints, and lists mixing bool, int
    and float give the B of the same entries as Python floats."""
    f = [1.25, 0.5, -0.25, 0.0, 2.0, 0.75, -0.5, 0.125, 1.5]
    want = left_cauchy_green(f).as_tuple()
    for same in (np.array(f), np.array(f).reshape(3, 3), np.array(f, dtype=np.float32),
                 [np.float64(x) for x in f]):
        assert left_cauchy_green(same).as_tuple() == want
    want = left_cauchy_green([2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 1.0]).as_tuple()
    for same in (np.array([2, 0, 0, 0, 3, 0, 0, 0, 1]), [2, 0, 0.0, False, 3, 0, 0, 0, True]):
        assert left_cauchy_green(same).as_tuple() == want


def test_log_strain_is_the_half_log_isotropic_function():
    rng = np.random.default_rng(24)
    cases = ((make_with_eigs(rng, (2.5, 1.5, 0.5)), MultTag.DISTINCT),
             (make_with_eigs(rng, (3.0, 0.7, 0.7)), MultTag.DOUBLE_HIGH_UNIQUE),
             (make_with_eigs(rng, (1.8, 1.8, 0.4)), MultTag.DOUBLE_LOW_UNIQUE),
             (SymTensor2(1.3, 1.3, 1.3, 0.0, 0.0, 0.0), MultTag.TRIPLE))
    for b, tag in cases:
        res = log_strain_from_b(b)
        assert res.branch.tag is tag
        eps, deps = isotropic_function(b, half_log_map())
        assert res.eps.as_tuple() == eps.as_tuple()
        assert np.array_equal(res.deps_db.m, deps.m)


def test_log_strain_distinct_diagonal():
    res = log_strain([2.0, 0, 0, 0, 0.5, 0, 0, 0, 1.0])
    assert res.branch.tag is MultTag.DISTINCT
    want = (math.log(2.0), -math.log(2.0), 0.0)
    for got, expect in zip(res.eps.as_tuple(), want + (0.0, 0.0, 0.0)):
        assert got == pytest.approx(expect, abs=1e-14)


def test_log_strain_double_diagonal():
    res = log_strain_from_b(SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert res.branch.tag is MultTag.DOUBLE_HIGH_UNIQUE
    want = (math.log(2.0), 0.0, 0.0, 0.0, 0.0, 0.0)
    for got, expect in zip(res.eps.as_tuple(), want):
        assert got == pytest.approx(expect, abs=1e-14)


def test_log_strain_pure_rotation_scaled():
    rng = np.random.default_rng(3)
    r = rand_rotation(rng)
    f = (2.0 * r).reshape(-1)
    res = log_strain(list(f))
    assert res.branch.tag is MultTag.TRIPLE
    assert rel2(res.eps, math.log(2.0) * SymTensor2(1, 1, 1, 0, 0, 0)) < 1e-14
    assert rel4(res.deps_db, SymTensor4(IDENTITY4.m * 0.125)) < 1e-14


def test_log_strain_rejects_near_singular():
    with pytest.raises(KinematicsError):
        log_strain([1.0, 0, 0, 0, 1.0, 0, 0, 0, 1e-9])
    # Double branch with a negative lone stretch (I1 = 2, q = 4, theta = +pi/6).
    with pytest.raises(KinematicsError):
        log_strain_from_b(SymTensor2(2.0, 2.0, -2.0, 0.0, 0.0, 0.0))


def test_round_trip_exp_recovers_b():
    rng = np.random.default_rng(11)
    expm = double_exp_map()
    for _ in range(200):
        r1, r2 = rand_rotation(rng), rand_rotation(rng)
        stretch = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=3))
        f = r1 @ np.diag(stretch) @ r2
        res = log_strain(list(f.reshape(-1)))
        back, _ = isotropic_function(res.eps, expm)
        assert rel2(back, res.b) < 1e-9


def test_right_rotation_leaves_strain_unchanged():
    rng = np.random.default_rng(12)
    for _ in range(50):
        f = rng.standard_normal((3, 3))
        if np.linalg.det(f) <= 0:
            f[0] = -f[0]
        q = rand_rotation(rng)
        a = log_strain(list(f.reshape(-1)))
        b = log_strain(list((f @ q).reshape(-1)))
        assert rel2(b.eps, a.eps, floor=1.0) < 1e-12


def test_left_rotation_rotates_strain():
    rng = np.random.default_rng(13)
    for _ in range(50):
        f = rng.standard_normal((3, 3))
        if np.linalg.det(f) <= 0:
            f[0] = -f[0]
        q = rand_rotation(rng)
        a = log_strain(list(f.reshape(-1)))
        b = log_strain(list((q @ f).reshape(-1)))
        assert rel2(b.eps, rotate(a.eps, q), floor=1.0) < 1e-11


def test_trace_equals_log_det():
    rng = np.random.default_rng(14)
    for _ in range(200):
        f = rng.standard_normal((3, 3))
        det = np.linalg.det(f)
        if det < 0:
            f[0], det = -f[0], -det
        if det < 1e-3:
            continue
        res = log_strain(list(f.reshape(-1)))
        assert abs(res.eps.trace() - math.log(det)) < 1e-10 * max(1.0, norm(res.eps))


def test_tangent_check_random():
    rng = np.random.default_rng(21)
    for _ in range(25):
        f = rng.standard_normal((3, 3))
        if np.linalg.det(f) <= 0:
            f[0] = -f[0]
        if abs(np.linalg.det(f)) < 0.05:
            continue
        rep = log_strain_tangent_check(list(f.reshape(-1)))
        assert rep.max_rel_error < 1e-4


def test_tangent_check_identity():
    rep = log_strain_tangent_check([1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])
    assert rep.branch.tag is MultTag.TRIPLE
    assert rep.max_rel_error < 1e-6


def test_tangent_check_near_and_at_double():
    rng = np.random.default_rng(22)
    for split in (1e-4, 0.0):
        worst = 0.0
        for _ in range(20):
            r = rand_rotation(rng)
            stretch = np.sqrt([4.0, 1.0 + split, 1.0 - split / 2.0])
            f = r @ np.diag(stretch)
            rep = log_strain_tangent_check(list(f.reshape(-1)))
            worst = max(worst, rep.max_rel_error)
        assert worst < (1e-3 if split else 1e-4)


def test_tangent_check_double_low_pair():
    # Repeated pair above the unique value exercises the other sign branch.
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        b = make_with_eigs(rng, (2.25, 2.25, 0.25))
        res = log_strain_from_b(b)
        assert res.branch.tag is MultTag.DOUBLE_LOW_UNIQUE
        f = _sqrt_factor(b)
        rep = log_strain_tangent_check(f)
        worst = max(worst, rep.max_rel_error)
    assert worst < 1e-4


def _sqrt_factor(b):
    """Symmetric square root of an SPD tensor, as a flat-9 gradient."""
    w, v = np.linalg.eigh(np.array(b.to_matrix()))
    m = v @ np.diag(np.sqrt(w)) @ v.T
    return list(m.reshape(-1))


@pytest.mark.parametrize("stretches, tag", (((1.3, 0.95, 0.8), MultTag.DISTINCT),
                                            ((1.3, 0.85, 0.85), MultTag.DOUBLE_HIGH_UNIQUE),
                                            ((1.2, 1.2, 0.8), MultTag.DOUBLE_LOW_UNIQUE)))
def test_newton_on_deps_db_inverts_log_strain_quadratically(stretches, tag):
    """Newton on the exact tangent d(eps)/dB recovers B from eps = ln(B)/2,
    from B_0 = I + 2 eps, with e_{k+1} <= C e_k^2 down to the rounding
    floor, on the distinct and both double branches."""
    rng = np.random.default_rng(41)
    for _ in range(5):
        b = make_with_eigs(rng, [s * s for s in stretches])
        res = log_strain_from_b(b)
        assert res.branch.tag is tag
        eps = res.eps
        got, errs = invert_log_strain(eps, IDENTITY2 + 2.0 * eps)
        assert len(errs) <= 8
        assert quadratic_ratio(errs, 1e-14) <= 4.0
        assert rel2(got, b) <= 1e-14
