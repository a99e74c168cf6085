"""Invariant return maps: gates, stress reconstruction, consistent tangents."""

import contextlib
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spectens import (
    ContractError,
    ConvergenceError,
    IDENTITY2,
    IDENTITY4,
    IXI,
    InvariantReturnMap,
    MultTag,
    ScalarEigenMap,
    SymTensor2,
    SymTensor4,
    consistent_tangent,
    deviator,
    isotropic_function,
    linear_elastic_map,
    norm,
    predictor_invariants,
    reconstruct_stress,
    spectrum,
    stress_and_tangent,
    stress_invariants,
    vonmises_demo_map,
)
from spectens import isofunc, plasticity, spectral, tensor_core
from spectens.oracle import fd_tensor_derivative, jacobi_eigen

import util
from util import (
    FloatSubclass,
    make_with_eigs,
    mixed_control_point,
    quadratic_ratio,
    rand_rotation,
    rand_sym,
    rel2,
    rel4,
    split_pair,
    verify_return_map,
)

_SHIFTS = (2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0)


def _map_a(bulk=1.1, shear=0.8, a=0.6, b=0.4, c=0.3):
    """Smooth nonlinear map with volumetric-deviatoric cross terms that
    vanish at eps_q = 0, and theta passed straight through."""
    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev + a * eq * eq,
        q=lambda ev, eq, th: 3.0 * shear * eq * (1.0 + b * eq) + c * eq * eq * ev,
        theta_sigma=lambda ev, eq, th: th,
        grad_p=lambda ev, eq, th: (bulk, 2.0 * a * eq, 0.0),
        grad_q=lambda ev, eq, th: (c * eq * eq,
                                   3.0 * shear * (1.0 + 2.0 * b * eq)
                                   + 2.0 * c * eq * ev, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 1.0),
    )


def _map_twist(bulk=1.3, shear=0.7, c=0.1):
    """Elastic p and q with a Lode angle twisted by c eps_q sin(6 theta):
    theta_sigma depends on eps_q and theta, and keeps theta = +-pi/6 in
    place, as the stress's continuity at the double switch needs."""
    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev,
        q=lambda ev, eq, th: 3.0 * shear * eq,
        theta_sigma=lambda ev, eq, th: th + c * eq * math.sin(6.0 * th),
        grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=lambda ev, eq, th: (0.0, 3.0 * shear, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (0.0, c * math.sin(6.0 * th),
                                             1.0 + 6.0 * c * eq * math.cos(6.0 * th)),
    )


def _map_flat():
    """p = 2 eps_v and q = 3 eps_q with theta_sigma = (pi/6) sin(3 theta),
    which keeps theta = +-pi/6 in place with slope 0 there: splitting the
    repeated pair of a double predictor does not turn the stress deviator."""
    return InvariantReturnMap(
        p=lambda ev, eq, th: 2.0 * ev,
        q=lambda ev, eq, th: 3.0 * eq,
        theta_sigma=lambda ev, eq, th: (math.pi / 6.0) * math.sin(3.0 * th),
        grad_p=lambda ev, eq, th: (2.0, 0.0, 0.0),
        grad_q=lambda ev, eq, th: (0.0, 3.0, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 0.5 * math.pi * math.cos(3.0 * th)),
    )


def _map_b(bulk=1.3, shear=0.7, d=5.0):
    """Map that twists the Lode angle by a factor 1/(1 + d eps_q^2), which
    moves theta = +-pi/6, so its stress jumps at the double switch.  Kept
    only where that is the point, which _map_twist cannot show: that
    verify_return_map refuses it, and that its distinct-branch tangent is
    still the derivative of its distinct-branch stress."""
    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev,
        q=lambda ev, eq, th: 3.0 * shear * eq,
        theta_sigma=lambda ev, eq, th: th / (1.0 + d * eq * eq),
        grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=lambda ev, eq, th: (0.0, 3.0 * shear, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (
            0.0,
            -2.0 * d * eq * th / (1.0 + d * eq * eq) ** 2,
            1.0 / (1.0 + d * eq * eq)),
    )


def test_predictor_invariants_example():
    pred = predictor_invariants(SymTensor2(0.02, -0.01, -0.01, 0, 0, 0))
    assert pred.eps_v == pytest.approx(0.0, abs=1e-18)
    assert pred.eps_q == pytest.approx(0.02, rel=1e-14)
    assert pred.theta_eps == pytest.approx(-math.pi / 6.0, rel=1e-12)
    assert pred.theta_defined


def test_predictor_invariants_reproduce_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(200):
        eps = rand_sym(rng, 0.05)
        pred = predictor_invariants(eps)
        lam = [pred.eps_v / 3.0 + pred.eps_q * math.sin(pred.theta_eps + sh)
               for sh in _SHIFTS]
        ref = [pair.value for pair in jacobi_eigen(eps)]
        spread = ref[0] - ref[2]
        for got, expect in zip(lam, ref):
            assert abs(got - expect) < 1e-10 * spread


def test_verify_accepts_elastic_and_demo_maps():
    pts = [(0.01, 0.02, 0.1), (-0.03, 0.005, -0.3), (0.0, 0.0, 0.0),
           (0.02, 0.0, 0.0)]
    verify_return_map(linear_elastic_map(2.0, 1.0), pts)
    # Demo map is only smooth away from the yield kink at 3 G eps_q = q_y.
    demo = vonmises_demo_map(2.0, 1.0, 0.06)
    verify_return_map(demo, [(0.01, 0.005, 0.1), (0.01, 0.1, -0.2)])
    verify_return_map(_map_a(), pts)
    verify_return_map(_map_twist(), pts)


def test_verify_rejects_a_map_that_moves_the_double_lode_angle():
    with pytest.raises(ContractError, match="pi/6"):
        verify_return_map(_map_b(), [(0.01, 0.02, 0.1)])


def test_verify_rejects_wrong_gradient():
    rm = linear_elastic_map(2.0, 1.0)
    lying = InvariantReturnMap(
        p=lambda ev, eq, th: 2.0 * ev + 0.5 * eq,
        q=rm.q, theta_sigma=rm.theta_sigma,
        grad_p=lambda ev, eq, th: (2.0, 0.0, 0.0),
        grad_q=rm.grad_q, grad_theta_sigma=rm.grad_theta_sigma)
    with pytest.raises(ContractError, match="gradient"):
        verify_return_map(lying, [(0.01, 0.02, 0.1)])


def test_verify_rejects_volume_shear_coupling():
    rm = linear_elastic_map(2.0, 1.0)
    coupled = InvariantReturnMap(
        p=lambda ev, eq, th: 2.0 * ev + 0.5 * eq,
        q=rm.q, theta_sigma=rm.theta_sigma,
        grad_p=lambda ev, eq, th: (2.0, 0.5, 0.0),
        grad_q=rm.grad_q, grad_theta_sigma=rm.grad_theta_sigma)
    with pytest.raises(ContractError, match="couples volume and shear"):
        verify_return_map(coupled, [(0.01, 0.02, 0.1)])


def test_elastic_reconstruction_matches_tensor_form():
    bulk, shear = 2.3, 0.9
    rm = linear_elastic_map(bulk, shear)
    rng = np.random.default_rng(32)
    cases = [rand_sym(rng, 0.03),
             make_with_eigs(rng, (0.04, 0.01, 0.01)),
             SymTensor2(0.02, 0.02, 0.02, 0, 0, 0)]
    for eps in cases:
        sig = reconstruct_stress(eps, rm)
        want = (bulk * eps.trace()) * SymTensor2(1, 1, 1, 0, 0, 0) \
            + 2.0 * shear * deviator(eps)
        assert rel2(sig, want, floor=1.0) < 1e-10


def test_demo_map_past_yield_caps_q():
    bulk, shear, qy = 2.0, 1.0, 0.03
    rm = vonmises_demo_map(bulk, shear, qy)
    rng = np.random.default_rng(33)
    for _ in range(20):
        eps = rand_sym(rng, 0.05)
        pred = predictor_invariants(eps)
        if 3.0 * shear * pred.eps_q <= qy * 1.05:
            continue
        sig = reconstruct_stress(eps, rm)
        out = stress_invariants(sig)
        assert out.q == pytest.approx(qy, rel=1e-10)
        want_dev = (2.0 * qy / (3.0 * pred.eps_q)) * deviator(eps)
        assert rel2(deviator(sig), want_dev) < 1e-10


def test_triple_predictor_gives_spherical_stress():
    rm = linear_elastic_map(2.0, 1.0)
    sig = reconstruct_stress(SymTensor2(0.01, 0.01, 0.01, 0, 0, 0), rm)
    assert sig.as_tuple() == pytest.approx((0.06, 0.06, 0.06, 0, 0, 0), abs=1e-15)


def test_negative_q_rejected():
    rm = linear_elastic_map(2.0, 1.0)
    bad = InvariantReturnMap(
        p=rm.p, q=lambda ev, eq, th: -1.0, theta_sigma=rm.theta_sigma,
        grad_p=rm.grad_p, grad_q=lambda ev, eq, th: (0.0, 0.0, 0.0),
        grad_theta_sigma=rm.grad_theta_sigma)
    rng = np.random.default_rng(34)
    with pytest.raises(ContractError, match="q ="):
        reconstruct_stress(rand_sym(rng, 0.02), bad)


def test_invariant_round_trip_distinct():
    rng = np.random.default_rng(35)
    for rm in (linear_elastic_map(2.0, 1.0), _map_twist()):
        n = 0
        while n < 50:
            eps = rand_sym(rng, 0.04)
            pred = predictor_invariants(eps)
            if abs(pred.theta_eps) > 0.45 or pred.eps_q < 1e-3:
                continue
            n += 1
            args = (pred.eps_v, pred.eps_q, pred.theta_eps)
            sig = reconstruct_stress(eps, rm)
            out = stress_invariants(sig)
            assert out.p == pytest.approx(rm.p(*args), rel=1e-9, abs=1e-12)
            assert out.q == pytest.approx(rm.q(*args), rel=1e-9)
            assert out.theta_sigma == pytest.approx(
                rm.theta_sigma(*args), rel=1e-9, abs=1e-9)


def test_invariant_round_trip_double_and_triple():
    rm = linear_elastic_map(2.0, 1.0)
    rng = np.random.default_rng(36)
    for eigs, want_theta in [((0.04, 0.01, 0.01), -math.pi / 6.0),
                             ((0.03, 0.03, -0.02), math.pi / 6.0)]:
        eps = make_with_eigs(rng, eigs)
        pred = predictor_invariants(eps)
        sig = reconstruct_stress(eps, rm)
        out = stress_invariants(sig)
        assert out.p == pytest.approx(2.0 * pred.eps_v, rel=1e-12)
        assert out.q == pytest.approx(3.0 * pred.eps_q, rel=1e-9)
        assert out.theta_sigma == pytest.approx(want_theta, abs=1e-6)
    eps = SymTensor2(0.01, 0.01, 0.01, 0, 0, 0)
    out = stress_invariants(reconstruct_stress(eps, rm))
    assert out.p == pytest.approx(0.06, rel=1e-14)
    assert out.q == pytest.approx(0.0, abs=1e-15)


def test_stress_coaxial_with_predictor():
    rng = np.random.default_rng(37)
    for rm in (_map_a(), _map_twist()):
        for _ in range(100):
            eps = rand_sym(rng, 0.05)
            sig = reconstruct_stress(eps, rm)
            a = np.array(eps.to_matrix())
            b = np.array(sig.to_matrix())
            comm = a @ b - b @ a
            assert np.max(np.abs(comm)) < 1e-12 * max(1.0, norm(eps) * norm(sig))


def test_elastic_tangent_is_constant_isotropic():
    bulk, shear = 2.3, 0.9
    rm = linear_elastic_map(bulk, shear)
    want = SymTensor4(bulk * IXI.m + 2.0 * shear * (IDENTITY4.m - IXI.m / 3.0))
    rng = np.random.default_rng(38)
    cases = [rand_sym(rng, 0.03),
             make_with_eigs(rng, (0.04, 0.01, 0.01)),
             SymTensor2(0.02, 0.02, 0.02, 0, 0, 0)]
    for eps in cases:
        assert rel4(consistent_tangent(eps, rm), want) < 1e-9


def test_demo_tangent_matches_fd_both_sides_of_yield():
    bulk, shear, qy = 2.0, 1.0, 0.06
    rm = vonmises_demo_map(bulk, shear, qy)
    rng = np.random.default_rng(39)
    eps0 = rand_sym(rng, 0.02)
    pred = predictor_invariants(eps0)
    for factor in (0.8, 1.3):
        scale = factor * qy / (3.0 * shear * pred.eps_q)
        eps = eps0 * scale
        m = consistent_tangent(eps, rm)
        fd = fd_tensor_derivative(lambda x: reconstruct_stress(x, rm), eps)
        assert rel4(m, fd) < 1e-4


def test_map_a_tangent_fd_all_branches():
    rm = _map_a()
    rng = np.random.default_rng(40)
    cases = [rand_sym(rng, 0.04),
             make_with_eigs(rng, (0.04, 0.01, 0.01)),
             make_with_eigs(rng, (0.03, 0.03, -0.02)),
             SymTensor2(0.02, 0.02, 0.02, 0, 0, 0)]
    for eps in cases:
        m = consistent_tangent(eps, rm)
        fd = fd_tensor_derivative(lambda x: reconstruct_stress(x, rm), eps)
        assert rel4(m, fd) < 1e-4


def test_map_b_tangent_fd_distinct():
    """The switch condition concerns only the switch: on the distinct
    branch, the tangent of a map that breaks it is exact all the same."""
    rm = _map_b()
    rng = np.random.default_rng(41)
    n = 0
    while n < 20:
        eps = rand_sym(rng, 0.04)
        pred = predictor_invariants(eps)
        if abs(pred.theta_eps) > 0.45 or pred.eps_q < 5e-3:
            continue
        n += 1
        m = consistent_tangent(eps, rm)
        fd = fd_tensor_derivative(lambda x: reconstruct_stress(x, rm), eps)
        assert rel4(m, fd) < 1e-4


@pytest.mark.parametrize("th", (-0.0, 0.0, 0.3, -math.pi / 6.0, math.nan))
def test_dsigma_reuses_the_sines_of_the_principal_stresses(th):
    """_dsigma takes the sines that _eigen_terms formed for the principal
    stresses, on one tensor and on rows, and gives the bits of
    sin(th + shift) itself: also at th = -0.0, where sin(th) is -0.0 and
    sin(th + 0.0) is 0.0, with gradients of signed zeros that let the sign
    through."""
    gp, gq, gth, q = (-0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0), 0.0
    want = [[gp[k] + (2.0 / 3.0) * (gq[k] * math.sin(th + sh) + q * math.cos(th + sh) * gth[k])
             for k in range(3)] for sh in plasticity._SHIFTS]
    for x, m in ((th, math), (np.array([th]), tensor_core._ROW_MATH)):
        sines = spectral._eigen_terms(0.0, 1.0, x, m)[3]
        got = plasticity._dsigma(gp, gq, gth, q, x, sines, m)
        assert np.array(got, dtype=float).tobytes() == np.array(want).reshape(
            np.shape(got)).tobytes()


def test_double_tangent_fd_with_a_lode_angle_of_slope_zero():
    """On both double branches, the tangent of _map_flat, whose
    d(theta_sigma)/d(theta_eps) is 0 at +-pi/6, against central differences
    of reconstruct_stress, which leave the gap: the in-pair term of the
    tangent carries that slope.  The row kernels give the scalar tangent."""
    rm = _map_flat()
    rng = np.random.default_rng(108)
    cases = [make_with_eigs(rng, eigs) for eigs in ((0.04, 0.01, 0.01), (0.03, 0.03, -0.02))
             for _ in range(5)]
    t = SymTensor2(*np.array([eps.as_tuple() for eps in cases]).T)
    dec, ok = spectral._spectrum_rows(t)
    _, tan, ok = plasticity._stress_tangent_rows(t, dec, rm, ok)
    assert ok.all() and set(dec[1].tolist()) == {1, 2}
    for k, eps in enumerate(cases):
        m = consistent_tangent(eps, rm)
        fd = fd_tensor_derivative(lambda x: reconstruct_stress(x, rm), eps)
        assert rel4(m, fd) <= 1e-4
        assert tan[k].tolist() == m.m.tolist()


def test_branch_continuity_at_pair_closure():
    # Both closures: repeated low pair (theta -> -pi/6) and repeated high
    # pair (theta -> +pi/6), distinct at gap 1e-4 vs exactly double.
    rm = _map_a()
    rng = np.random.default_rng(42)
    delta = 1e-4
    cases = [
        ((0.03, 0.012, 0.012),
         (0.03, 0.012 * (1 + delta), 0.012 * (1 - delta)),
         MultTag.DOUBLE_HIGH_UNIQUE),
        ((0.025, 0.025, -0.01),
         (0.025 * (1 + delta), 0.025 * (1 - delta), -0.01),
         MultTag.DOUBLE_LOW_UNIQUE),
    ]
    for base, near, tag in cases:
        r = rand_rotation(rng)
        eps_at = SymTensor2.from_matrix(r @ np.diag(base) @ r.T)
        eps_near = SymTensor2.from_matrix(r @ np.diag(near) @ r.T)
        assert spectrum(eps_at).mult.tag is tag
        assert spectrum(eps_near).mult.tag is MultTag.DISTINCT
        sig_at = reconstruct_stress(eps_at, rm)
        sig_near = reconstruct_stress(eps_near, rm)
        assert rel2(sig_near, sig_at) < 1e-3
        m_at = consistent_tangent(eps_at, rm)
        m_near = consistent_tangent(eps_near, rm)
        assert rel4(m_near, m_at) < 1e-3


def test_twisting_map_stress_is_continuous_at_the_double_switch():
    """As criterion 6, for _map_twist, whose theta_sigma depends on eps_q
    and keeps +-pi/6: at both closures the distinct-branch stress tends to
    the double-branch one as the gap closes, and so does the tangent, whose
    in-pair term on the double branch carries d(theta_sigma)/d(theta_eps)
    = 1 - 6 c eps_q there."""
    rm = _map_twist()
    r = rand_rotation(np.random.default_rng(106))
    # (principal strains at the switch, the split of the pair per unit gap)
    cases = (((0.03, 0.012, 0.012), (0.0, 0.012, -0.012), MultTag.DOUBLE_HIGH_UNIQUE),
             ((0.025, 0.025, -0.01), (0.025, -0.025, 0.0), MultTag.DOUBLE_LOW_UNIQUE))
    for base, split, tag in cases:
        eps_at = SymTensor2.from_matrix(r @ np.diag(base) @ r.T)
        assert spectrum(eps_at).mult.tag is tag
        sig_at, tan_at = stress_and_tangent(eps_at, rm)
        errs, tan_errs = [], []
        for delta in (1e-2, 1e-3, 1e-4):
            eps_near = SymTensor2.from_matrix(r @ np.diag(np.add(base, np.multiply(delta, split)))
                                              @ r.T)
            assert spectrum(eps_near).mult.tag is MultTag.DISTINCT
            sig_near, tan_near = stress_and_tangent(eps_near, rm)
            errs.append(rel2(sig_near, sig_at))
            tan_errs.append(rel4(tan_near, tan_at))
        assert errs[0] >= errs[1] >= errs[2] and errs[2] <= 1e-3, (tag, errs)
        assert tan_errs[0] >= tan_errs[1] >= tan_errs[2] and tan_errs[2] <= 1e-5, (tag, tan_errs)


def _branch_cases(rng):
    """One predictor per multiplicity: distinct, both double tags, triple."""
    return [(rand_sym(rng, 0.04), MultTag.DISTINCT),
            (make_with_eigs(rng, (0.04, 0.01, 0.01)), MultTag.DOUBLE_HIGH_UNIQUE),
            (make_with_eigs(rng, (0.03, 0.03, -0.02)), MultTag.DOUBLE_LOW_UNIQUE),
            (SymTensor2(0.02, 0.02, 0.02, 0, 0, 0), MultTag.TRIPLE)]


def test_stress_and_tangent_equals_the_separate_calls():
    rng = np.random.default_rng(43)
    for rm in (_map_a(), _map_twist(), vonmises_demo_map(2.0, 1.0, 0.02)):
        for eps, tag in _branch_cases(rng):
            assert spectrum(eps).mult.tag is tag
            sig, tan = stress_and_tangent(eps, rm)
            assert sig == reconstruct_stress(eps, rm)
            assert np.array_equal(tan.m, consistent_tangent(eps, rm).m)


_MAP_FIELDS = ("p", "q", "theta_sigma", "grad_p", "grad_q", "grad_theta_sigma")


def test_stress_and_tangent_decomposes_the_predictor_once(monkeypatch):
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # _invariants is the one invariant pass, behind _decompose, spectrum and
    # the public invariants.
    for mod in (tensor_core, spectral, plasticity):
        for name in ("_decompose", "spectrum", "invariants", "_invariants"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    rm = _map_a()
    rm = InvariantReturnMap(**{f: counted(f, getattr(rm, f)) for f in _MAP_FIELDS})
    rng = np.random.default_rng(44)
    for eps, tag in _branch_cases(rng):
        counts.clear()
        stress_and_tangent(eps, rm)
        want = {"_decompose": 1, "_invariants": 1, "p": 1, "grad_p": 1, "grad_q": 1}
        if tag is not MultTag.TRIPLE:
            want.update(q=1, grad_theta_sigma=1)
        if tag is MultTag.DISTINCT:
            want["theta_sigma"] = 1
        assert counts == want, tag
        counts.clear()
        reconstruct_stress(eps, rm)
        # The double branch reads d(theta_sigma)/d(theta_eps) for the
        # in-pair term of its stress.
        double = tag not in (MultTag.DISTINCT, MultTag.TRIPLE)
        assert [name for name in counts if name.startswith("grad_")] == (
            ["grad_theta_sigma"] if double else []), tag


# A predictor of each branch, the map callables stress_and_tangent consults
# there, and those of them that reconstruct_stress consults.
_BRANCH_PREDICTORS = {
    MultTag.DISTINCT: (SymTensor2(0.01, 0.002, -0.003, 0.001, 0.0, 0.0), _MAP_FIELDS,
                       ("p", "q", "theta_sigma")),
    MultTag.DOUBLE_HIGH_UNIQUE: (SymTensor2(0.01, -0.005, -0.005, 0.0, 0.0, 0.0),
                                 ("p", "q", "grad_p", "grad_q", "grad_theta_sigma"),
                                 ("p", "q", "grad_theta_sigma")),
    MultTag.TRIPLE: (SymTensor2(0.004, 0.004, 0.004, 0.0, 0.0, 0.0), ("p", "grad_p", "grad_q"),
                     ("p",)),
}


@pytest.mark.parametrize("bad", ("nan", "inf", "raises"))
@pytest.mark.parametrize("field", _MAP_FIELDS)
@pytest.mark.parametrize("tag", tuple(_BRANCH_PREDICTORS))
def test_map_that_is_not_finite_is_a_contract_error(tag, field, bad):
    """A map value or gradient that a branch uses and that is NaN or
    infinite, or a map that raises an ArithmeticError there, is a
    ContractError of the scalar calls and leaves the row out of
    _stress_tangent_rows; one the branch does not use changes nothing."""
    eps, used, stress_used = _BRANCH_PREDICTORS[tag]
    assert spectrum(eps).mult.tag is tag
    value = math.nan if bad == "nan" else math.inf

    def broken(ev, eq, th):
        if bad == "raises":
            return ev / 0.0
        return (0.0, value, 0.0) if field.startswith("grad_") else value

    rm = vonmises_demo_map(2.0, 1.0, 0.02)
    broken_rm = dataclasses.replace(rm, **{field: broken})
    rows = SymTensor2(*(np.array([x]) for x in eps.as_tuple()))
    dec, ok = spectral._spectrum_rows(rows)
    ok_rm = plasticity._stress_tangent_rows(rows, dec, broken_rm, ok)[2]
    if field not in used:
        sig, tan = stress_and_tangent(eps, broken_rm)
        assert sig == reconstruct_stress(eps, rm)
        assert tan.m.tolist() == consistent_tangent(eps, rm).m.tolist()
        assert ok_rm.all()
        return
    with pytest.raises(ContractError, match="return map"):
        stress_and_tangent(eps, broken_rm)
    with pytest.raises(ContractError, match="return map"):
        consistent_tangent(eps, broken_rm)
    with (pytest.raises(ContractError, match="return map") if field in stress_used
          else contextlib.nullcontext()):
        reconstruct_stress(eps, broken_rm)
    assert not ok_rm.any()


# Results that are not a finite real number, and gradients that are not
# three of them; 10**400 is a real number past the float range.
_NOT_NUMBERS = (None, "1", 1j, math.nan, math.inf, -math.inf, 10 ** 400, (1.0, 2.0, 3.0))
_NOT_GRADIENTS = (None, (2.0, 0.0), (0.0, 3.0, 0.0, 0.0), "abc", (0.0, 0.0, None), 1.0,
                  (0.0, 1j, 0.0), ("1", 0.0, 0.0), (Fraction(1), "1", 0.0),
                  (0.0, math.nan, 0.0), (0.0, math.inf, 0.0), (0.0, -math.inf, 0.0))


@pytest.mark.parametrize(("field", "bad"), [
    (field, bad) for field in _MAP_FIELDS
    for bad in (_NOT_GRADIENTS if field.startswith("grad_") else _NOT_NUMBERS)],
    ids=lambda x: repr(x)[:16])
def test_map_that_is_not_numbers_is_a_contract_error(field, bad):
    """A map value that is not a finite real number, or a gradient that is
    not three of them, is a ContractError of the one-tensor calls on every
    branch that uses it, not a TypeError, IndexError or OverflowError, and
    leaves the row out of _stress_tangent_rows, which does not raise.  On a
    branch that does not use it, both paths answer."""
    rm = dataclasses.replace(vonmises_demo_map(2.0, 1.0, 0.02),
                             **{field: lambda ev, eq, th: bad})
    for eps, used, stress_used in _BRANCH_PREDICTORS.values():
        rows, dec, ok = _one_row(eps)
        ok_rm = plasticity._stress_tangent_rows(rows, dec, rm, ok)[2]
        for call in (stress_and_tangent, consistent_tangent, reconstruct_stress):
            with (pytest.raises(ContractError, match="return map")
                  if field in (stress_used if call is reconstruct_stress else used)
                  else contextlib.nullcontext()):
                call(eps, rm)
        assert ok_rm.tolist() == [field not in used]


def _converted(rm: InvariantReturnMap, conv) -> InvariantReturnMap:
    """rm with conv applied to each value and to each entry of each gradient."""
    def value(fn):
        return lambda *args: conv(fn(*args))

    def gradient(fn):
        return lambda *args: tuple(map(conv, fn(*args)))

    return dataclasses.replace(rm, **{f: (gradient if f.startswith("grad_") else value)(
        getattr(rm, f)) for f in _MAP_FIELDS})


@pytest.mark.parametrize("conv", (Fraction, np.float64, lambda x: int(1e6 * x), FloatSubclass,
                                  bool),
                         ids=("Fraction", "numpy.float64", "int", "float subclass", "bool"))
def test_map_results_that_are_real_numbers_are_read_as_floats_on_both_paths(conv):
    """A map that returns Fractions, numpy floats, ints, a float subclass or
    bools is answered on every branch, by the one-tensor calls and by
    _stress_tangent_rows, with the bits of the map that returns their
    floats, and with floats: no object array of Fractions, no numpy
    scalars."""
    rm = _map_twist()
    got, want = _converted(rm, conv), _converted(rm, lambda x: float(conv(x)))
    for eps, *_ in _BRANCH_PREDICTORS.values():
        sig, tan = stress_and_tangent(eps, got)
        want_sig, want_tan = stress_and_tangent(eps, want)
        assert sig.as_tuple() == want_sig.as_tuple()
        assert {type(x) for x in sig.as_tuple()} == {float}
        assert tan.m.dtype == float and tan.m.tolist() == want_tan.m.tolist()
        rows, dec, ok = _one_row(eps)
        sig_rows, tan_rows, ok_rm = plasticity._stress_tangent_rows(rows, dec, got, ok)
        want_rows = plasticity._stress_tangent_rows(rows, dec, want, ok)
        assert ok_rm.all() and want_rows[2].all()
        assert sig_rows.tolist() == want_rows[0].tolist()
        assert tan_rows.tolist() == want_rows[1].tolist()


@pytest.mark.parametrize("bad", (0.0, -1.0, math.nan, math.inf, "a", None, [1.0], 1j))
def test_maps_reject_parameters_that_are_not_finite_and_positive(bad):
    for args in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ContractError, match="finite and positive"):
            linear_elastic_map(*args)
    for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ContractError, match="finite and positive"):
            vonmises_demo_map(*args)


def test_linear_elastic_map_is_hookes_map_to_the_bit():
    """linear_elastic_map is the radial return with yield_q = inf: on every
    branch, on both paths, it gives the stress and tangent of Hooke's map
    written out, bit for bit."""
    bulk, shear = 2.0, 0.75
    hooke = InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev, q=lambda ev, eq, th: 3.0 * shear * eq,
        theta_sigma=lambda ev, eq, th: th, grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=lambda ev, eq, th: (0.0, 3.0 * shear, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 1.0))
    rm = linear_elastic_map(bulk, shear)
    rng = np.random.default_rng(107)
    cases = [eps for _ in range(5) for eps, _ in _branch_cases(rng)]
    for eps in cases:
        sig, tan = stress_and_tangent(eps, rm)
        want_sig, want_tan = stress_and_tangent(eps, hooke)
        assert sig == want_sig and tan.m.tolist() == want_tan.m.tolist()
    t = SymTensor2(*np.array([x.as_tuple() for x in cases]).T)
    dec, ok = spectral._spectrum_rows(t)
    got = plasticity._stress_tangent_rows(t, dec, rm, ok)
    want = plasticity._stress_tangent_rows(t, dec, hooke, ok)
    assert got[2].all() and want[2].all()
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


def test_rows_match_stress_and_tangent_on_every_branch():
    """_stress_tangent_rows on rows of every class, with maps whose
    gradients differ on every axis: double and triple rows are the scalar
    results bit for bit, also where the pair is split inside the gap
    tolerance, distinct rows agree to rounding, and a row on which
    the map gives q < 0, overflows or gives a gradient of two numbers is
    left out, where the scalar call raises ContractError."""
    rng = np.random.default_rng(36)
    # The last two are double predictors of both tags whose pair is split
    # by half the gap tolerance.
    eigs = ((0.03, 0.01, -0.02), (0.03, -0.01, -0.01), (0.02, 0.02, -0.01), (0.01, 0.01, 0.01),
            (-0.01, -0.01, -0.01), split_pair((0.03, -0.01, -0.01), 0.5),
            split_pair((0.02, 0.02, -0.01), -0.5))
    tensors = [make_with_eigs(rng, e) for e in eigs for _ in range(2)]
    for x in tensors[-4:]:
        assert spectrum(x).mult.tag is not MultTag.DISTINCT
        # The in-pair term of the stress is not zero.
        args = dataclasses.astuple(predictor_invariants(x))[:3]
        q = _map_twist().q(*args)
        assert reconstruct_stress(x, _map_twist()) != (_map_twist().p(*args) * IDENTITY2
                                                       + (2.0 * q / (3.0 * args[1]))
                                                       * deviator(x))
    t = SymTensor2(*np.array([x.as_tuple() for x in tensors]).T)
    elastic = linear_elastic_map(2.0, 1.0)
    overflows = InvariantReturnMap(
        p=lambda ev, eq, th: math.exp(1e5 * ev), q=elastic.q, theta_sigma=elastic.theta_sigma,
        grad_p=elastic.grad_p, grad_q=elastic.grad_q, grad_theta_sigma=elastic.grad_theta_sigma)
    dec, ok = spectral._spectrum_rows(t)
    assert ok.all() and set(dec[1].tolist()) == {0, 1, 2, 3}
    for rm in (_map_a(), _map_twist(), _map_flat(), vonmises_demo_map(2.0, 1.0, 0.02)):
        sig, tan, ok_rm = plasticity._stress_tangent_rows(t, dec, rm, ok)
        assert ok_rm.all()
        for k, x in enumerate(tensors):
            want_sig, want_tan = stress_and_tangent(x, rm)
            assert sig[k].tolist() == pytest.approx(list(want_sig.as_tuple()), rel=1e-13)
            if dec[1][k]:
                assert sig[k].tolist() == list(want_sig.as_tuple())
                assert tan[k].tolist() == want_tan.m.tolist()
            else:
                assert rel4(SymTensor4(tan[k]), want_tan) < 1e-12
    negative = InvariantReturnMap(
        p=elastic.p, q=lambda ev, eq, th: -1.0, theta_sigma=elastic.theta_sigma,
        grad_p=elastic.grad_p, grad_q=elastic.grad_q,
        grad_theta_sigma=elastic.grad_theta_sigma)
    # q is consulted on every branch but the triple one.
    assert (plasticity._stress_tangent_rows(t, dec, negative, ok)[2] == (dec[1] == 3)).all()
    sig, tan, ok_rm = plasticity._stress_tangent_rows(t, dec, overflows, ok)
    for k, x in enumerate(tensors):
        with pytest.raises(ContractError) if x.trace() > 0.0 else contextlib.nullcontext():
            stress_and_tangent(x, overflows)
        assert ok_rm[k] == np.isfinite(sig[k]).all() == (x.trace() <= 0.0)
    # Gradients of two lengths in one chunk: numpy cannot stack them.
    ragged = dataclasses.replace(elastic, grad_p=lambda ev, eq, th: (
        (2.0, 0.0) if ev > 0.0 else (2.0, 0.0, 0.0)))
    ok_rm = plasticity._stress_tangent_rows(t, dec, ragged, ok)[2]
    for k, x in enumerate(tensors):
        with pytest.raises(ContractError) if x.trace() > 0.0 else contextlib.nullcontext():
            stress_and_tangent(x, ragged)
        assert ok_rm[k] == (x.trace() <= 0.0)


def _one_row(eps):
    rows = SymTensor2(*(np.array([x]) for x in eps.as_tuple()))
    return rows, *spectral._spectrum_rows(rows)


def test_isotropic_function_and_return_map_agree_on_one_material():
    """sigma = 2 G eps is the isotropic function eta = 2 G lam and the
    elastic return map with K = 2 G / 3: on every branch, on the scalar and
    the row path, the two modules give the same stress and tangent."""
    shear = 0.9
    rm = linear_elastic_map(2.0 * shear / 3.0, shear)
    eta = ScalarEigenMap(lambda x: 2.0 * shear * x, lambda x: 2.0 * shear)
    cases = _branch_cases(np.random.default_rng(44))
    t = SymTensor2(*np.array([eps.as_tuple() for eps, _ in cases]).T)
    dec, ok = spectral._spectrum_rows(t)
    s_rows, m_rows, ok_f = isofunc._apply_rows(t, dec, eta, ok)
    sig_rows, tan_rows, ok_rm = plasticity._stress_tangent_rows(t, dec, rm, ok)
    assert ok_f.all() and ok_rm.all()
    for k, (eps, tag) in enumerate(cases):
        assert spectrum(eps).mult.tag is tag
        s, m = isotropic_function(eps, eta)
        sig, tan = stress_and_tangent(eps, rm)
        assert rel2(s, sig) < 1e-13 and rel4(m, tan) < 1e-13, tag
        assert rel2(SymTensor2(*s_rows[k]), SymTensor2(*sig_rows[k])) < 1e-13, tag
        assert rel4(SymTensor4(m_rows[k]), SymTensor4(tan_rows[k])) < 1e-13, tag


def test_yield_tie_takes_the_plastic_branch():
    """A predictor exactly at the yield tie 3 G eps_q == q_y, on the distinct
    and both double branches: q is q_y, the tangent is that of the plastic
    branch, the row path gives the scalar result bit for bit, and the
    tangent matches one-sided differences taken toward the plastic side."""
    bulk, shear, h = 2.0, 1.0, 1e-7
    for eps, tag in _branch_cases(np.random.default_rng(45))[:3]:
        yield_q = 3.0 * shear * predictor_invariants(eps).eps_q
        rm = vonmises_demo_map(bulk, shear, yield_q)
        plastic = dataclasses.replace(rm, q=lambda ev, eq, th: yield_q,
                                      grad_q=lambda ev, eq, th: (0.0, 0.0, 0.0))
        sig, tan = stress_and_tangent(eps, rm)
        assert spectrum(eps).mult.tag is tag
        assert stress_invariants(sig).q == pytest.approx(yield_q, rel=1e-12)
        assert np.array_equal(tan.m, stress_and_tangent(eps, plastic)[1].m)
        assert rel4(tan, stress_and_tangent(eps, linear_elastic_map(bulk, shear))[1]) > 0.1
        rows, dec, ok = _one_row(eps)
        sig_rows, tan_rows, ok_rm = plasticity._stress_tangent_rows(rows, dec, rm, ok)
        assert ok_rm.all()
        assert sig_rows[0].tolist() == list(sig.as_tuple())
        assert tan_rows[0].tolist() == tan.m.tolist()
        # Column b of the tangent: each unit direction, with the sign that
        # does not lower eps_q, so that both points are plastic.
        cols = np.empty((6, 6))
        for b in range(6):
            delta = SymTensor2(*(h * (j == b) for j in range(6)))
            step = max((delta, -delta), key=lambda d: predictor_invariants(eps + d).eps_q)
            assert 3.0 * shear * predictor_invariants(eps + step).eps_q >= yield_q
            diff = reconstruct_stress(eps + step, rm) - sig
            cols[:, b] = np.array(diff.as_tuple()) / (step.as_tuple()[b] * tensor_core.WEIGHTS[b])
        assert rel4(tan, SymTensor4(cols)) < 1e-4, tag


# A plastic distinct predictor, the uniaxial strain (a double one), and a
# spherical strain, a triple one, whose plastic normals are undefined.
_UNIAXIAL_STARTS = (SymTensor2(0.05, -0.02, -0.01, 0.003, -0.002, 0.001),
                    SymTensor2(0.05, 0.0, 0.0, 0.0, 0.0, 0.0),
                    SymTensor2(0.05, 0.05, 0.05, 0.0, 0.0, 0.0))


def _uniaxial_maps():
    """(map, its uniaxial stress at eps_11 = 0.05): q_y past yield for the
    von Mises demo map, and E eps_11 with E = 9 K G / (3 K + G) for the
    elastic _map_twist."""
    return ((vonmises_demo_map(2.0, 1.0, 0.02), 0.02),
            (_map_twist(), 9.0 * 1.3 * 0.7 / (3.0 * 1.3 + 0.7) * 0.05))


@pytest.mark.parametrize("eps0", _UNIAXIAL_STARTS)
def test_mixed_control_newton_converges_quadratically(eps0):
    """Uniaxial stress: eps_11 held, the other five stresses zero, solved
    by Newton on stress_and_tangent with the von Mises demo map past yield
    and with the Lode-twisting _map_twist, from a plastic distinct
    predictor, from the uniaxial strain (a double one) and from a spherical
    strain (a triple one).  e_{k+1} <= C
    e_k^2 down to the rounding floor, and the solution is the uniaxial
    stress on the double branch."""
    assert (spectrum(eps0).mult.tag is MultTag.DISTINCT) == (eps0.xy != 0.0)
    for rm, want in _uniaxial_maps():
        with pytest.raises(ConvergenceError):
            mixed_control_point(rm, eps0, fixed=(0,), max_iter=1)
        eps, errs = mixed_control_point(rm, eps0, fixed=(0,))
        assert len(errs) <= 8
        assert quadratic_ratio(errs, 1e-15) <= 100.0
        assert eps.xx == eps0.xx
        assert spectrum(eps).mult.tag is MultTag.DOUBLE_HIGH_UNIQUE
        sigma = reconstruct_stress(eps, rm)
        assert sigma.xx == pytest.approx(want, rel=1e-14)
        assert max(map(abs, sigma.as_tuple()[1:])) <= 1e-15


def test_mixed_control_newton_on_the_row_path_takes_the_scalar_steps(monkeypatch):
    """The Newton iterations of the test above on all starting points at
    once, evaluated by the row kernels: every iterate and residual norm is
    the scalar one to the bit, so the row tangent converges as fast."""
    for rm, _ in _uniaxial_maps():
        x, errs, iterates = util.mixed_control_rows(rm, _UNIAXIAL_STARTS, fixed=(0,))
        for k, eps0 in enumerate(_UNIAXIAL_STARTS):
            seen = []

            def recording(eps, rm):
                seen.append(np.array(eps.as_tuple()))
                return stress_and_tangent(eps, rm)
            monkeypatch.setattr(util, "stress_and_tangent", recording)
            eps, want = mixed_control_point(rm, eps0, fixed=(0,))
            assert errs[k] == want
            assert [i.tolist() for i in iterates[k]] == [i.tolist() for i in seen]
            assert x[k].tolist() == list(eps.as_tuple())
            assert quadratic_ratio(errs[k], 1e-15) <= 100.0


@pytest.mark.parametrize("eps_11", (0.05, -0.05))
def test_mixed_control_newton_converges_quadratically_inside_the_gap(eps_11):
    """As above with eps_11 and eps_22 held, eps_22 a quarter of the gap
    tolerance off the uniaxial strain, so that the solution is a double
    predictor whose pair is split inside the gap (of the tag that the sign
    of eps_11 gives) and the last iterates see the in-pair terms of the
    double branch.  Both paths converge quadratically through the same
    iterates."""
    start = _UNIAXIAL_STARTS[0]
    for rm, _ in _uniaxial_maps():
        uniaxial, _ = mixed_control_point(rm, SymTensor2(eps_11, 0.0, 0.0, 0.0, 0.0, 0.0), (0,))
        gap = tensor_core.TAU_GAP * abs(uniaxial.xx - uniaxial.yy)
        eps0 = SymTensor2(eps_11, uniaxial.yy + 0.25 * gap, *start.as_tuple()[2:])
        eps, errs = mixed_control_point(rm, eps0, fixed=(0, 1))
        assert len(errs) <= 8
        assert quadratic_ratio(errs, 1e-15) <= 100.0
        assert spectrum(eps).mult.tag is (MultTag.DOUBLE_HIGH_UNIQUE if eps_11 > 0.0
                                          else MultTag.DOUBLE_LOW_UNIQUE)
        assert 0.0 < eps.yy - eps.zz < gap
        x, row_errs, _ = util.mixed_control_rows(rm, [eps0], (0, 1))
        assert row_errs[0] == errs
        assert x[0].tolist() == list(eps.as_tuple())


def test_mixed_control_newton_with_the_lode_twisting_map():
    """Newton with _map_twist, whose theta_sigma depends on eps_q, from the
    distinct start with eps_11, eps_22 and eps_12 held and the other
    stresses zero.  The solution is distinct, so the theta partials enter
    every step, not only on the way to the double branch as in uniaxial
    stress; both paths converge quadratically through the same iterates."""
    rm, eps0, fixed = _map_twist(), _UNIAXIAL_STARTS[0], (0, 1, 3)
    eps, errs = mixed_control_point(rm, eps0, fixed)
    assert len(errs) <= 8
    assert quadratic_ratio(errs, 1e-15) <= 100.0
    assert [eps.xx, eps.yy, eps.xy] == [eps0.xx, eps0.yy, eps0.xy]
    assert spectrum(eps).mult.tag is MultTag.DISTINCT
    sigma = reconstruct_stress(eps, rm)
    assert max(abs(sigma.zz), abs(sigma.xz), abs(sigma.yz)) <= 1e-15
    x, row_errs, _ = util.mixed_control_rows(rm, [eps0], fixed)
    assert row_errs[0] == errs
    assert x[0].tolist() == list(eps.as_tuple())


@pytest.mark.parametrize("eps0, tag", (
    (SymTensor2(0.05, 0.012, 0.008, 0.003, -0.002, 0.001), MultTag.DISTINCT),
    (SymTensor2(0.05, 0.01, 0.01, 0.0, 0.0, 0.0), MultTag.DOUBLE_HIGH_UNIQUE)))
def test_mixed_control_newton_from_an_iterate_on_the_yield_tie(eps0, tag, monkeypatch):
    """Uniaxial stress with the von Mises demo map whose q_y is 3 G eps_q of
    the first iterate bit for bit, so that Newton starts on the yield tie,
    from a distinct and from a double predictor.  The solution lies past
    yield; both paths converge quadratically through the same iterates."""
    shear = 1.0
    yield_q = 3.0 * shear * predictor_invariants(eps0).eps_q
    rm = vonmises_demo_map(2.0, shear, yield_q)
    assert spectrum(eps0).mult.tag is tag
    seen = []

    def recording(eps, rm):
        seen.append(np.array(eps.as_tuple()))
        return stress_and_tangent(eps, rm)
    with monkeypatch.context() as m:
        m.setattr(util, "stress_and_tangent", recording)
        eps, errs = mixed_control_point(rm, eps0, fixed=(0,))
    assert seen[0].tolist() == list(eps0.as_tuple())
    assert len(errs) <= 8
    assert quadratic_ratio(errs, 1e-15) <= 100.0
    assert 3.0 * shear * predictor_invariants(eps).eps_q > yield_q
    assert stress_invariants(reconstruct_stress(eps, rm)).q == pytest.approx(yield_q, rel=1e-14)
    x, row_errs, iterates = util.mixed_control_rows(rm, [eps0], (0,))
    assert row_errs[0] == errs
    assert [i.tolist() for i in iterates[0]] == [i.tolist() for i in seen]
    assert x[0].tolist() == list(eps.as_tuple())


@pytest.mark.parametrize("kernel", ("invariant", "spectrum", "isotropic", "stress"))
def test_the_row_kernels_let_no_runtime_warning_out(kernel):
    """Each row kernel sets its own numpy error state.  On a triple row and
    a double row, where they divide by zero, each answers with
    RuntimeWarning an error and numpy's default error state around the
    call, not an np.errstate that ignores."""
    t = SymTensor2(*np.array([(2.0, 2.0, 2.0, 0.0, 0.0, 0.0), (3.0, 1.0, 1.0, 0.0, 0.0, 0.0)]).T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if kernel == "invariant":
            tensor_core._invariant_rows(t)
            return
        dec, ok = spectral._spectrum_rows(t)
        assert dec[1].tolist() == [3, 1] and ok.all()
        if kernel == "isotropic":
            assert isofunc._apply_rows(t, dec, isofunc.half_log_map(), ok)[2].all()
        elif kernel == "stress":
            rm = vonmises_demo_map(2.0, 1.0, 0.02)
            assert plasticity._stress_tangent_rows(t, dec, rm, ok)[2].all()
