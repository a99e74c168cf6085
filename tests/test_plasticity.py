"""Invariant return maps: gates, stress reconstruction, consistent tangents."""

import contextlib
import math

import numpy as np
import pytest

from spectens import (
    ContractError,
    IDENTITY4,
    IXI,
    InvariantReturnMap,
    MultTag,
    SymTensor2,
    SymTensor4,
    consistent_tangent,
    deviator,
    linear_elastic_map,
    norm,
    predictor_invariants,
    reconstruct_stress,
    spectrum,
    stress_and_tangent,
    stress_invariants,
    verify_return_map,
    vonmises_demo_map,
)
from spectens import plasticity, spectral, tensor_core
from spectens.oracle import fd_tensor_derivative, jacobi_eigen

from util import make_with_eigs, rand_rotation, rand_sym, rel2, rel4

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


def _map_b(bulk=1.3, shear=0.7, d=5.0):
    """Map that twists the Lode angle: theta_sigma depends on eps_q too."""
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
    verify_return_map(_map_b(), pts)


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
    for rm in (linear_elastic_map(2.0, 1.0), _map_b()):
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
    for rm in (_map_a(), _map_b()):
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


def _branch_cases(rng):
    """One predictor per multiplicity: distinct, both double tags, triple."""
    return [(rand_sym(rng, 0.04), MultTag.DISTINCT),
            (make_with_eigs(rng, (0.04, 0.01, 0.01)), MultTag.DOUBLE_HIGH_UNIQUE),
            (make_with_eigs(rng, (0.03, 0.03, -0.02)), MultTag.DOUBLE_LOW_UNIQUE),
            (SymTensor2(0.02, 0.02, 0.02, 0, 0, 0), MultTag.TRIPLE)]


def test_stress_and_tangent_equals_the_separate_calls():
    rng = np.random.default_rng(43)
    for rm in (_map_a(), _map_b(), vonmises_demo_map(2.0, 1.0, 0.02)):
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

    # _invariants is the one invariant pass, behind both spectrum and the
    # public invariants.
    for mod in (tensor_core, spectral, plasticity):
        for name in ("spectrum", "invariants", "_invariants"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    rm = _map_a()
    rm = InvariantReturnMap(**{f: counted(f, getattr(rm, f)) for f in _MAP_FIELDS})
    rng = np.random.default_rng(44)
    for eps, tag in _branch_cases(rng):
        counts.clear()
        stress_and_tangent(eps, rm)
        want = {"spectrum": 1, "_invariants": 1, "p": 1, "grad_p": 1, "grad_q": 1}
        if tag is not MultTag.TRIPLE:
            want["q"] = 1
        if tag is MultTag.DISTINCT:
            want.update(theta_sigma=1, grad_theta_sigma=1)
        assert counts == want, tag
        counts.clear()
        reconstruct_stress(eps, rm)
        assert not [name for name in counts if name.startswith("grad_")], tag


@pytest.mark.parametrize("bad", (0.0, -1.0, math.nan, math.inf))
def test_maps_reject_parameters_that_are_not_finite_and_positive(bad):
    for args in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ContractError, match="finite and positive"):
            linear_elastic_map(*args)
    for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ContractError, match="finite and positive"):
            vonmises_demo_map(*args)


def test_rows_match_stress_and_tangent_on_every_branch():
    """_stress_tangent_rows on rows of every class, with maps whose
    gradients differ on every axis: double and triple rows are the scalar
    results bit for bit, distinct rows agree to rounding, a row on which the
    map gives q < 0 is left out, and a row on which it overflows gives NaN
    instead of raising."""
    rng = np.random.default_rng(36)
    eigs = ((0.03, 0.01, -0.02), (0.03, -0.01, -0.01), (0.02, 0.02, -0.01), (0.01, 0.01, 0.01),
            (-0.01, -0.01, -0.01))
    tensors = [make_with_eigs(rng, e) for e in eigs for _ in range(2)]
    t = SymTensor2(*np.array([x.as_tuple() for x in tensors]).T)
    elastic = linear_elastic_map(2.0, 1.0)
    overflows = InvariantReturnMap(
        p=lambda ev, eq, th: math.exp(1e5 * ev), q=elastic.q, theta_sigma=elastic.theta_sigma,
        grad_p=elastic.grad_p, grad_q=elastic.grad_q, grad_theta_sigma=elastic.grad_theta_sigma)
    with np.errstate(all="ignore"):
        sp, ok = spectral._spectrum_rows(t, spectral.DEFAULT_TOLS)
        assert ok.all() and set(sp.mult.tolist()) == {0, 1, 2, 3}
        for rm in (_map_a(), _map_b(), vonmises_demo_map(2.0, 1.0, 0.02)):
            sig, tan, ok_rm = plasticity._stress_tangent_rows(t, sp, rm, ok)
            assert ok_rm.all()
            for k, x in enumerate(tensors):
                want_sig, want_tan = stress_and_tangent(x, rm)
                assert sig[k].tolist() == pytest.approx(list(want_sig.as_tuple()), rel=1e-13)
                if sp.mult[k]:
                    assert sig[k].tolist() == list(want_sig.as_tuple())
                    assert tan[k].tolist() == want_tan.m.tolist()
                else:
                    assert rel4(SymTensor4(tan[k]), want_tan) < 1e-12
        negative = InvariantReturnMap(
            p=elastic.p, q=lambda ev, eq, th: -1.0, theta_sigma=elastic.theta_sigma,
            grad_p=elastic.grad_p, grad_q=elastic.grad_q,
            grad_theta_sigma=elastic.grad_theta_sigma)
        # q is consulted on every branch but the triple one.
        assert (plasticity._stress_tangent_rows(t, sp, negative, ok)[2] == (sp.mult == 3)).all()
        sig, tan, _ = plasticity._stress_tangent_rows(t, sp, overflows, ok)
    for k, x in enumerate(tensors):
        with pytest.raises(OverflowError) if x.trace() > 0.0 else contextlib.nullcontext():
            stress_and_tangent(x, overflows)
        assert np.isfinite(sig[k]).all() == (x.trace() <= 0.0)
