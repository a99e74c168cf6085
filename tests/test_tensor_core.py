"""Storage conventions, invariants, and invariant derivatives."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import spectens as st
from spectens import oracle
from spectens.tensor_core import (_D2, _ROW_MATH, _as_vec, _called, _invariant_rows,
                                  _invariant_terms, _real_result, _sin3theta)

from util import (
    FloatSubclass,
    d2_I3,
    d2_I3_ref,
    isotropic_plus,
    log_uniform,
    make_with_eigs,
    rand_rotation,
    rand_sym,
    rel4,
    rotate,
    sym_kron,
    sym_kron_ref,
    sym_square,
)

EPS = float(np.finfo(float).eps)
REF_SCALES = (1e-100, 1.0, 1e100)


def test_component_order_and_matrix_round_trip():
    t = st.SymTensor2(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert t.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    m = t.to_matrix()
    assert m[0][1] == m[1][0] == 4.0
    assert m[0][2] == m[2][0] == 5.0
    assert m[1][2] == m[2][1] == 6.0
    assert st.SymTensor2.from_matrix(m) == t


def test_from_seq_rejects_wrong_length():
    with pytest.raises(st.ContractError):
        st.SymTensor2.from_seq([1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.mark.parametrize("build", (
    lambda: st.SymTensor2.from_seq([1, 2, 3, 4, 5, "x"]),
    lambda: st.SymTensor2.from_seq(None),
    lambda: st.SymTensor2.from_seq([1, 2, 3, 4, 5, [6]]),
    lambda: st.SymTensor2.from_seq("123456"),
    lambda: st.SymTensor2.from_seq(b"123456"),
    lambda: st.SymTensor2.from_seq(["1"] * 6),
    lambda: st.SymTensor2.from_seq([10 ** 400] * 6),
    lambda: st.SymTensor2.from_matrix([[1, 2, 3], [4, 5, 6]]),
    lambda: st.SymTensor2.from_matrix([[1, 2, 3], [4, 5, 6], [7, 8, None]]),
    lambda: st.SymTensor2.from_matrix(np.eye(4)),
    lambda: st.SymTensor2.from_matrix(["123", "456", "789"]),
    lambda: st.SymTensor4("abc"),
    lambda: st.SymTensor4([[1.0, [2.0]]]),
    lambda: st.SymTensor4([[None] * 6] * 6),
    lambda: st.SymTensor4([["1"] * 6] * 6),
    lambda: st.SymTensor4(np.eye(6) * (1.0 + 1.0j)),
), ids=("seq-text", "seq-none", "seq-nested", "seq-string", "seq-bytes", "seq-digits",
        "seq-overflow", "matrix-2x3", "matrix-none", "matrix-4x4", "matrix-strings",
        "t4-text", "t4-ragged", "t4-none", "t4-digits", "t4-complex"))
def test_constructors_refuse_what_is_not_numbers(build):
    with pytest.raises(st.ContractError, match="expected"):
        build()


_T = st.SymTensor2(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@pytest.mark.parametrize("op", (
    lambda: _T * "2",
    lambda: "2" * _T,
    lambda: _T * b"2",
    lambda: _T * bytearray(b"2"),
    lambda: _T + 1,
    lambda: 1.0 + _T,
    lambda: _T - None,
    lambda: _T + [1.0] * 6,
), ids=("times-text", "text-times", "times-bytes", "times-bytearray", "plus-int",
        "int-plus", "minus-none", "plus-list"))
def test_arithmetic_refuses_what_is_not_a_tensor_or_a_factor(op):
    """Text is no factor, as the constructors refuse it, and only a tensor
    adds to a tensor: each is a TypeError, not 2 t or an AttributeError."""
    with pytest.raises(TypeError):
        op()


def test_arithmetic_takes_numbers_tensors_and_rows():
    assert (2 * _T - _T * 0.5 + _T).as_tuple() == (2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
    rows = np.array([1.0, -2.0])
    for t in (_T * rows, rows * _T):
        assert np.stack(t.as_tuple()).tolist() == [[x, -2.0 * x] for x in _T.as_tuple()]


def test_from_matrix_symmetrizes():
    t = st.SymTensor2.from_matrix([[1, 2, 0], [4, 1, 0], [0, 0, 1]])
    assert t.xy == 3.0


def test_ddot_matches_full_matrix_contraction():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rand_sym(rng)
        b = rand_sym(rng)
        full = float(np.sum(np.array(a.to_matrix()) * np.array(b.to_matrix())))
        assert abs(st.ddot(a, b) - full) <= 1e-14 * (1.0 + abs(full))


def test_norm_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rand_sym(rng)
        assert abs(st.norm(t) - np.linalg.norm(np.array(t.to_matrix()))) <= 1e-13


def test_invariants_hand_example():
    # diag(5, 2, -1): I1 = 6, I2 = 3, I3 = -10, deviator diag(3, 0, -3).
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    inv = st.invariants(t)
    assert abs(inv.i1 - 6.0) <= 1e-14
    assert abs(inv.i2 - 3.0) <= 1e-14
    assert abs(inv.i3 + 10.0) <= 1e-13
    assert abs(inv.j2 - 9.0) <= 1e-13
    assert abs(inv.j3 - 0.0) <= 1e-13
    assert inv.theta_defined
    assert abs(inv.theta) <= 1e-15


def test_invariants_double_examples():
    # Repeated low pair: theta = -pi/6; repeated high pair: theta = +pi/6.
    inv = st.invariants(st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert abs(inv.theta + math.pi / 6.0) <= 1e-12
    inv = st.invariants(st.SymTensor2(1.0, 1.0, -2.0, 0.0, 0.0, 0.0))
    assert abs(inv.theta - math.pi / 6.0) <= 1e-12


@pytest.mark.parametrize(("t", "name"), (
    (st.SymTensor2(1.3e110, 1.3e110, 1.3e110, 0.0, 0.0, 0.0), "I3"),
    (st.SymTensor2(5e103, 2e103, -1e103, 4e102, 0.0, 0.0), "I3"),
    (st.SymTensor2(1e200, 1.0, 1.0, 0.0, 0.0, 0.0), "J2"),
    (st.SymTensor2(1e308, 1e308, 0.0, 0.0, 0.0, 0.0), "I1")))
def test_invariants_refuse_a_result_that_is_not_finite(t, name):
    """invariants names the first invariant that overflows, where it used to
    return inf.  (spectrum still answers the triple tensor: see
    test_spectral.test_spectrum_is_bit_identical_to_the_composed_reference.)"""
    with pytest.raises(st.DegeneracyError, match=f"'{name}' is not finite"):
        st.invariants(t)
    with pytest.raises(st.DegeneracyError, match=f"'{name}' is not finite"):
        st.predictor_invariants(t)


_COMPONENTS = ("xx", "yy", "zz", "xy", "xz", "yz")


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("k", range(6))
def test_invariants_name_a_component_that_is_not_finite(k, bad):
    """A NaN or infinite component is the caller's error, named as such, not
    an invariant that overflows."""
    comps = [2.0, 1.0, 0.5, 0.1, 0.2, 0.3]
    comps[k] = bad
    with pytest.raises(st.ContractError, match=f"component '{_COMPONENTS[k]}' is {bad!r}"):
        st.invariants(st.SymTensor2(*comps))


def test_theta_flag_near_spherical():
    inv = st.invariants(st.SymTensor2(5.0, 5.0, 5.0, 1e-12, 0.0, 0.0))
    assert not inv.theta_defined
    assert inv.theta == 0.0
    inv = st.invariants(st.SymTensor2(5.0, 5.0, 5.0, 0.0, 0.0, 0.0))
    assert not inv.theta_defined


def test_invariant_rotation_invariance_across_scales():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        scale = log_uniform(rng, 1e-3, 1e3)
        t = rand_sym(rng, scale)
        r = rand_rotation(rng)
        a = st.invariants(t)
        b = st.invariants(rotate(t, r))
        nrm = st.norm(t)
        assert abs(a.i1 - b.i1) <= 1e-12 * nrm
        assert abs(a.i2 - b.i2) <= 1e-12 * nrm * nrm
        assert abs(a.i3 - b.i3) <= 1e-12 * nrm ** 3
        assert abs(a.j2 - b.j2) <= 1e-12 * nrm * nrm
        assert abs(a.j3 - b.j3) <= 1e-12 * nrm ** 3
        assert abs(a.theta - b.theta) <= 1e-9


def test_clamp_is_silent_at_exact_coincidence():
    # Rotated exact doubles push |sin 3 theta| past 1 by roundoff only;
    # the clamp absorbs that, and theta lands on the edge of its range.
    rng = np.random.default_rng(3)
    for _ in range(500):
        t = make_with_eigs(rng, (4.0, 1.0, 1.0))
        inv = st.invariants(t)
        assert abs(abs(inv.theta) - math.pi / 6.0) <= 1e-7


def test_deviator_is_exact_under_a_dominant_isotropic_part():
    # xx - I1/3 leaves an error of 5e-9 here, from rounding I1/3 near 1e8.
    # The differences of the diagonal are exact, so only the last roundings
    # remain, a few eps of the deviator's 0.02.
    t = st.SymTensor2(1e8 + 0.02, 1e8 - 0.01, 1e8 - 0.01, 0.0, 0.0, 0.0)
    diag = [Fraction(x) for x in t.as_tuple()[:3]]
    mean = sum(diag) / 3
    dev = st.deviator(t).as_tuple()
    assert all(abs(Fraction(x) - (y - mean)) <= 4.0 * EPS * 0.02 for x, y in zip(dev, diag))
    assert dev[3:] == t.as_tuple()[3:]


_SIGN = hs.sampled_from((-1.0, 1.0))
_QUAT = hs.tuples(*[hs.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
# Deviator shapes: a near double, an exact double and three random entries.
_SHAPE = hs.one_of(hs.floats(-12.0, -1.0).map(lambda e: (1.0, -0.5 + 10.0 ** e, -0.5 - 10.0 ** e)),
                   hs.just((1.0, -0.5, -0.5)), hs.tuples(*[hs.floats(-1.0, 1.0)] * 3))


@settings(max_examples=300)
@given(_SIGN, hs.floats(0.0, 12.0), hs.floats(-9.0, 0.0), _SHAPE, _SIGN, _QUAT)
def test_clamp_absorbs_roundoff_only_property(sign, log10_a, log10_ratio, shape, dsign, quat):
    """T = a I + R diag(d) R^T with |a| = 1..1e12 and |d|/|a| = 1e-9..1:
    before its clamp, |sin 3 theta| passes 1 by a few ulps at most, on the
    scalar and on the row path, however much the isotropic part dominates."""
    a = sign * 10.0 ** log10_a
    t = isotropic_plus(a, [dsign * 10.0 ** log10_ratio * abs(a) * x for x in shape], quat)
    rows = st.SymTensor2(*(np.array([x]) for x in t.as_tuple()))
    inv = st.invariants(t)
    if inv.theta_defined:
        for comps, m in ((t, math), (rows, _ROW_MATH)):
            _, _, _, j2, j3, _, sqrt_j2, _, _ = _invariant_terms(comps, m)
            assert np.all(abs(_sin3theta(j2, j3, sqrt_j2)) - 1.0 <= 16.0 * EPS)
    assert _invariant_rows(rows)[0][5].tolist() == [inv.theta]


def test_adjugate_hand_example_and_identity():
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    adj = st.adjugate(t)
    assert adj.as_tuple() == (-2.0, -5.0, 10.0, 0.0, 0.0, -0.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = rand_sym(rng)
        prod = np.array(st.adjugate(t).to_matrix()) @ np.array(t.to_matrix())
        expect = st.det(t) * np.eye(3)
        assert np.max(np.abs(prod - expect)) <= 1e-12 * max(1.0, abs(st.det(t)))


def test_adjugate_of_singular_tensor():
    # Rank-2 tensor: adj(T) T = det(T) I = 0.
    t = make_with_eigs(np.random.default_rng(5), (3.0, 1.0, 0.0))
    prod = np.array(st.adjugate(t).to_matrix()) @ np.array(t.to_matrix())
    assert np.max(np.abs(prod)) <= 1e-12


def test_principal_invariant_gradients_match_fd():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = rand_sym(rng)
        g1 = oracle.fd_invariant_gradient(lambda x: st.invariants(x).i1, t)
        assert st.norm(g1 - st.IDENTITY2) <= 1e-9
        g2 = oracle.fd_invariant_gradient(lambda x: st.invariants(x).i2, t)
        expect2 = t.trace() * st.IDENTITY2 - t
        assert st.norm(g2 - expect2) <= 1e-8
        g3 = oracle.fd_invariant_gradient(st.det, t)
        assert st.norm(g3 - st.adjugate(t)) <= 1e-8


def test_dtheta_dT_matches_fd_and_is_trace_free():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 50:
        t = rand_sym(rng)
        inv = st.invariants(t)
        if not inv.theta_defined or abs(math.cos(3.0 * inv.theta)) < 1e-2:
            continue
        g = st.dtheta_dT(t)
        fd = oracle.fd_invariant_gradient(lambda x: st.invariants(x).theta, t)
        assert st.norm(fd - g) <= 1e-6 * max(1.0, st.norm(g))
        # theta is invariant to spherical shifts and to scaling.
        assert abs(g.trace()) <= 1e-12 * st.norm(g)
        assert abs(st.ddot(g, t)) <= 1e-10 * st.norm(g) * st.norm(t)
        checked += 1


def test_dtheta_dT_degeneracy_errors():
    t = st.SymTensor2(2.0, 2.0, 2.0, 0.0, 0.0, 0.0)
    with pytest.raises(st.DegeneracyError):
        st.dtheta_dT(t)
    d = st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(st.DegeneracyError):
        st.dtheta_dT(d)


def test_identity4_apply_is_bit_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rand_sym(rng)
        assert st.IDENTITY4.apply(v) == v


def test_dyad_contraction_rule():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b, c = (rand_sym(rng) for _ in range(3))
        got = st.SymTensor4(np.outer(_as_vec(a.as_tuple()), _as_vec(b.as_tuple()))).apply(c)
        want = st.ddot(b, c) * a
        assert st.norm(got - want) <= 1e-13 * max(1.0, st.norm(want))


def test_sym_kron_matches_sandwich_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, d = (rand_sym(rng) for _ in range(3))
        got = sym_kron(a, b).apply(d)
        am, bm, dm = (np.array(x.to_matrix()) for x in (a, b, d))
        want = st.SymTensor2.from_matrix(0.5 * (am @ dm @ bm + bm @ dm @ am))
        assert st.norm(got - want) <= 1e-12 * max(1.0, st.norm(want))


def test_sym_kron_identity_is_identity4():
    assert np.max(np.abs(sym_kron(st.IDENTITY2, st.IDENTITY2).m - st.IDENTITY4.m)) == 0.0


def test_sym_kron_matches_loop_reference_across_scales():
    # Each entry sums four products of components, each bounded by |a||b|.
    rng = np.random.default_rng(16)
    for scale in REF_SCALES:
        for _ in range(100):
            a, b = rand_sym(rng, scale), rand_sym(rng, scale)
            tol = 8.0 * EPS * st.norm(a) * st.norm(b)
            m = sym_kron(a, b).m
            assert np.all(np.abs(m - sym_kron_ref(a, b)) <= tol)
            assert np.array_equal(m, m.T)


def test_symtensor4_shape_guard():
    with pytest.raises(st.ContractError):
        st.SymTensor4(np.zeros((3, 3)))


def test_every_tangent_owns_a_read_only_6x6_array():
    """Tangents built from a new array without the copy of __init__ (the
    distinct consistent tangent, spin, the distinct isotropic tangent) hold
    it as __init__ would: read-only, float, (6, 6), shared with no other
    result."""
    t = st.SymTensor2(0.03, -0.01, 0.005, 0.004, 0.002, 0.001)
    assert st.spectrum(t).mult.tag is st.MultTag.DISTINCT
    rm = st.vonmises_demo_map(2.0, 1.0, 0.02)
    tangents = [st.consistent_tangent(t, rm), st.stress_and_tangent(t, rm)[1],
                st.spin(t, 0), st.spin(t, 2),
                st.isotropic_function(t, st.square_map())[1], st.SymTensor4(np.eye(6))]
    for k, tan in enumerate(tangents):
        assert tan.m.shape == (6, 6) and tan.m.dtype == np.float64
        assert tan.m.flags.owndata and not tan.m.flags.writeable
        with pytest.raises(ValueError):
            tan.m[0, 0] = 1.0
        assert not any(np.shares_memory(tan.m, other.m) for other in tangents[k + 1:])


def test_sym_square_matches_matrix_product():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t = rand_sym(rng)
        m = np.array(t.to_matrix())
        assert st.norm(sym_square(t) - st.SymTensor2.from_matrix(m @ m)) <= 1e-13


def test_d2_I3_is_fd_derivative_of_adjugate():
    rng = np.random.default_rng(14)
    for _ in range(10):
        t = rand_sym(rng)
        fd = oracle.fd_tensor_derivative(st.adjugate, t)
        assert rel4(fd, d2_I3(t)) <= 1e-5


def test_d2_I3_matches_loop_reference_across_scales():
    # Only the doubled symmetrized dyad of (t, I) differs from the reference,
    # and |I| = sqrt(3): twice the bound of that dyad is under 32 eps |t|.
    rng = np.random.default_rng(17)
    for scale in REF_SCALES:
        for _ in range(100):
            t = rand_sym(rng, scale)
            tol = 32.0 * EPS * st.norm(t)
            assert np.all(np.abs(d2_I3(t).m - d2_I3_ref(t)) <= tol)


def test_d2_table_rows_are_d2_I3_of_the_unit_tensors():
    """_D2, built from _SYM, holds in row k the loop reference of d2_I3 at
    the k-th unit tensor, bit for bit."""
    for k, e in enumerate(np.eye(6)):
        want = d2_I3_ref(st.SymTensor2(*e.tolist())).ravel()
        assert np.array_equal(_D2[k].view(np.int64), want.view(np.int64)), k


def test_as_list_serializes_like_per_element_floats():
    rng = np.random.default_rng(18)
    m = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6))
    m[0, :4] = (-0.0, 1e-300, 5e-324, 2.2250738585072014e-309)
    t4 = st.SymTensor4(m)
    assert json.dumps(t4.as_list()) == json.dumps([float(x) for x in t4.m.ravel()])
    assert all(type(x) is float for x in t4.as_list())


def test_d2_I3_operator_identity():
    # d -> t.d + d.t - tr(d) t - I1 d + (I1 tr(d) - t:d) I, applied directly.
    rng = np.random.default_rng(15)
    for _ in range(30):
        t, d = rand_sym(rng), rand_sym(rng)
        tm, dm = np.array(t.to_matrix()), np.array(d.to_matrix())
        i1, trd = t.trace(), d.trace()
        want = (tm @ dm + dm @ tm - trd * tm - i1 * dm
                + (i1 * trd - st.ddot(t, d)) * np.eye(3))
        got = d2_I3(t).apply(d)
        assert st.norm(got - st.SymTensor2.from_matrix(want)) <= 1e-12 * max(1.0, float(np.linalg.norm(want)))


_MAP_RESULTS = {
    "1.5": 1.5, "-0.0": -0.0, "float subclass": FloatSubclass(2.5),
    "numpy.float64": np.float64(0.25), "True": True, "3": 3, "Fraction": Fraction(1, 3),
    "10**400": 10**400, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "None": None,
    "text": "1", "1j": 1j,
    "tuple": (1.0, 2.0, 3.0), "list": [1.0, 2.0, 3.0], "array": np.arange(3.0),
    "tuple with nan": (1.0, math.nan, 2.0), "pair": (1.0, 2.0),
}


@pytest.mark.parametrize("shape", ((), (3,)), ids=("value", "gradient"))
@pytest.mark.parametrize("v", _MAP_RESULTS.values(), ids=_MAP_RESULTS.keys())
def test_called_reads_a_map_result_as_real_result_reads_it(v, shape):
    """_called reads a float, or a tuple of three, itself and hands every
    other result to _real_result: it returns the floats that _real_result
    reads, to the bit, and raises ContractError where that gives None."""
    want = _real_result(v, shape)
    if want is None:
        with pytest.raises(st.ContractError, match=r"^map gives .*, or not finite at 1\.0$"):
            _called(lambda *a: v, (1.0,), shape, st.ContractError, "map", "{0!r}")
        return
    got = _called(lambda *a: v, (1.0,), shape, st.ContractError, "map", "{0!r}")
    got, want = (list(x) if shape else [x] for x in (got, want))
    assert {type(x) for x in got} == {float}
    assert [x.hex() for x in got] == [float(x).hex() for x in want]
