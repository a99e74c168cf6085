"""Isotropic tensor functions and their consistent tangents."""

import math
from fractions import Fraction

import numpy as np
import pytest

import spectens as st
from spectens import oracle
from spectens.isofunc import _apply_rows, _coincident, _eta, _map_values
from spectens.spectral import _spectrum_rows

from util import (
    check_scalar_map,
    identity_map,
    make_with_eigs,
    rand_rotation,
    rand_sym,
    rel4,
    rotate,
    split_pair,
    sym_kron,
    sym_square,
)

ALL_MAPS = (identity_map, st.half_log_map, st.square_map, st.cube_map, st.double_exp_map)


def test_factory_maps_pass_derivative_gate():
    for factory in ALL_MAPS:
        check_scalar_map(factory(), (0.3, 0.9, 1.7, 2.5))


def test_gate_rejects_wrong_derivative():
    bad = st.ScalarEigenMap(lambda x: x * x, lambda x: 3.0 * x)
    with pytest.raises(st.ContractError):
        check_scalar_map(bad, (1.0, 2.0))


def test_domain_containment():
    f = st.half_log_map()
    assert f.contains(0.5)
    assert not f.contains(0.0)
    assert not f.contains(-1.0)


def test_identity_map_reproduces_input_on_all_branches():
    rng = np.random.default_rng(50)
    f = identity_map()
    cases = [rand_sym(rng), make_with_eigs(rng, (4.0, 1.0, 1.0)),
             make_with_eigs(rng, (1.0, 1.0, -2.0)),
             st.SymTensor2(3.0, 3.0, 3.0, 0.0, 0.0, 0.0)]
    for t in cases:
        s, m = st.isotropic_function(t, f)
        assert st.norm(s - t) <= 1e-10 * max(1.0, st.norm(t))
        assert rel4(m, st.IDENTITY4) <= 1e-10


def test_half_log_distinct_diagonal():
    t = st.SymTensor2(4.0, 1.5, 0.25, 0.0, 0.0, 0.0)
    s, _ = st.isotropic_function(t, st.half_log_map())
    want = st.SymTensor2(*(0.5 * math.log(v) for v in (4.0, 1.5, 0.25)), 0.0, 0.0, 0.0)
    assert st.norm(s - want) <= 1e-12


def test_square_map_distinct_with_tangent():
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    s, m = st.isotropic_function(t, st.square_map())
    assert st.norm(s - sym_square(t)) <= 1e-11
    # d(T^2) = T.d + d.T exactly.
    assert rel4(m, st.SymTensor4(sym_kron(t, st.IDENTITY2).m * 2.0)) <= 1e-10


def test_half_log_double_diagonal():
    t = st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    s, _ = st.isotropic_function(t, st.half_log_map())
    assert st.norm(s - st.SymTensor2(math.log(2.0), 0, 0, 0, 0, 0)) <= 1e-12


def test_triple_closed_forms():
    s, m = st.isotropic_function(st.SymTensor2(4.0, 4.0, 4.0, 0, 0, 0), st.half_log_map())
    assert st.norm(s - math.log(2.0) * st.IDENTITY2) <= 1e-14
    assert rel4(m, st.SymTensor4(st.IDENTITY4.m / 8.0)) <= 1e-14
    s, m = st.isotropic_function(st.SymTensor2(3.0, 3.0, 3.0, 0, 0, 0), st.square_map())
    assert st.norm(s - 9.0 * st.IDENTITY2) <= 1e-13
    assert rel4(m, st.SymTensor4(6.0 * st.IDENTITY4.m)) <= 1e-13


def test_tangent_fd_every_branch():
    rng = np.random.default_rng(51)
    r = rand_rotation(rng)
    cases = {
        "distinct": rotate(st.SymTensor2(3.0, 1.2, 0.4, 0, 0, 0), r),
        "double_high": rotate(st.SymTensor2(3.0, 0.8, 0.8, 0, 0, 0), r),
        "double_low": rotate(st.SymTensor2(2.0, 2.0, 0.5, 0, 0, 0), r),
        "triple": st.SymTensor2(1.7, 1.7, 1.7, 0.0, 0.0, 0.0),
    }
    for factory in (st.half_log_map, st.square_map, st.cube_map):
        f = factory()
        for label, t in cases.items():
            s, m = st.isotropic_function(t, f)
            h = 1e-6 * max(1.0, st.norm(t))
            fd = oracle.fd_tensor_derivative(lambda x: st.isotropic_function(x, f)[0], t, h)
            assert rel4(fd, m) <= 1e-4, (factory.__name__, label)


def test_cube_tangent_fd_random_double():
    rng = np.random.default_rng(52)
    for _ in range(20):
        t = make_with_eigs(rng, (2.5, 0.7, 0.7))
        s, m = st.isotropic_function(t, st.cube_map())
        fd = oracle.fd_tensor_derivative(lambda x: st.isotropic_function(x, st.cube_map())[0], t)
        assert rel4(fd, m) <= 1e-4


def test_function_continuity_across_double_threshold():
    f = st.half_log_map()
    s0, m0 = st.isotropic_function(st.SymTensor2(4.0, 1.0, 1.0, 0, 0, 0), f)
    sd, md = st.isotropic_function(st.SymTensor2(4.0, 1.0 + 1e-4, 1.0 - 1e-4, 0, 0, 0), f)
    assert st.norm(sd - s0) <= 1e-3
    assert rel4(md, m0) <= 1e-3


def test_coaxiality_mixed_branches():
    rng = np.random.default_rng(53)
    f = st.double_exp_map()
    for k in range(2000):
        if k % 10 == 3:
            t = make_with_eigs(rng, (1.5, 0.2, 0.2))
        elif k % 25 == 9:
            t = st.SymTensor2(0.8, 0.8, 0.8, 0.0, 0.0, 0.0)
        else:
            t = rand_sym(rng, 0.5)
        s, _ = st.isotropic_function(t, f)
        tm, sm = np.array(t.to_matrix()), np.array(s.to_matrix())
        comm = tm @ sm - sm @ tm
        assert np.max(np.abs(comm)) <= 1e-9 * max(1.0, st.norm(t) * st.norm(s))


def test_equivariance():
    rng = np.random.default_rng(54)
    f = st.square_map()
    for _ in range(300):
        t = rand_sym(rng)
        r = rand_rotation(rng)
        s, _ = st.isotropic_function(t, f)
        s_r, _ = st.isotropic_function(rotate(t, r), f)
        assert st.norm(rotate(s, r) - s_r) <= 1e-9 * max(1.0, st.norm(s))


def test_domain_violations_raise():
    f = st.half_log_map()
    with pytest.raises(st.MapDomainError):
        st.isotropic_function(st.SymTensor2(1.0, 1.0, -1.0, 0, 0, 0), f)
    with pytest.raises(st.MapDomainError):
        st.isotropic_function(st.SymTensor2(2.0, 1.0, -1.0, 0, 0, 0), f)
    with pytest.raises(st.MapDomainError):
        st.isotropic_function(st.SymTensor2(-2.0, -2.0, -2.0, 0, 0, 0), f)


# A tensor of each branch: distinct, double and triple.
_BRANCH_TENSORS = (st.SymTensor2(3.0, 2.0, 1.0, 0, 0, 0), st.SymTensor2(3.0, 1.0, 1.0, 0, 0, 0),
                   st.SymTensor2(2.0, 2.0, 2.0, 0, 0, 0))


def _one_row(t):
    rows = st.SymTensor2(*(np.array([x]) for x in t.as_tuple()))
    return rows, *_spectrum_rows(rows)


@pytest.mark.parametrize("bad", (None, "1", 1j, math.nan, math.inf, -math.inf, 10 ** 400),
                         ids=lambda x: repr(x)[:16])
def test_a_map_that_is_not_a_number_is_a_domain_error(bad):
    """A value or slope that is not a finite real number is a MapDomainError
    of isotropic_function on every branch, not a TypeError or
    OverflowError, and leaves the row out of _apply_rows, which does not
    raise."""
    for f in (st.ScalarEigenMap(lambda x: bad, lambda x: 1.0),
              st.ScalarEigenMap(lambda x: x, lambda x: bad)):
        for t in _BRANCH_TENSORS:
            with pytest.raises(st.MapDomainError, match="not a real number"):
                st.isotropic_function(t, f)
            rows, sp, ok = _one_row(t)
            assert _apply_rows(rows, sp, f, ok)[2].tolist() == [False]


def test_the_map_is_called_once_per_distinct_eigenvalue_on_both_paths():
    """eval and deriv each run once per eigenvalue that the branch tells
    apart: at the three of a distinct spectrum, at lam_hat and lam_rep of a
    double one, and once at the triple point, by isotropic_function and by
    _apply_rows alike."""
    calls = []
    f = st.square_map()
    counted = st.ScalarEigenMap(lambda x: calls.append(("eval", x)) or f.eval(x),
                                lambda x: calls.append(("deriv", x)) or f.deriv(x))
    want = ([3.0, 2.0, 1.0], [3.0, 1.0], [2.0])
    for t, lams in zip(_BRANCH_TENSORS, want):
        rows, sp, ok = _one_row(t)
        for apply in (lambda: st.isotropic_function(t, counted),
                      lambda: _apply_rows(rows, sp, counted, ok)):
            calls.clear()
            apply()
            for kind in ("eval", "deriv"):
                at = sorted(x for k, x in calls if k == kind)
                assert at == pytest.approx(sorted(lams), rel=1e-14), (t, kind)


@pytest.mark.parametrize("conv", (Fraction, np.float64, lambda x: int(1e6 * x)),
                         ids=("Fraction", "numpy.float64", "int"))
def test_map_results_that_are_real_numbers_are_read_as_floats_on_both_paths(conv):
    """A map that returns Fractions, numpy floats or ints is answered on
    every branch, by isotropic_function and by _apply_rows, with the bits of
    the map that returns their floats, and with floats."""
    f = st.square_map()
    got = st.ScalarEigenMap(lambda x: conv(f.eval(x)), lambda x: conv(f.deriv(x)))
    want = st.ScalarEigenMap(lambda x: float(conv(f.eval(x))), lambda x: float(conv(f.deriv(x))))
    for t in _BRANCH_TENSORS:
        s, m = st.isotropic_function(t, got)
        want_s, want_m = st.isotropic_function(t, want)
        assert s.as_tuple() == want_s.as_tuple() and {type(x) for x in s.as_tuple()} == {float}
        assert m.m.dtype == float and m.m.tolist() == want_m.m.tolist()
        rows, sp, ok = _one_row(t)
        s_rows, m_rows, ok_f = _apply_rows(rows, sp, got, ok)
        want_rows = _apply_rows(rows, sp, want, ok)
        assert ok_f.all() and want_rows[2].all()
        assert s_rows.tolist() == want_rows[0].tolist()
        assert m_rows.tolist() == want_rows[1].tolist()


_MAP_FIELDS = ("p", "q", "dp_dev", "dp_deq", "dq_dev", "dq_deq", "slope")


def _map_invariants(f, eps_v, eps_q, sign):
    """The return map that the degenerate branches of isotropic_function
    make of f at (eps_v, eps_q) = (I1T, 2 qT/3), by name: the chain rule
    through the coincident eigenvalues."""
    s = float(sign)
    p, q, gp, gq, slope = _map_values(*_eta(f, _coincident(eps_v, 1.5 * eps_q, s)), s)
    return dict(zip(_MAP_FIELDS, (p, q, *gp, *gq, slope)))


def test_scalar_map_invariants_values():
    # Repeated low pair of diag(4,1,1): I1 = 6, q = 3 (eps_q = 2), sign = -1,
    # lam_hat = 4, lam_rep = 1.
    f = st.half_log_map()
    mv = _map_invariants(f, 6.0, 2.0, -1)
    assert abs(mv["p"] - 0.5 * math.log(4.0) / 3.0) <= 1e-14
    assert abs(mv["q"] - (-1) * (0.0 - 0.5 * math.log(4.0))) <= 1e-14
    assert abs(mv["dp_dev"] - (0.125 + 1.0) / 9.0) <= 1e-14
    assert abs(mv["dq_deq"] - (0.5 + 0.25) / 2.0) <= 1e-14
    assert abs(mv["slope"] - 0.5) <= 1e-14
    # Triple limit: qt = 0 collapses the chain rule to eta'.
    mv = _map_invariants(st.square_map(), 6.0, 0.0, 1)
    assert abs(mv["dp_dev"] - 4.0 / 3.0) <= 1e-14
    assert abs(mv["dq_deq"] - 1.5 * 4.0) <= 1e-14
    assert abs(mv["slope"] - 4.0) <= 1e-14
    assert mv["dp_deq"] == 0.0
    assert mv["dq_dev"] == 0.0


def test_scalar_map_invariants_fd_cross_check():
    # The four declared partials against finite differences in (eps_v, eps_q).
    f = st.cube_map()
    ev, eq, s = 2.4, 0.6, -1
    mv = _map_invariants(f, ev, eq, s)
    h = 1e-6
    for field, axis in (("dp_dev", 0), ("dp_deq", 1), ("dq_dev", 0), ("dq_deq", 1)):
        which = field[1]
        args_hi = (ev + h, eq, s) if axis == 0 else (ev, eq + h, s)
        args_lo = (ev - h, eq, s) if axis == 0 else (ev, eq - h, s)
        fd = (_map_invariants(f, *args_hi)[which]
              - _map_invariants(f, *args_lo)[which]) / (2.0 * h)
        assert abs(fd - mv[field]) <= 1e-6 * max(1.0, abs(fd))


def test_map_failure_is_a_map_domain_error_on_every_branch():
    """exp(2 lam) overflows past lam = 355: a map that raises an arithmetic
    error or returns a value that is not finite is refused, naming the
    eigenvalue."""
    rng = np.random.default_rng(57)
    huge = st.ScalarEigenMap(lambda x: 1e308 * x, lambda x: 1e308)
    for eigs in ((400.0, 2.0, 1.0), (400.0, 400.0, 1.0), (400.0, 400.0, 400.0)):
        t = make_with_eigs(rng, eigs)
        with pytest.raises(st.MapDomainError, match=r"map fails at eigenvalue (400|399\.9)"):
            st.isotropic_function(t, st.double_exp_map())
        with pytest.raises(st.MapDomainError, match=r"not finite at eigenvalue (400|399\.9)"):
            st.isotropic_function(t, huge)


def _without_in_pair(t, f):
    """S of f at the double tensor t without the in-pair term of
    spectral._double_values: p I + (q / qT) dev(t)."""
    sp = st.spectrum(t)
    sign, qt = float(sp.mult.theta_sign), math.sqrt(3.0 * sp.inv.j2)
    p, q, *_ = _map_values(*_eta(f, _coincident(sp.inv.i1, qt, sign)), sign)
    return p * st.IDENTITY2 + (q / qt) * st.deviator(t)


# Double spectra of both tags whose pair is split by half the gap tolerance.
_SPLIT = (split_pair((3.0, 1.0, 1.0), 0.5), split_pair((3.0, 3.0, 1.0), -0.5),
          split_pair((0.5, -0.5, -0.5), -0.5))


def test_rows_match_the_scalar_path_and_leave_out_map_failures():
    """_apply_rows on rows of every class: S of every row and the tangent of
    every double and triple row are the scalar results bit for bit, also
    where the pair is split inside the gap tolerance and the in-pair term
    of S is not zero, and a row on which the map overflows, its slope is
    not finite or its value is text is left out instead of raising."""
    rng = np.random.default_rng(58)
    eigs = ((3.0, 2.0, 1.0), (400.0, 2.0, 1.0), (3.0, 1.0, 1.0), (3.0, 3.0, 1.0),
            (400.0, 400.0, 1.0), (2.0, 2.0, 2.0), (400.0, 400.0, 400.0), (0.5, -0.5, -0.5),
            *_SPLIT)
    tensors = [make_with_eigs(rng, e) for e in eigs]
    for x in tensors[-len(_SPLIT):]:
        assert st.spectrum(x).mult.tag is not st.MultTag.DISTINCT
        assert st.isotropic_function(x, st.cube_map())[0] != _without_in_pair(x, st.cube_map())
    t = st.SymTensor2(*np.array([x.as_tuple() for x in tensors]).T)
    sp, ok = _spectrum_rows(t)
    assert ok.all() and set(sp.mult.tolist()) == {0, 1, 2, 3}
    steep = st.ScalarEigenMap(lambda x: x, lambda x: 1.0 if x < 100.0 else math.inf)
    text = st.ScalarEigenMap(lambda x: x if x < 100.0 else "1", lambda x: 1.0)
    for f in (st.double_exp_map(), st.cube_map(), st.half_log_map(), steep, text):
        s, m, ok_f = _apply_rows(t, sp, f, ok)
        for k, x in enumerate(tensors):
            try:
                want_s, want_m = st.isotropic_function(x, f)
            except st.MapDomainError:
                assert not ok_f[k]
                continue
            assert ok_f[k]
            assert s[k].tolist() == list(want_s.as_tuple())
            if sp.mult[k]:
                assert m[k].tolist() == want_m.m.tolist()
            else:
                assert rel4(st.SymTensor4(m[k]), want_m) < 1e-12


def test_log_strain_tangent_fd_where_the_pair_is_split_inside_the_gap():
    """The double-branch tangent of log_strain_from_b against central
    differences, which leave the gap, at B whose pair is split by half the
    gap tolerance."""
    rng = np.random.default_rng(59)
    for eigs in _SPLIT[:2]:
        for _ in range(5):
            b = make_with_eigs(rng, eigs)
            res = st.log_strain_from_b(b)
            assert res.branch.tag is not st.MultTag.DISTINCT
            fd = oracle.fd_tensor_derivative(lambda x: st.log_strain_from_b(x).eps, b)
            assert rel4(fd, res.deps_db) <= 1e-4
