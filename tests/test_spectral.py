"""Closed-form eigenvalues, multiplicity classification, bases, and spins."""

import dataclasses
import math
import pickle
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import spectens as st
from spectens import oracle, spectral
from spectens.spectral import MultTag, Multiplicity, _anchored, _spin_sum, classify, eigenvalues
from spectens.tensor_core import TAU_ABS, TAU_GAP, TAU_REL

from util import (
    BAND_TENSOR,
    invariants_ref,
    isotropic_plus,
    make_with_eigs,
    quat_rotation,
    rand_rotation,
    rand_sym,
    rel4,
    rotate,
    spectrum_ref,
    spin_den,
    spin_ref,
    sym_square,
)

# Norm 1e110: J3 and J2^(3/2) overflow, so the Lode angle comes out NaN.
_HUGE = st.SymTensor2(1e110, 2e110, -3e110, 0.5e110, 0.0, 0.25e110)


def _eigs(t):
    return eigenvalues(st.invariants(t))


def test_eigenvalue_hand_examples():
    assert max(abs(a - b) for a, b in zip(
        _eigs(st.SymTensor2(5.0, 2.0, -1.0, 0, 0, 0)), (5.0, 2.0, -1.0))) <= 1e-12
    assert max(abs(a - b) for a, b in zip(
        _eigs(st.SymTensor2(4.0, 1.0, 1.0, 0, 0, 0)), (4.0, 1.0, 1.0))) <= 1e-12
    assert max(abs(a - b) for a, b in zip(
        _eigs(st.SymTensor2(2.0, 2.0, 2.0, 0, 0, 0)), (2.0, 2.0, 2.0))) <= 1e-15


def test_eigenvalues_descending_many():
    rng = np.random.default_rng(30)
    for _ in range(2000):
        lam = _eigs(rand_sym(rng))
        assert lam[0] >= lam[1] >= lam[2]


def test_eigenvalues_match_oracle():
    rng = np.random.default_rng(31)
    for _ in range(500):
        t = rand_sym(rng)
        lam = _eigs(t)
        ref = [p.value for p in oracle.jacobi_eigen(t)]
        spread = max(ref[0] - ref[2], 1e-300)
        assert max(abs(a - b) for a, b in zip(lam, ref)) <= 1e-10 * spread


def test_classify_examples():
    m = classify((4.0, 1.0, 1.0), 4.0)
    assert m.tag is MultTag.DOUBLE_HIGH_UNIQUE
    assert m.unique_index == 0
    assert m.theta_sign == -1
    m = classify((1.0, 1.0, -2.0), 2.0)
    assert m.tag is MultTag.DOUBLE_LOW_UNIQUE
    assert m.unique_index == 2
    assert m.theta_sign == 1
    assert classify((2.0 + 1e-16, 2.0, 2.0 - 1e-16), 2.0).tag is MultTag.TRIPLE
    assert classify((5.0, 2.0, -1.0), 5.0).tag is MultTag.DISTINCT
    # Relative gap right at the floor.
    assert classify((1.0 + 5e-8, 1.0, 0.0), 1.0).tag is MultTag.DOUBLE_LOW_UNIQUE
    assert classify((1.0 + 5e-7, 1.0, 0.0), 1.0).tag is MultTag.DISTINCT


def test_theta_sign_branch_guard():
    with pytest.raises(st.BranchError):
        Multiplicity(MultTag.DISTINCT).theta_sign
    with pytest.raises(st.BranchError):
        Multiplicity(MultTag.TRIPLE).theta_sign


def test_eigenbasis_distinct_diagonal_example():
    sp = st.spectrum(st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0))
    assert sp.mult.tag is MultTag.DISTINCT
    for i, axis in enumerate(((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))):
        assert st.norm(sp.bases[i] - st.SymTensor2(*(float(x) for x in axis))) <= 1e-12


def test_eigenbasis_distinct_guards(monkeypatch):
    # A gap of one rounding error classified as distinct (a zero gap floor):
    # the basis denominator vanishes.
    monkeypatch.setattr(spectral, "TAU_GAP", 0.0)
    d = st.SymTensor2(4.0, 1.0, 1.0 + 1e-15, 0.0, 0.0, 0.0)
    with pytest.raises(st.BranchError, match="denominator vanished"):
        st.spectrum(d)


def test_overflowing_norm_raises_typed_error_with_and_without_asserts():
    with pytest.raises(st.DegeneracyError) as info:
        st.spectrum(_HUGE)
    assert str(info.value)
    code = ("import spectens as st\n"
            f"t = st.SymTensor2(*{_HUGE.as_tuple()!r})\n"
            "try:\n"
            "    st.spectrum(t)\n"
            "except st.SpectensError as exc:\n"
            "    print(type(exc).__name__, bool(str(exc)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "DegeneracyError True"


def test_eigenbasis_agrees_with_adjugate_form():
    # Independent second expression for the same basis: for a simple
    # eigenvalue, N_i = (lam_i ((lam_i - I1) I + T) + adj(T)) / (J2 (4 sin^2 b_i - 1)).
    rng = np.random.default_rng(32)
    for _ in range(300):
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        adj = st.adjugate(t)
        for i in range(3):
            lam = sp.lam[i]
            alt = (1.0 / spin_den(sp, i)) * (lam * ((lam - sp.inv.i1) * st.IDENTITY2 + t) + adj)
            assert st.norm(alt - sp.bases[i]) <= 1e-11 * max(1.0, st.norm(sp.bases[i]))


def _double_pair(t):
    """(N_hat, N_rep) of the double spectrum of t: the basis of the lone
    eigenvalue and the shared basis of the repeated pair."""
    sp = st.spectrum(t)
    assert sp.mult.tag is not MultTag.DISTINCT and sp.mult.tag is not MultTag.TRIPLE
    k = sp.mult.unique_index
    n_hat, n_rep = sp.bases[k], sp.bases[2 - k]
    assert sp.bases[1] is n_rep
    return n_hat, n_rep


def test_eigenbasis_double_examples():
    d = st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    n_hat, n_rep = _double_pair(d)
    assert st.norm(n_hat - st.SymTensor2(1, 0, 0, 0, 0, 0)) <= 1e-12
    assert st.norm(n_rep - st.SymTensor2(0, 0.5, 0.5, 0, 0, 0)) <= 1e-12
    d = st.SymTensor2(1.0, 1.0, -2.0, 0.0, 0.0, 0.0)
    n_hat, n_rep = _double_pair(d)
    assert st.norm(n_hat - st.SymTensor2(0, 0, 1, 0, 0, 0)) <= 1e-12
    assert st.norm(n_rep - st.SymTensor2(0.5, 0.5, 0, 0, 0, 0)) <= 1e-12


def test_eigenbasis_double_rotated():
    rng = np.random.default_rng(33)
    for _ in range(200):
        r = rand_rotation(rng)
        t = rotate(st.SymTensor2(4.0, 1.0, 1.0, 0, 0, 0), r)
        n_hat, n_rep = _double_pair(t)
        want = rotate(st.SymTensor2(1, 0, 0, 0, 0, 0), r)
        assert st.norm(n_hat - want) <= 1e-10
        assert st.norm(n_rep - 0.5 * (st.IDENTITY2 - n_hat)) <= 1e-14


def test_spectrum_partition_and_reconstruction():
    rng = np.random.default_rng(34)
    for k in range(2000):
        if k % 10 == 7:
            t = make_with_eigs(rng, (4.0, 1.0, 1.0))
        elif k % 25 == 11:
            t = st.SymTensor2(3.0, 3.0, 3.0, 0.0, 0.0, 0.0)
        else:
            t = rand_sym(rng)
        sp = st.spectrum(t)
        total = sp.bases[0] + sp.bases[1] + sp.bases[2]
        assert st.norm(total - st.IDENTITY2) <= 1e-12
        recon = sp.lam[0] * sp.bases[0] + sp.lam[1] * sp.bases[1] + sp.lam[2] * sp.bases[2]
        assert st.norm(recon - t) <= 1e-10 * max(1.0, st.norm(t))


def test_spectrum_distinct_bases_are_orthogonal_projectors():
    rng = np.random.default_rng(35)
    done = 0
    while done < 300:
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        gaps = min(sp.lam[0] - sp.lam[1], sp.lam[1] - sp.lam[2])
        if gaps < 1e-3 * (sp.lam[0] - sp.lam[2]):
            continue
        for i in range(3):
            assert st.norm(sym_square(sp.bases[i]) - sp.bases[i]) <= 1e-9
            assert abs(sp.bases[i].trace() - 1.0) <= 1e-10
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(st.ddot(sp.bases[i], sp.bases[j])) <= 1e-9
        done += 1


def test_spectrum_triple_sets_bases_to_third_identity():
    sp = st.spectrum(st.SymTensor2(7.0, 7.0, 7.0, 0.0, 0.0, 0.0))
    assert sp.mult.tag is MultTag.TRIPLE
    for b in sp.bases:
        assert st.norm(b - (1.0 / 3.0) * st.IDENTITY2) == 0.0


def test_spectrum_matches_oracle_projectors():
    rng = np.random.default_rng(36)
    done = 0
    while done < 300:
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        spread = sp.lam[0] - sp.lam[2]
        if min(sp.lam[0] - sp.lam[1], sp.lam[1] - sp.lam[2]) < 1e-4 * spread:
            continue
        pairs = oracle.jacobi_eigen(t)
        for i in range(3):
            assert st.norm(sp.bases[i] - oracle.projector(pairs[i])) <= 1e-8
        done += 1


def test_classify_returns_shared_instances_equal_to_fresh_ones():
    cases = (((5.0, 2.0, -1.0), Multiplicity(MultTag.DISTINCT)),
             ((4.0, 1.0, 1.0), Multiplicity(MultTag.DOUBLE_HIGH_UNIQUE, 0)),
             ((1.0, 1.0, -2.0), Multiplicity(MultTag.DOUBLE_LOW_UNIQUE, 2)),
             ((2.0, 2.0, 2.0), Multiplicity(MultTag.TRIPLE)))
    for lam, want in cases:
        assert classify(lam, 5.0) == want
        assert classify(lam, 5.0) is classify(tuple(2.0 * x for x in lam), 10.0)


def _outcome(fn, t):
    """fn(t), or the type of the SpectensError it raised."""
    try:
        return fn(t)
    except st.SpectensError as exc:
        return type(exc)


def _assert_same_spectrum(t):
    got, ref = _outcome(st.spectrum, t), _outcome(spectrum_ref, t)
    if isinstance(ref, type):
        assert got is ref
        return got
    assert got.lam == ref.lam
    assert got.mult == ref.mult
    assert got.bases == ref.bases
    assert got.inv == ref.inv
    inv = ref.inv
    if all(map(math.isfinite, (inv.i1, inv.i2, inv.i3, inv.j2, inv.j3, inv.theta))):
        assert st.invariants(t) == inv
    else:
        with pytest.raises(st.DegeneracyError, match="is not finite"):
            st.invariants(t)
    return got


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("k", range(6))
def test_spectrum_names_a_component_that_is_not_finite(k, bad):
    """spectrum and the functions built on it name a NaN or infinite
    component, instead of blaming the closed-form eigenvalues."""
    comps = [2.0, 1.0, 0.5, 0.1, 0.2, 0.3]
    comps[k] = bad
    t = st.SymTensor2(*comps)
    name = ("xx", "yy", "zz", "xy", "xz", "yz")[k]
    for fn in (st.spectrum, st.log_strain_from_b,
               lambda x: st.isotropic_function(x, st.square_map())):
        with pytest.raises(st.ContractError, match=f"component '{name}' is {bad!r}"):
            fn(t)


def test_spectrum_is_bit_identical_to_the_composed_reference():
    rng = np.random.default_rng(38)
    cases = (((2.5, 0.5, -1.5), MultTag.DISTINCT),
             ((3.0, 0.7, 0.7), MultTag.DOUBLE_HIGH_UNIQUE),
             ((1.8, 1.8, 0.4), MultTag.DOUBLE_LOW_UNIQUE),
             ((1.3, 1.3, 1.3), MultTag.TRIPLE))
    for eigs, tag in cases:
        for _ in range(20):
            t = make_with_eigs(rng, eigs)
            assert _assert_same_spectrum(t).mult.tag is tag
            for scale in (1e-100, 1e100):
                _assert_same_spectrum(scale * t)
        # At norm 1e110 J2^(3/2) overflows: every branch but the triple one
        # raises.
        huge = _assert_same_spectrum(1e110 * t)
        assert (huge is st.DegeneracyError) is (tag is not MultTag.TRIPLE)


_EIGS = hs.floats(-10.0, 10.0, allow_subnormal=False)
_REPEATS = hs.sampled_from(((0, 1, 2), (0, 0, 2), (0, 2, 2), (0, 0, 0)))
_QUAT = hs.tuples(*[hs.floats(-1.0, 1.0)] * 4)
# Below about 1e-12 every spectrum is triple, so half the scales are drawn
# near unit scale.
_LOG10_SCALE = hs.one_of(hs.floats(-6.0, 6.0), hs.floats(-120.0, 110.0))


@settings(max_examples=300)
@given(hs.tuples(_EIGS, _EIGS, _EIGS), _REPEATS, _QUAT, _LOG10_SCALE)
def test_spectrum_is_bit_identical_to_the_composed_reference_property(e, rep, quat, log10_scale):
    q = np.array(quat)
    assume(np.linalg.norm(q) > 0.1)
    r = quat_rotation(q / np.linalg.norm(q))
    eigs = np.array([e[k] for k in rep]) * 10.0 ** log10_scale
    _assert_same_spectrum(st.SymTensor2.from_matrix(r @ np.diag(eigs) @ r.T))


def _row_codes(t):
    """The class code and the mask of _spectrum_rows on t as one row."""
    sp, ok = spectral._spectrum_rows(st.SymTensor2(*(np.array([c]) for c in t.as_tuple())))
    return sp.mult.tolist(), ok.tolist()


def test_undefined_theta_is_triple_on_both_paths():
    """The gaps of BAND_TENSOR alone would call it distinct, with bases that
    are not projectors; its Lode angle is undefined, so it is triple."""
    assert not st.invariants(BAND_TENSOR).theta_defined
    assert _assert_same_spectrum(BAND_TENSOR).mult.tag is MultTag.TRIPLE
    assert _row_codes(BAND_TENSOR) == ([3], [True])


@settings(max_examples=300)
@given(hs.floats(-6.0, 6.0), hs.sampled_from((-1.0, 1.0)), hs.integers(-4, 4),
       hs.floats(-math.pi / 6.0, math.pi / 6.0), _QUAT)
def test_undefined_theta_is_triple_property(log10_scale, sign, ulps, theta, quat):
    """Tensors of mean eigenvalue sign 10^log10_scale whose sqrt(J2) is
    drawn within 4 ulps of the theta floor (TAU_ABS + TAU_REL |T|)/2, at
    Lode angle theta, in a random rotation.  Roundoff in the components
    scatters the computed J2 to both sides of the floor: wherever theta
    comes out undefined, the scalar and the row spectrum are triple."""
    q = np.array(quat)
    assume(np.linalg.norm(q) > 0.1)
    r = quat_rotation(q / np.linalg.norm(q))
    mean = sign * 10.0 ** log10_scale
    floor = 0.5 * (TAU_ABS + TAU_REL * math.sqrt(3.0) * abs(mean))
    sqrt_j2 = floor + ulps * math.ulp(floor)
    eigs = [mean + 2.0 / math.sqrt(3.0) * sqrt_j2 * math.sin(theta + s)
            for s in (2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0)]
    t = st.SymTensor2.from_matrix(r @ np.diag(eigs) @ r.T)
    if not invariants_ref(t).theta_defined:
        assert _assert_same_spectrum(t).mult.tag is MultTag.TRIPLE
        assert _row_codes(t) == ([3], [True])


def test_spectrum_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(200):
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        r = rand_rotation(rng)
        sp_r = st.spectrum(rotate(t, r))
        for i in range(3):
            assert abs(sp.lam[i] - sp_r.lam[i]) <= 1e-10 * max(1.0, abs(sp.lam[i]))
        if min(sp.lam[0] - sp.lam[1], sp.lam[1] - sp.lam[2]) < 1e-3 * (sp.lam[0] - sp.lam[2]):
            continue
        for i in range(3):
            assert st.norm(rotate(sp.bases[i], r) - sp_r.bases[i]) <= 1e-9


def test_adjugate_shares_eigenstructure():
    # adj(T) = sum_i (lam_j lam_k) N_i over the complementary pairs.
    rng = np.random.default_rng(38)
    for _ in range(200):
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        l1, l2, l3 = sp.lam
        want = (l2 * l3) * sp.bases[0] + (l1 * l3) * sp.bases[1] + (l1 * l2) * sp.bases[2]
        adj = st.adjugate(t)
        assert st.norm(adj - want) <= 1e-8 * max(1.0, st.norm(adj))


def test_basis_continuity_across_double_threshold():
    # T(d) = diag(4, 1+d, 1-d): the generic-branch unique basis at d = 1e-4
    # must be within 1e-3 of the double-branch basis at d = 0.
    t0 = st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    n0 = st.spectrum(t0).bases[0]
    td = st.SymTensor2(4.0, 1.0 + 1e-4, 1.0 - 1e-4, 0.0, 0.0, 0.0)
    spd = st.spectrum(td)
    assert spd.mult.tag is MultTag.DISTINCT
    assert st.norm(spd.bases[0] - n0) <= 1e-3


def test_spin_matches_fd_distinct():
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    sp = st.spectrum(t)
    for i in range(3):
        got = st.spin(t, sp, i)
        fd = oracle.fd_tensor_derivative(lambda x, i=i: st.spectrum(x).bases[i], t)
        assert rel4(fd, got) <= 1e-5


def test_spin_matches_fd_random():
    rng = np.random.default_rng(39)
    done = 0
    while done < 50:
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        if min(sp.lam[0] - sp.lam[1], sp.lam[1] - sp.lam[2]) < 1e-2 * (sp.lam[0] - sp.lam[2]):
            continue
        i = done % 3
        got = st.spin(t, sp, i)
        fd = oracle.fd_tensor_derivative(lambda x, i=i: st.spectrum(x).bases[i], t)
        assert rel4(fd, got) <= 1e-4
        done += 1


def test_spin_major_symmetry():
    rng = np.random.default_rng(40)
    done = 0
    while done < 100:
        t = rand_sym(rng)
        sp = st.spectrum(t)
        if sp.mult.tag is not MultTag.DISTINCT:
            continue
        for i in range(3):
            m = st.spin(t, sp, i).m
            assert np.max(np.abs(m - m.T)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
        # Distinct-branch isotropic-function and log-strain tangents are
        # exactly symmetric: B = exp(2 t) is SPD with the bases of t.
        b, m = st.isotropic_function(t, st.double_exp_map())
        assert np.array_equal(m.m, m.m.T)
        res = st.log_strain_from_b(b)
        if res.branch.tag is MultTag.DISTINCT:
            assert np.array_equal(res.deps_db.m, res.deps_db.m.T)
        done += 1


def _scaled_spectrum(sp, s):
    """The spectrum of s*t from that of t, without reclassifying: the
    coincidence floors would call a tiny tensor triple."""
    inv = dataclasses.replace(sp.inv, i1=s * sp.inv.i1, i2=s * s * sp.inv.i2,
                              i3=s ** 3 * sp.inv.i3, j2=s * s * sp.inv.j2,
                              j3=s ** 3 * sp.inv.j3)
    return dataclasses.replace(sp, lam=tuple(s * x for x in sp.lam), inv=inv)


def test_spin_matches_dyad_reference_across_scales():
    # Every summand of the numerator is bounded by about 21 |t|, and both
    # forms round about six times in sequence before the division, so they
    # differ by at most 2 * 6 * (eps/2) * 21 |t| < 128 eps |t| over it.
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(42)
    done = 0
    while done < 60:
        t1 = rand_sym(rng)
        sp1 = st.spectrum(t1)
        if sp1.mult.tag is not MultTag.DISTINCT:
            continue
        for scale in (1e-100, 1.0, 1e100):
            t = scale * t1
            sp = _scaled_spectrum(sp1, scale)
            tols = []
            for i in range(3):
                tols.append(128.0 * eps * st.norm(t) / abs(spin_den(sp, i)))
                assert np.all(np.abs(st.spin(t, sp, i).m - spin_ref(t, sp, i)) <= tols[i])
            # The fused kernel: two weighted spins plus the dyads d_i N_i x N_i,
            # whose entries are at most |d_i| and round a few times each.
            c0, c2 = rng.standard_normal(2)
            d = rng.standard_normal(3)
            want = (c0 * spin_ref(t, sp, 0) + c2 * spin_ref(t, sp, 2)
                    + sum(di * np.outer(n.as_tuple(), n.as_tuple())
                          for di, n in zip(d, sp.bases)))
            tol = abs(c0) * tols[0] + abs(c2) * tols[2] + 8.0 * eps * np.sum(np.abs(d))
            assert np.all(np.abs(_spin_sum(t, sp, (c0, 0.0, c2), d) - want) <= tol)
        done += 1


_SLOTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _eigh_mp(t):
    """The eigenvalues of t, descending, and their unit eigenvectors, from
    an eigendecomposition of its float64 components at the working
    precision of mpmath."""
    e, q = mpmath.eigsy(mpmath.matrix(t.to_matrix()))
    order = sorted(range(3), key=lambda k: -e[k])
    return [e[k] for k in order], [[q[r, k] for r in range(3)] for k in order]


def _spins_mp(t):
    """The three spins of t as stored 6x6 arrays from a 60-digit
    eigendecomposition of its float64 components: dN_i[D] is the sum over
    j != i of (N_i D N_j + N_j D N_i) / (lam_i - lam_j), and column k is that
    at the unit tensor of slot k, over the slot's shear weight."""
    out = np.empty((3, 6, 6))
    with mpmath.workdps(60):
        lam, v = _eigh_mp(t)
        for i in range(3):
            for k, (p, r) in enumerate(_SLOTS):
                col = [mpmath.mpf(0)] * 6
                for j in range(3):
                    if j != i:
                        # N_i E_k N_j = (v_i . E_k v_j) v_i v_j^T
                        c = v[i][p] * v[j][r] + (v[i][r] * v[j][p] if p != r else 0)
                        c /= lam[i] - lam[j]
                        for m, (a, b) in enumerate(_SLOTS):
                            col[m] += c * (v[i][a] * v[j][b] + v[j][a] * v[i][b])
                out[i, :, k] = [float(x) / (1.0 if p == r else 2.0) for x in col]
    return out


_SIGN = hs.sampled_from((-1.0, 1.0))
# The middle eigenvalue m of the shape (1, m, -1): within 2e-3..2e-1 of an
# end, a pair whose gap is 1e-3..1e-1 of the spread, or anywhere between.
_MIDDLE = hs.one_of(hs.floats(-3.0, -1.0).map(lambda e: 1.0 - 2.0 * 10.0 ** e),
                    hs.floats(-0.998, 0.998))


@settings(max_examples=200)
@given(_SIGN, hs.floats(0.0, 12.0), hs.floats(-9.0, 0.0), _MIDDLE, _SIGN, _QUAT)
def test_spectrum_meets_its_conditioning_bound_under_a_dominant_isotropic_part(
        sign, log10_a, log10_ratio, middle, dsign, quat):
    """T = a I + R diag(d) R^T with |a| = 1..1e12, |d|/|a| = 1e-9..1 and
    gaps of at least 1e-3 of the spread, so above the triple floor and
    distinct.  Against a 60-digit eigendecomposition of the stored T, the
    eigenvalues are within E = eps (16 |T| + |s| spread / gap), with s the
    deviator and gap the smaller one, and basis i within E over the gap of
    eigenvalue i.  The isotropic part enters E through |T| only.  The
    second term is the arcsin's conditioning near a pair (ROADMAP item 2):
    with |d| near |a| and a gap near 1e-3 it reaches 170 eps |T|."""
    assume(np.linalg.norm(quat) > 0.1)
    a = sign * 10.0 ** log10_a
    t = isotropic_plus(a, [dsign * 10.0 ** log10_ratio * abs(a) * x for x in (1.0, middle, -1.0)],
                       quat)
    sp = st.spectrum(t)
    assert sp.mult.tag is MultTag.DISTINCT
    with mpmath.workdps(60):
        lam, v = _eigh_mp(t)
        lam_err = max(abs(x - y) for x, y in zip(sp.lam, lam))
        basis_err = [max(abs(x - v[i][p] * v[i][q])
                         for x, (p, q) in zip(sp.bases[i].as_tuple(), _SLOTS)) for i in range(3)]
    ref = [float(x) for x in lam]
    gaps = [min(abs(ref[i] - ref[j]) for j in range(3) if j != i) for i in range(3)]
    eps = float(np.finfo(float).eps)
    bound = eps * (16.0 * st.norm(t) + st.norm(st.deviator(t)) * (ref[0] - ref[2]) / min(gaps))
    assert lam_err <= bound
    assert all(err <= bound / gap for err, gap in zip(basis_err, gaps))


# The split g of the pair of (2, 1 + g, 1) or (2, 2 - g, 1): 0, or 1e-14 up
# to twice the gap tolerance, so on both sides of the double switch.
_SPLIT = hs.one_of(hs.just(0.0),
                   hs.floats(-14.0, math.log10(2.0 * TAU_GAP)).map(lambda e: 10.0 ** e))
_SHIFT = hs.one_of(hs.just(0.0), hs.tuples(_SIGN, hs.floats(0.0, 8.0)).map(
    lambda x: x[0] * 10.0 ** x[1]))


@settings(max_examples=200)
@given(hs.booleans(), _SPLIT, _SHIFT, _QUAT)
def test_lone_basis_is_exact_on_split_pairs_property(low_pair, g, a, quat):
    """T = a I + R diag(d) R^T with d = (2, 1 + g, 1) or (2, 2 - g, 1), a = 0
    or |a| = 1..1e8: a pair split by g, so T is double or, past the switch,
    distinct.  On both sides the basis of the lone eigenvalue (index 0 or
    2) is within 16 eps + eps |T| / spread of the projector of a 50-digit
    eigendecomposition of the stored T, and the row kernel gives the
    scalar bits."""
    assume(np.linalg.norm(quat) > 0.1)
    k = 0 if low_pair else 2
    t = isotropic_plus(a, (2.0, 1.0 + g, 1.0) if low_pair else (2.0, 2.0 - g, 1.0), quat)
    sp = st.spectrum(t)
    assert sp.mult.tag is MultTag.DISTINCT or sp.mult.unique_index == k
    with mpmath.workdps(50):
        lam, v = _eigh_mp(t)
        err = max(abs(x - v[k][p] * v[k][q]) for x, (p, q) in zip(sp.bases[k].as_tuple(), _SLOTS))
    eps = float(np.finfo(float).eps)
    assert err <= 16.0 * eps + eps * st.norm(t) / float(lam[0] - lam[2])
    rows, ok = spectral._spectrum_rows(st.SymTensor2(*(np.array([x]) for x in t.as_tuple())))
    assert ok.tolist() == [True] and spectral._MULTS[rows.mult[0]] is sp.mult
    assert np.array(rows.lam).tobytes() == np.array(sp.lam).tobytes()
    assert all(np.array(r.as_tuple()).tobytes() == np.array(b.as_tuple()).tobytes()
               for r, b in zip(rows.bases, sp.bases))


def test_spin_near_a_double_is_as_accurate_as_the_trigonometric_form():
    # The spin weights come from l_i = lam_i - I1/3, not from sin(beta_i).
    # Near a coincidence both forms are far from exact, so each is judged
    # against a 60-digit reference: per (offset, gap) cell the largest error,
    # in units of the bound of test_spin_matches_dyad_reference_across_scales,
    # may exceed that of the trigonometric spin_ref by at most 10%.
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(44)
    for offset in (0.0, 1e2, 1e4):
        for gap in (1e-2, 1e-3, 1e-4, 1e-5):
            worst = [0.0, 0.0]
            for k in range(25):
                eigs = (1.0, gap, 0.0) if k % 2 else (1.0, 1.0 - gap, 0.0)
                t = make_with_eigs(rng, [offset + x for x in eigs])
                sp = st.spectrum(t)
                assert sp.mult.tag is MultTag.DISTINCT
                ref = _spins_mp(t)
                for i in range(3):
                    unit = 128.0 * eps * st.norm(t) / abs(spin_den(sp, i))
                    for w, m in enumerate((st.spin(t, sp, i).m, spin_ref(t, sp, i))):
                        worst[w] = max(worst[w], np.max(np.abs(m - ref[i])) / unit)
            assert worst[0] <= 1.1 * worst[1], (offset, gap, worst)


def test_spin_second_order_convergence():
    # Central differences of the closed-form basis converge at O(h^2) toward
    # the spin, so the h = 1e-2 error must shrink by far more than 10x at 1e-3.
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.4, -0.3, 0.2)
    sp = st.spectrum(t)
    got = st.spin(t, sp, 0)
    errs = []
    for h in (1e-2, 1e-3):
        fd = oracle.fd_tensor_derivative(lambda x: st.spectrum(x).bases[0], t, h)
        errs.append(rel4(fd, got))
    assert errs[0] / errs[1] > 20.0


def test_spin_double_unique_with_tracking():
    # At a double point the unique-eigenvalue spin is still defined; compare
    # against differences of the generic-branch projector of the lone
    # eigenvalue under splitting perturbations.
    rng = np.random.default_rng(41)
    for eigs, idx in (((4.0, 1.0, 1.0), 0), ((1.0, 1.0, -2.0), 2)):
        t = make_with_eigs(rng, eigs)
        sp = st.spectrum(t)
        assert sp.mult.unique_index == idx
        got = st.spin(t, sp, idx)
        h = 1e-6 * st.norm(t)
        fd = oracle.fd_tensor_derivative(lambda x, idx=idx: st.spectrum(x).bases[idx], t, h)
        assert rel4(fd, got) <= 1e-4


def test_spin_branch_guards():
    t3 = st.SymTensor2(2.0, 2.0, 2.0, 0.0, 0.0, 0.0)
    with pytest.raises(st.DegeneracyError):
        st.spin(t3, st.spectrum(t3), 0)
    td = st.SymTensor2(4.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    spd = st.spectrum(td)
    with pytest.raises(st.DegeneracyError):
        st.spin(td, spd, 1)
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(st.BranchError):
        st.spin(t, st.spectrum(t), 5)
    with pytest.raises(st.BranchError):
        st.spin(td, spd, 5)


def _row_of(x, i):
    """Row i of x, an (n,) array, as a float; a float or a sequence of them
    as it is, with its arrays replaced by their rows."""
    if isinstance(x, np.ndarray):
        return float(x[i])
    if isinstance(x, (tuple, list)):
        return type(x)(_row_of(y, i) for y in x)
    return x


def _spectrum_row(sp, i):
    """Row i of the spectrum of rows sp as a scalar Spectrum."""
    inv = sp.inv
    return spectral.Spectrum(
        _row_of(sp.lam, i), spectral._MULTS[sp.mult[i]],
        tuple(st.SymTensor2(*_row_of(b.as_tuple(), i)) for b in sp.bases),
        st.InvariantSet(*_row_of((inv.i1, inv.i2, inv.i3, inv.j2, inv.j3, inv.theta), i),
                        bool(inv.theta_defined[i])))


@pytest.mark.parametrize("n", (1, 7, 512, 1024))
def test_spin_sum_of_rows_is_bit_identical_to_each_row(n):
    """_spin_sum of a stack of rows equals the _spin_sum of each row to the
    bit, for the three forms its callers use: unit weights (spin), weights
    with dyads (isofunc) and weights with a (G, K) tail (plasticity)."""
    rng = np.random.default_rng(n)
    comps = rng.standard_normal((6, n))
    t = st.SymTensor2(*comps)
    sp, ok = spectral._spectrum_rows(t)
    assert ok.all() and (sp.mult == 0).all()
    c = (rng.standard_normal(n), 0.0, rng.standard_normal(n))
    d = tuple(rng.standard_normal(n) for _ in range(3))
    g = (*st.IDENTITY2.as_tuple(), *rng.standard_normal((12, n)))
    k = [list(rng.standard_normal((3, n))) for _ in range(3)]
    forms = [(tuple(float(j == i) for j in range(3)),) for i in range(3)]
    forms += [(c, d), (c, (0.0, 0.0, 0.0), (g, k))]
    for args in forms:
        got = _spin_sum(t, sp, *args)
        assert got.shape == (n, 6, 6)
        for i in range(n):
            want = _spin_sum(st.SymTensor2(*_row_of(t.as_tuple(), i)), _spectrum_row(sp, i),
                             *_row_of(args, i))
            assert got[i].tobytes() == want.tobytes(), (i, len(args))


@pytest.mark.parametrize("kind", ("invariants", "spectrum"))
def test_hand_written_inits_keep_dataclass_behaviour(kind):
    """InvariantSet and Spectrum set their slots in a written __init__; they
    still construct by keyword, replace, pickle, compare, hash and refuse
    assignment as frozen dataclasses do."""
    t = st.SymTensor2(1.5, -0.25, 0.5, 0.125, -0.375, 0.25)
    obj = st.invariants(t) if kind == "invariants" else st.spectrum(t)
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    again = type(obj)(**fields)
    assert again == obj and hash(again) == hash(obj) and again is not obj
    assert repr(again) == repr(obj) == (
        f"{type(obj).__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")
    assert pickle.loads(pickle.dumps(obj)) == obj
    name = next(iter(fields))
    other = dataclasses.replace(obj, **{name: 7.0})
    assert getattr(other, name) == 7.0 and other != obj
    assert all(getattr(other, k) is v for k, v in fields.items() if k != name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, 7.0)
    with pytest.raises(TypeError):
        type(obj)(*fields.values(), None)


def test_anchored_sum_is_the_sum_over_the_components_of_i():
    """_anchored writes v[1] I + a N_1 + b N_3 out component by component;
    each component has the bits of the sum over I's components (1 or 0),
    also where v[1] * 0.0 is -0.0 or NaN."""
    n1 = st.SymTensor2(0.5, 0.25, 0.25, -0.0, 0.5, 0.0)
    n3 = st.SymTensor2(0.25, 0.5, 0.25, -0.0, 0.25, -0.25)
    eye = st.IDENTITY2.as_tuple()
    # (2, 1, 3): 0.0 + -0.0 + -0.0 on xy; (0, -inf, 0): NaN + inf + inf on xz.
    for v in ((2.0, 1.0, 3.0), (1.0, -2.0, 3.0), (-0.0, -0.0, -0.0), (0.0, -math.inf, 0.0),
              (1.0, math.inf, 3.0), (1e308, -1e308, 1e308), (math.nan, 1.0, 2.0)):
        a, b = v[0] - v[1], v[2] - v[1]
        want = [v[1] * e + a * x + b * y for e, x, y in zip(eye, n1.as_tuple(), n3.as_tuple())]
        got = _anchored(v, n1, n3).as_tuple()
        assert np.array(got).tobytes() == np.array(want).tobytes(), v
