"""The verification machinery itself: Jacobi eigensolver and FD differentiators."""

import math

import numpy as np

import spectens as st
from spectens import oracle

from util import d2_I3, make_with_eigs, rand_sym, rel4, sym_kron, sym_square


def test_jacobi_diagonal_tensor():
    pairs = oracle.jacobi_eigen(st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0))
    vals = [p.value for p in pairs]
    assert vals == [5.0, 2.0, -1.0]
    for p, axis in zip(pairs, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        assert abs(abs(sum(a * b for a, b in zip(p.vector, axis))) - 1.0) <= 1e-14


def test_jacobi_known_rotated_spectrum():
    rng = np.random.default_rng(20)
    for _ in range(50):
        eigs = (3.0, 1.0, 0.5)
        t = make_with_eigs(rng, eigs)
        pairs = oracle.jacobi_eigen(t)
        for p, e in zip(pairs, eigs):
            assert abs(p.value - e) <= 1e-13 * 3.0


def test_jacobi_orthonormal_and_reconstructs():
    rng = np.random.default_rng(21)
    for _ in range(300):
        t = rand_sym(rng)
        pairs = oracle.jacobi_eigen(t)
        v = np.array([p.vector for p in pairs]).T
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-10
        recon = sum(p.value * np.outer(p.vector, p.vector) for p in pairs)
        assert np.max(np.abs(recon - np.array(t.to_matrix()))) <= 1e-12 * max(1.0, st.norm(t))


def test_jacobi_descending_order():
    rng = np.random.default_rng(22)
    for _ in range(200):
        pairs = oracle.jacobi_eigen(rand_sym(rng))
        vals = [p.value for p in pairs]
        assert vals[0] >= vals[1] >= vals[2]


def test_projector_is_rank_one():
    rng = np.random.default_rng(23)
    t = rand_sym(rng)
    for p in oracle.jacobi_eigen(t):
        n = oracle.projector(p)
        assert abs(n.trace() - 1.0) <= 1e-12
        assert st.norm(sym_square(n) - n) <= 1e-12


def test_fd_derivative_of_identity_map():
    rng = np.random.default_rng(24)
    t = rand_sym(rng)
    fd = oracle.fd_tensor_derivative(lambda x: x, t)
    assert rel4(fd, st.IDENTITY4) <= 1e-10


def test_fd_derivative_of_deviator():
    rng = np.random.default_rng(25)
    t = rand_sym(rng)
    fd = oracle.fd_tensor_derivative(st.deviator, t)
    want = st.SymTensor4(st.IDENTITY4.m - st.IXI.m / 3.0)
    assert rel4(fd, want) <= 1e-9


def test_fd_derivative_of_square():
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.0, 0.0, 0.0)
    fd = oracle.fd_tensor_derivative(sym_square, t)
    want = st.SymTensor4(sym_kron(t, st.IDENTITY2).m * 2.0)
    assert rel4(fd, want) <= 1e-5


def test_fd_invariant_gradient_of_trace():
    rng = np.random.default_rng(26)
    t = rand_sym(rng)
    g = oracle.fd_invariant_gradient(lambda x: x.trace(), t)
    assert st.norm(g - st.IDENTITY2) <= 1e-9


def test_fd_gradient_of_det_is_adjugate():
    rng = np.random.default_rng(27)
    for _ in range(20):
        t = rand_sym(rng)
        g = oracle.fd_invariant_gradient(st.det, t)
        assert st.norm(g - st.adjugate(t)) <= 1e-7 * max(1.0, st.norm(st.adjugate(t)))


def test_fd_second_derivative_consistency():
    # d(adjugate)/dT from the FD machinery against the closed form, at a
    # point far from any coincidence.
    t = st.SymTensor2(5.0, 2.0, -1.0, 0.3, -0.2, 0.1)
    fd = oracle.fd_tensor_derivative(st.adjugate, t)
    assert rel4(fd, d2_I3(t)) <= 1e-5
