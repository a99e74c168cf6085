"""Symmetric second/fourth-order tensor values, their algebra, and invariants.

Component storage order is fixed as (11, 22, 33, 12, 13, 23); each shear
component is stored once, so every double contraction weights the shear
slots by 2.  Fourth-order tensors are 6x6 arrays acting on that 6-vector
with the shear doubling absorbed into the contraction, not into the stored
entries (the stored identity has diagonal (1, 1, 1, 1/2, 1/2, 1/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, DegeneracyError, KinematicsError

WEIGHTS = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)

# Eigenvalue-coincidence floors shared by the multiplicity classification,
# the theta-undefined flag, and the degenerate-formula guards.
TAU_ABS = 1e-12
TAU_REL = 1e-10
TAU_GAP = 1e-7

# |cos 3*theta| below this is treated as a repeated eigenvalue for the
# purposes of the theta gradient.
COS3THETA_FLOOR = 1e-8

_SQRT3 = math.sqrt(3.0)
_MINUS_HALF_SQRT27 = -0.5 * math.sqrt(27.0)


def _each(fn):
    return lambda a: np.fromiter(map(fn, a.tolist()), float, a.size)


# Formulas written once for floats or (n,) arrays of rows take math or this.
# sqrt is correctly rounded in both; the rest apply math per element, so a
# row equals its scalar result bit for bit (numpy's arcsin does not).
_ROW_MATH = SimpleNamespace(sqrt=np.sqrt, sin=_each(math.sin), cos=_each(math.cos),
                            asin=_each(math.asin))


def _per_row(fn, ok, args, shape=()) -> tuple[np.ndarray, np.ndarray]:
    """fn(*row) over the (n,) arrays args on the rows where ok, as read by
    _real_result for results of the given shape: ((n, *shape) floats, NaN on
    the rows left out; ok less the rows where fn raises an ArithmeticError
    or its result is refused).  Results that numpy reads as real numbers of
    the right shape are checked in bulk, and only the others one by one."""
    out = np.full(ok.shape + shape, np.nan)
    vals = []
    for row in zip(*(a[ok].tolist() for a in args)):
        try:
            vals.append(fn(*row))
        except ArithmeticError:
            vals.append(out[0])  # NaN: out is not filled yet
    if vals:
        try:
            res = np.array(vals)
        except (TypeError, ValueError):  # sequences of different lengths, say
            res = None
        if res is None or res.dtype.kind not in "biuf" or res.shape != (len(vals), *shape):
            read = (_real_result(v, shape) for v in vals)
            res = np.array([out[0] if x is None else x for x in read], float)
        out[ok] = res
    fine = np.isfinite(out).all(-1) if shape else np.isfinite(out)
    out[~fine] = np.nan
    return out, fine


def _called(fn, args, shape, error, what, where):
    """fn(*args), a user map's result, as _real_result reads it for the
    given shape: the one-tensor twin of _per_row.  error if fn raises an
    ArithmeticError or _real_result refuses the result, naming what (the
    map or field) and the place where.format(*args), built only then."""
    try:
        v = fn(*args)
    except ArithmeticError as exc:
        raise error(f"{what} fails at {where.format(*args)}: {exc!r}") from exc
    # A float, and a tuple of three, as _real_result reads them, only faster.
    if type(v) is float:
        if not shape and math.isfinite(v):
            return v
    elif type(v) is tuple and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float:
        fin = math.isfinite
        if shape and fin(v[0]) and fin(v[1]) and fin(v[2]):
            return v
    x = _real_result(v, shape)
    if x is None:
        kind = "three real numbers" if shape else "a real number"
        raise error(f"{what} gives {v!r}: not {kind}, or not finite at {where.format(*args)}")
    return x


def _real_result(v, shape=()):
    """v, a result of a user map, as floats if it is a finite real number
    (shape ()) or three of them (shape (3,), such as a gradient; then a
    sequence), else None: what numpy reads as such, or a numbers.Real such
    as a Fraction.  None, text, complex numbers and numbers past the float
    range are not."""
    try:
        a = np.asarray(v)
        if a.shape == shape and (a.dtype.kind in "biuf" or a.dtype.kind == "O"
                                 and all(isinstance(x, Real) for x in a.flat)):
            x = a.astype(float).tolist()
            return x if all(map(math.isfinite, x if shape else (x,))) else None
    except (TypeError, ValueError, OverflowError):
        pass
    return None


_TEXT = (str, bytes, bytearray)


def _reals(seq, n: int) -> list[float]:
    """The n real numbers of seq as floats.  Text is a TypeError, as seq or
    as an entry, though float() would parse it, and so is an entry float()
    refuses; a count other than n is a ValueError."""
    if isinstance(seq, _TEXT):
        raise TypeError(f"text {seq!r} is not numbers")
    vals = [_real(x) for x in seq]
    if len(vals) != n:
        raise ValueError(f"expected {n} numbers, got {len(vals)}")
    return vals


def _real(x) -> float:
    if isinstance(x, _TEXT):
        raise TypeError(f"text {x!r} is not a number")
    return float(x)


@dataclass(frozen=True, slots=True, init=False)
class SymTensor2:
    """Symmetric second-order 3x3 tensor; off-diagonal entries stored once.
    The components are floats, or (n,) arrays inside the row kernels."""

    xx: float
    yy: float
    zz: float
    xy: float
    xz: float
    yz: float

    def __init__(self, xx: float, yy: float, zz: float, xy: float, xz: float, yz: float):
        # Slot descriptors cost half the generated object.__setattr__ calls.
        _SET_XX(self, xx)
        _SET_YY(self, yy)
        _SET_ZZ(self, zz)
        _SET_XY(self, xy)
        _SET_XZ(self, xz)
        _SET_YZ(self, yz)

    @classmethod
    def from_seq(cls, seq) -> "SymTensor2":
        try:
            return cls(*_reals(seq, 6))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractError(f"expected 6 numbers (11,22,33,12,13,23), got {seq!r}") from exc

    @classmethod
    def from_matrix(cls, m) -> "SymTensor2":
        """Build from a 3x3 array-like, symmetrizing the off-diagonal part."""
        try:
            (xx, a, b), (c, yy, d), (e, f, zz) = [_reals(row, 3) for row in m]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractError(f"expected a 3x3 array of numbers, got {m!r}") from exc
        return cls(xx, yy, zz, 0.5 * (a + c), 0.5 * (b + e), 0.5 * (d + f))

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.xx, self.yy, self.zz, self.xy, self.xz, self.yz)

    def to_matrix(self) -> list[list[float]]:
        return [
            [self.xx, self.xy, self.xz],
            [self.xy, self.yy, self.yz],
            [self.xz, self.yz, self.zz],
        ]

    def trace(self) -> float:
        return self.xx + self.yy + self.zz

    def __add__(self, o: "SymTensor2") -> "SymTensor2":
        if not isinstance(o, SymTensor2):
            return NotImplemented
        return SymTensor2(self.xx + o.xx, self.yy + o.yy, self.zz + o.zz,
                          self.xy + o.xy, self.xz + o.xz, self.yz + o.yz)

    def __sub__(self, o: "SymTensor2") -> "SymTensor2":
        if not isinstance(o, SymTensor2):
            return NotImplemented
        return SymTensor2(self.xx - o.xx, self.yy - o.yy, self.zz - o.zz,
                          self.xy - o.xy, self.xz - o.xz, self.yz - o.yz)

    def __neg__(self) -> "SymTensor2":
        return SymTensor2(-self.xx, -self.yy, -self.zz, -self.xy, -self.xz, -self.yz)

    # ndarray * SymTensor2 then calls __rmul__ instead of numpy's broadcasting.
    __array_ufunc__ = None

    def __mul__(self, a: float) -> "SymTensor2":
        """a times self; a float, or an (n,) array for a tensor of rows.
        Text is no factor, though float() would parse it."""
        if isinstance(a, _TEXT):
            return NotImplemented
        if not isinstance(a, np.ndarray):
            a = float(a)
        return SymTensor2(a * self.xx, a * self.yy, a * self.zz,
                          a * self.xy, a * self.xz, a * self.yz)

    __rmul__ = __mul__


_SET_XX, _SET_YY, _SET_ZZ, _SET_XY, _SET_XZ, _SET_YZ = (
    getattr(SymTensor2, f).__set__ for f in ("xx", "yy", "zz", "xy", "xz", "yz"))

IDENTITY2 = SymTensor2(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def ddot(a: SymTensor2, b: SymTensor2) -> float:
    """Double contraction a:b with shear terms counted twice."""
    return (a.xx * b.xx + a.yy * b.yy + a.zz * b.zz
            + 2.0 * (a.xy * b.xy + a.xz * b.xz + a.yz * b.yz))


def norm(t: SymTensor2) -> float:
    """Frobenius norm of the full 3x3 tensor."""
    return math.sqrt(ddot(t, t))


def deviator(t: SymTensor2) -> SymTensor2:
    return SymTensor2(*_deviator_diagonal(t.xx, t.yy, t.zz), t.xy, t.xz, t.yz)


def _deviator_diagonal(xx, yy, zz) -> tuple:
    """The diagonal of the deviator, floats or (n,) arrays, from differences
    of the diagonal: exact for nearby entries, so a dominant isotropic part
    cancels before any rounding instead of in xx - I1/3."""
    a, b = xx - zz, yy - zz
    szz = -(a + b) / 3.0
    return a + szz, b + szz, szz


def _sym_square(a: tuple) -> tuple:
    """Components of t.t from the components a of t."""
    xx, yy, zz, xy, xz, yz = a
    return (xx * xx + xy * xy + xz * xz,
            xy * xy + yy * yy + yz * yz,
            xz * xz + yz * yz + zz * zz,
            xx * xy + xy * yy + xz * yz,
            xx * xz + xy * yz + xz * zz,
            xy * xz + yy * yz + yz * zz)


def det(t: SymTensor2) -> float:
    return _det(t.xx, t.yy, t.zz, t.xy, t.xz, t.yz)


def _det(xx: float, yy: float, zz: float, xy: float, xz: float, yz: float) -> float:
    return (xx * (yy * zz - yz * yz)
            - xy * (xy * zz - yz * xz)
            + xz * (xy * yz - yy * xz))


def adjugate(t: SymTensor2) -> SymTensor2:
    """Adjugate (transposed cofactors); equals det(t) t^-1 when t is invertible."""
    return SymTensor2(*_adjugate(t.as_tuple()))


def _adjugate(a: tuple) -> tuple:
    """Components of adjugate(t) from the components a of t."""
    xx, yy, zz, xy, xz, yz = a
    return (yy * zz - yz * yz,
            xx * zz - xz * xz,
            xx * yy - xy * xy,
            xz * yz - xy * zz,
            xy * yz - xz * yy,
            xy * xz - yz * xx)


def _cauchy_green_terms(rows) -> tuple:
    """(det F, the components of B = F F^T) from the rows of F; floats or
    (n,) arrays."""
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = rows
    det = (f00 * (f11 * f22 - f12 * f21)
           - f01 * (f10 * f22 - f12 * f20)
           + f02 * (f10 * f21 - f11 * f20))
    return det, (f00 * f00 + f01 * f01 + f02 * f02, f10 * f10 + f11 * f11 + f12 * f12,
                 f20 * f20 + f21 * f21 + f22 * f22, f00 * f10 + f01 * f11 + f02 * f12,
                 f00 * f20 + f01 * f21 + f02 * f22, f10 * f20 + f11 * f21 + f12 * f22)


_FLOAT_INT = frozenset((float, int))


def left_cauchy_green(f) -> SymTensor2:
    """B = F F^T from a deformation gradient given as a flat row-major
    9-sequence or a 3x3 nested sequence.  Rejects det F <= 0 and an F
    whose B overflows."""
    try:
        n = len(f)
        if isinstance(f, _TEXT):
            raise TypeError(f"text {f!r} is not numbers")
        if n == 9:
            # float() also parses text, so entries of any type but float and
            # int go through _reals, which refuses it.
            x = f if _FLOAT_INT.issuperset(map(type, f)) else _reals(f, 9)
            rows = [[float(x[0]), float(x[1]), float(x[2])],
                    [float(x[3]), float(x[4]), float(x[5])],
                    [float(x[6]), float(x[7]), float(x[8])]]
        elif n == 3:
            rows = [_reals(row, 3) for row in f]
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise KinematicsError(
            f"deformation gradient must be a sequence of numbers or of rows of numbers: {exc}"
        ) from exc
    if n not in (3, 9):
        raise KinematicsError("deformation gradient must be 3x3 or flat length 9")
    det, b = _cauchy_green_terms(rows)
    if not det > 0.0:
        raise KinematicsError(f"deformation gradient has det = {det!r}, expected > 0")
    # An off-diagonal entry of B that overflows makes a diagonal one overflow.
    if not math.isfinite(b[0] + b[1] + b[2]):
        raise KinematicsError(f"B = F F^T overflows: its trace is {b[0] + b[1] + b[2]!r}")
    return SymTensor2(*b)


@dataclass(frozen=True, slots=True, init=False)
class InvariantSet:
    """Principal invariants of a tensor and of its deviator.

    theta is the Lode angle in [-pi/6, pi/6]; when J2 sits below the
    coincidence floor it is reported as 0.0 with theta_defined False.
    """

    i1: float
    i2: float
    i3: float
    j2: float
    j3: float
    theta: float
    theta_defined: bool

    def __init__(self, i1: float, i2: float, i3: float, j2: float, j3: float,
                 theta: float, theta_defined: bool):
        # The slot descriptors, as in SymTensor2.
        _SET_I1(self, i1)
        _SET_I2(self, i2)
        _SET_I3(self, i3)
        _SET_J2(self, j2)
        _SET_J3(self, j3)
        _SET_THETA(self, theta)
        _SET_THETA_DEFINED(self, theta_defined)


_SET_I1, _SET_I2, _SET_I3, _SET_J2, _SET_J3, _SET_THETA, _SET_THETA_DEFINED = (
    getattr(InvariantSet, f).__set__
    for f in ("i1", "i2", "i3", "j2", "j3", "theta", "theta_defined"))


def invariants(t: SymTensor2) -> InvariantSet:
    """All six invariants; the arcsin argument for theta is clamped to [-1, 1],
    which roundoff passes by a few ulps at most, as J2 and J3 come from the
    deviator of _deviator_diagonal.

    DegeneracyError names the first invariant that is not finite: I3
    overflows once the components pass about 5e102.  ContractError names
    the first component of t that is NaN or infinite, if one is.
    """
    return InvariantSet(*_finite_invariants(t)[0])


def _finite_invariants(t: SymTensor2) -> tuple[tuple, tuple, float]:
    """_invariants(t), with the errors of invariants(t)."""
    res = _invariants(t)
    inv = res[0]
    if not all(map(math.isfinite, inv[:6])):
        _refuse_nonfinite(t)
        raise _overflow(next(name for name, x in zip(_INVARIANT_NAMES, inv)
                             if not math.isfinite(x)))
    return res


_INVARIANT_NAMES = ("I1", "I2", "I3", "J2", "J3", "theta")


def _refuse_nonfinite(t: SymTensor2) -> None:
    """ContractError naming the first component of t that is NaN or infinite.
    Called only once a result is not finite, so finite inputs pay nothing."""
    for name, x in zip(("xx", "yy", "zz", "xy", "xz", "yz"), t.as_tuple()):
        if not math.isfinite(x):
            raise ContractError(f"tensor component {name!r} is {x!r}, not a finite number")


def _overflow(name: str) -> DegeneracyError:
    """The error for a result, named name, that is not finite."""
    return DegeneracyError(f"result field {name!r} is not finite: "
                           "the input overflows the closed form")


def _invariants(t: SymTensor2) -> tuple[tuple, tuple, float]:
    """(the fields of invariants(t) in order, components of deviator(t),
    norm(t)) in one pass, unchecked."""
    i1, i2, i3, j2, j3, s, sqrt_j2, nrm, undefined = _invariant_terms(t, math)
    if undefined:
        return (i1, i2, i3, j2, j3, 0.0, False), s, nrm
    arg = _sin3theta(j2, j3, sqrt_j2)
    if abs(arg) > 1.0:
        arg = math.copysign(1.0, arg)
    return (i1, i2, i3, j2, j3, math.asin(arg) / 3.0, True), s, nrm


@np.errstate(all="ignore")
def _invariant_rows(t: SymTensor2) -> tuple[tuple, tuple, np.ndarray]:
    """_invariants of the rows of t, whose components are (n,) arrays."""
    i1, i2, i3, j2, j3, s, sqrt_j2, nrm, undefined = _invariant_terms(t, _ROW_MATH)
    arg = _sin3theta(j2, j3, sqrt_j2)
    theta = np.where(undefined, 0.0, _ROW_MATH.asin(np.clip(arg, -1.0, 1.0)) / 3.0)
    return (i1, i2, i3, j2, j3, theta, ~undefined), s, nrm


def _invariant_terms(t: SymTensor2, m) -> tuple:
    """(I1, I2, I3, J2, J3, deviator, sqrt(J2), norm, theta undefined) of t;
    floats or (n,) arrays, with sqrt from m.  The norm is that of norm(t),
    from the same expression as ddot."""
    xx, yy, zz, xy, xz, yz = t.xx, t.yy, t.zz, t.xy, t.xz, t.yz
    i1 = xx + yy + zz
    i2 = (xx * yy + yy * zz + zz * xx
          - xy * xy - xz * xz - yz * yz)
    i3 = _det(xx, yy, zz, xy, xz, yz)
    sxx, syy, szz = _deviator_diagonal(xx, yy, zz)
    j2 = (0.5 * (sxx * sxx + syy * syy + szz * szz)
          + xy * xy + xz * xz + yz * yz)
    j3 = _det(sxx, syy, szz, xy, xz, yz)
    sqrt_j2 = m.sqrt(j2)
    nrm = m.sqrt(xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz))
    return (i1, i2, i3, j2, j3, (sxx, syy, szz, xy, xz, yz), sqrt_j2, nrm,
            sqrt_j2 <= 0.5 * (TAU_ABS + TAU_REL * nrm))


def _sin3theta(j2, j3, sqrt_j2):
    """sin(3 theta) before its clamp to [-1, 1]."""
    return _MINUS_HALF_SQRT27 * j3 / (j2 * sqrt_j2)


def dtheta_dT(t: SymTensor2) -> SymTensor2:
    """Gradient of the Lode angle of t; undefined at J2 = 0 and theta =
    +/-pi/6.  Where invariants(t) raises, so does it."""
    inv, s, _ = _finite_invariants(t)
    return SymTensor2(*_dtheta_of_dev(s, inv[3], inv[5], inv[6]))


def _dtheta_of_dev(s: tuple, j2: float, theta: float, defined: bool) -> tuple:
    """The components of dtheta_dT from those of the deviator s of t and the
    fields j2, theta and theta_defined of its invariants, with its guards."""
    if not defined or j2 <= 0.0:
        raise DegeneracyError("theta gradient undefined: J2 is below the coincidence floor")
    cos3t = math.cos(3.0 * theta)
    if abs(cos3t) <= COS3THETA_FLOOR:
        raise DegeneracyError(
            "theta gradient undefined at a repeated eigenvalue (theta = +/-pi/6)")
    return _dtheta(s, j2, theta, cos3t, math)


def _dtheta(s: tuple, j2, theta, cos3t, m) -> tuple:
    """The components of dtheta_dT past its guards from those of the
    deviator s of t, for floats or (n,) arrays; m supplies sqrt and sin."""
    a = _adjugate(s)
    sqrt_j2 = m.sqrt(j2)
    c_adj = _SQRT3 / (2.0 * j2 * sqrt_j2)
    c_eye = _SQRT3 / (6.0 * sqrt_j2)
    c_dev = m.sin(3.0 * theta) / (2.0 * j2)
    g = -1.0 / cos3t
    return (g * (c_adj * a[0] + c_eye + c_dev * s[0]),
            g * (c_adj * a[1] + c_eye + c_dev * s[1]),
            g * (c_adj * a[2] + c_eye + c_dev * s[2]),
            g * (c_adj * a[3] + c_dev * s[3]),
            g * (c_adj * a[4] + c_dev * s[4]),
            g * (c_adj * a[5] + c_dev * s[5]))


class SymTensor4:
    """Fourth-order tensor with minor symmetries stored as a 6x6 array.

    Stored entries are plain component products, e.g. the dyad a x b stores
    a[i]*b[j]; apply() supplies the shear doubling of the contraction.
    Major symmetry of the tensor is symmetry of the stored matrix.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        try:
            arr = np.asarray(m)
        except (TypeError, ValueError) as exc:
            raise ContractError(f"expected a 6x6 array of numbers, got {m!r}") from exc
        # Kinds b, i, u and f: numpy would turn None to NaN, parse text and
        # drop an imaginary part.
        if arr.dtype.kind not in "biuf":
            raise ContractError(f"expected a 6x6 array of real numbers, got {arr.dtype} {m!r}")
        if arr.shape != (6, 6):
            raise ContractError(f"expected a 6x6 array, got shape {arr.shape}")
        arr = arr.astype(float)
        arr.flags.writeable = False
        self.m = arr

    @classmethod
    def _of(cls, arr: np.ndarray) -> "SymTensor4":
        """The tensor stored in arr, a new (6, 6) float array that nothing
        else holds, which it keeps without the copy and check of __init__."""
        t = object.__new__(cls)
        arr.flags.writeable = False
        t.m = arr
        return t

    def apply(self, v: SymTensor2) -> SymTensor2:
        w = (v.xx, v.yy, v.zz, 2.0 * v.xy, 2.0 * v.xz, 2.0 * v.yz)
        out = self.m @ np.array(w)
        return SymTensor2(float(out[0]), float(out[1]), float(out[2]),
                          float(out[3]), float(out[4]), float(out[5]))

    def as_list(self) -> list[float]:
        return self.m.ravel().tolist()


# Slot of each 3x3 component in the stored order, and the (i, j) of each slot.
_SLOT = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_VI, _VJ = np.array([[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]])
# Slots of the components ik, jl, il and jk at row (ij), column (kl).
_IK, _JL, _IL, _JK = (_SLOT[r[:, None], c]
                      for r, c in ((_VI, _VI), (_VJ, _VJ), (_VI, _VJ), (_VJ, _VI)))


IDENTITY4 = SymTensor4(np.diag([1.0, 1.0, 1.0, 0.5, 0.5, 0.5]))
_E = np.array(IDENTITY2.as_tuple())
IXI = SymTensor4(np.outer(_E, _E))
# The entry at row (ij), column (kl) of the symmetrized dyad sym(a x b),
# which maps d to (a.d.b + b.d.a) / 2, takes 1/4 of each of a_ik b_jl,
# b_ik a_jl, a_il b_jk and b_il a_jk: ravel(sym(a x b)) = ravel(a x b) @ _SYM.
_SYM = np.zeros((36, 36))
np.add.at(_SYM, (6 * np.array((_IK, _JL, _IL, _JK)) + (_JL, _IK, _JK, _IL),
                 np.arange(36).reshape(6, 6)), 0.25)


def _as_vec(comps: tuple) -> np.ndarray:
    """The components comps of a tensor as a (6,) array, or as (n, 6) for a
    tensor of rows.  C-ordered: in another memory layout, the matrix
    products of a stack need not round as those of one array do."""
    return np.ascontiguousarray(np.array(comps).T)


# d2_I3(t), the second derivative of det(t), maps d to t.d + d.t - tr(d) t
# - I1 d + (I1 tr(d) - t:d) I.  Its stored array is 2 sym(t x I) - t x I
# - I x t + I1 (I x I - I4): the entry at row (ij), column (kl) is
# (t_ik I_jl + t_il I_jk + I_ik t_jl + I_il t_jk)/2 - t_ij I_kl - I_ij t_kl
# + I1 (I_ij I_kl - (I_ik I_jl + I_il I_jk)/2), with I_ij the Kronecker
# delta; apply() doubles the shear.  The map is linear in t: row k of _D2 is
# d2_I3 of the k-th unit tensor e_k, row k of the identity, whose 2 sym(e_k x I)
# is the sum of rows 6k..6k+2 of 2 _SYM; the stored array of d2_I3(t) is
# t.as_tuple() @ _D2 reshaped to 6x6.
_D2 = (2.0 * _SYM.reshape(6, 6, 36)[:, :3].sum(1) - np.kron(np.eye(6), _E)
       - np.kron(_E, np.eye(6)) + np.outer(_E, IXI.m - IDENTITY4.m))
