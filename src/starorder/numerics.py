"""Dense Hermitian linear algebra underpinning the operator order.

Everything here is tolerance-driven: numerical ranks are decided relative
to the largest eigenvalue magnitude, and operator equality is a Frobenius
norm test with a mixed absolute/relative threshold. Both knobs live in
:class:`Tolerances` so that callers can tighten or relax them coherently.
The equality implemented by :func:`op_equal` is *the* equality of the whole
package; no other module compares raw matrix entries. The order's other
two decisions live here too: the rank cutoff ``_rank_mask`` and the test
for O's class ``_is_zero``, which ``_order_range`` applies to P_A.

Three things keep the hot paths cheap without changing a single bit of any
result. :func:`eigh` and :func:`range_projector` each keep their 16 most
recently used results, keyed by the operator object (operators are
immutable and compare by identity; the range projection also by the
:class:`Tolerances` record), because the order operations ask for the
spectrum and the range projection of the same operand several times in a
row. :func:`_fro` is the Frobenius norm computed by numpy's own arithmetic
for ``np.linalg.norm``, without that function's Python dispatch. Input is
checked at the boundary only: the public constructors, the arithmetic and
:func:`matrix_from_json` validate; results that are self-adjoint or
projectors by theorem are wrapped unchecked by the private ``_trusted``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimMismatch, ParseError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "HermitianOperator",
    "Projector",
    "eigh",
    "range_projector",
    "proj_meet",
    "proj_join",
    "op_equal",
    "commutes",
    "rank_sensitive",
    "matrix_to_json",
    "matrix_from_json",
]

# Construction-time invariants, fixed by the data-type contracts (these are
# not user-tunable; Tolerances governs rank and equality decisions only).
_HERMITIZE_REL_DEFECT = 1e-10
_PROJ_IDEMPOTENT_TOL = 1e-9
_PROJ_EIGENVALUE_TOL = 1e-9

# Entries kept by the spectrum and range-projection caches. A bound, not a
# per-operator slot: callers may hold many large operands alive at once. The
# reuse seen in the axiom harness is between calls at most a few operands apart.
_RANGE_CACHE_SIZE = 16


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by every operation in the package.

    rank_rel_tol
        Eigenvalue/singular-value cutoff, relative to the largest magnitude.
    eq_abs_tol
        Operator-equality threshold (Frobenius norm, mixed abs/rel).
    max_dim
        Guard against accidentally huge inputs.
    """

    rank_rel_tol: float = 1e-9
    eq_abs_tol: float = 1e-8
    max_dim: int = 64

    def __post_init__(self):
        if not all(0 <= t < math.inf for t in (self.rank_rel_tol, self.eq_abs_tol)):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.max_dim < 1:
            raise ValueError("max_dim must be a positive integer")


DEFAULT_TOL = Tolerances()


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, bit for bit ``float(np.linalg.norm(x))`` for float and
    complex arrays: the same memory-order ravel and dot products, without the
    dispatch of the general-purpose function."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        r, i = x.real, x.imag
        return math.sqrt(r.dot(r) + i.dot(i))
    return math.sqrt(x.dot(x))


class HermitianOperator:
    """An n-by-n complex self-adjoint matrix.

    The constructor symmetrizes its input, M <- (M + M*)/2, and records the
    symmetrization defect; non-finite inputs and inputs further than
    1e-10 * ||M|| from self-adjoint are rejected, here and in the arithmetic.
    Internal results built through `symmetrized` skip these checks.
    Instances are immutable and safe to share.
    """

    __slots__ = ("entries", "defect")

    def __init__(self, entries):
        m = _float_array(entries, np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        sym = _hermitian_part(m)
        defect = _fro(m - sym)
        if defect > _HERMITIZE_REL_DEFECT * _fro(m):
            raise ValueError(
                f"matrix is not self-adjoint: symmetrization defect {defect:.3e} "
                f"exceeds {_HERMITIZE_REL_DEFECT:g} * ||M||"
            )
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "defect", defect)

    @classmethod
    def _trusted(cls, sym: np.ndarray):
        """Wrap an exactly self-adjoint complex array built inside the package,
        unchecked and uncopied; defect 0, the array made read-only."""
        sym.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", sym)
        object.__setattr__(obj, "defect", 0.0)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        """Frobenius norm."""
        return _fro(self.entries)

    @classmethod
    def zero(cls, dim: int):
        return cls(np.zeros((dim, dim)))

    @classmethod
    def identity(cls, dim: int):
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values):
        return cls(np.diag(_float_array(values, float)))

    def __add__(self, other):
        _same_dim(self, other)
        return HermitianOperator(self.entries + other.entries)

    def __sub__(self, other):
        _same_dim(self, other)
        return HermitianOperator(self.entries - other.entries)

    def __neg__(self):
        return HermitianOperator(-self.entries)

    def scaled(self, c: float):
        """c * A for a real scalar c (complex scalars would break self-adjointness)."""
        return HermitianOperator(float(c) * self.entries)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Projector(HermitianOperator):
    """An orthogonal projector: self-adjoint, idempotent, spectrum in {0, 1}.

    The public constructor validates ||P^2 - P||_F <= 1e-9 * dim and that
    every eigenvalue lies within 1e-9 of 0 or 1; the range projections,
    `proj_meet`, `proj_join` and `complement` are projectors by construction.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        p = self.entries
        if _fro(p @ p - p) > _PROJ_IDEMPOTENT_TOL * self.dim:
            raise ValueError("matrix is not idempotent within tolerance")
        w = np.linalg.eigvalsh(p)
        if float(np.max(np.minimum(np.abs(w), np.abs(w - 1.0)))) > _PROJ_EIGENVALUE_TOL:
            raise ValueError("projector eigenvalues not within 1e-9 of {0, 1}")

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.entries).real)))

    def complement(self) -> "Projector":
        """I - P, the projector onto the orthogonal complement of the range."""
        return Projector._trusted(_hermitian_part(np.eye(self.dim) - self.entries))


def _float_array(x, dtype) -> np.ndarray:
    try:
        return np.array(x, dtype=dtype)
    except OverflowError as exc:  # an integer beyond float range
        raise ValueError("matrix entries must lie in float range") from exc


def _same_dim(a, b):
    if a.dim != b.dim:
        raise DimMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def _arrays_close(x, y, tol: Tolerances) -> bool:
    # the package-wide equality: ||X - Y||_F <= eq_abs_tol * max(1, ||X||, ||Y||),
    # with the norms taken only when needed (tol * max(1, x) = max(tol, tol * x))
    d = _fro(x - y)
    if d <= tol.eq_abs_tol:
        return True
    nx, ny = _fro(x), _fro(y)
    if math.isinf(max(d, nx, ny)):
        # a norm overflowed: decide on copies divided by the largest entry
        # magnitude s, where the threshold max(1, ...) becomes max(1/s, ...)
        s = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
        x, y = x / s, y / s
        return _fro(x - y) <= tol.eq_abs_tol * max(1.0 / s, _fro(x), _fro(y))
    return d <= tol.eq_abs_tol * max(1.0, nx, ny)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def symmetrized(entries) -> HermitianOperator:
    """Build an operator from a matrix that is self-adjoint in exact
    arithmetic, discarding floating-point asymmetry noise first.

    Internal products like B P with P commuting with B are Hermitian as a
    theorem but carry rounding noise that the constructor's strict defect
    gate would reject when the product is nearly zero; call sites that hold
    such a guarantee go through here. The result is built unchecked (no
    finiteness or defect test), so user-supplied matrices never should.
    """
    return HermitianOperator._trusted(_hermitian_part(np.asarray(entries, dtype=np.complex128)))


def eigh(a: HermitianOperator):
    """Spectral decomposition: ascending real eigenvalues and a unitary of
    eigenvectors, both read-only. Repeated calls on the same operator object
    return the same arrays."""
    return _spectrum(a)


@functools.lru_cache(maxsize=_RANGE_CACHE_SIZE)
def _spectrum(a: HermitianOperator):
    try:
        w, v = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _rank_mask(w: np.ndarray, tol: Tolerances, floor: float = 0.0) -> np.ndarray:
    """The package's rank cutoff: which eigenvalues count as nonzero,
    |w| > rank_rel_tol * max(floor, max |w|)."""
    top = float(np.max(np.abs(w))) if w.size else 0.0
    return np.abs(w) > tol.rank_rel_tol * max(top, floor)


def _range_basis(a: HermitianOperator, tol: Tolerances) -> np.ndarray:
    """The eigenvectors whose eigenvalues exceed rank_rel_tol times the
    largest magnitude: an orthonormal basis of the numerical range."""
    w, v = eigh(a)
    return v[:, _rank_mask(w, tol)]


def range_projector(a: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> Projector:
    """Projector onto the range of a self-adjoint operator.

    Eigenvalues with magnitude at most rank_rel_tol times the largest are
    treated as zero, so the result is invariant under nonzero rescaling of
    the input. The zero operator maps to the zero projector. Repeated calls
    on the same operator object return the same (immutable) projector.
    """
    return _range_projector(a, tol)


@functools.lru_cache(maxsize=_RANGE_CACHE_SIZE)
def _range_projector(a: HermitianOperator, tol: Tolerances) -> Projector:
    u = _range_basis(a, tol)
    return Projector._trusted(_hermitian_part(u @ u.conj().T))


def _is_zero(a: HermitianOperator, tol: Tolerances) -> bool:
    """Membership in O's class under `op_equal`: ||A||_F <= eq_abs_tol."""
    return a.norm() <= tol.eq_abs_tol


def _order_range(a: HermitianOperator, tol: Tolerances) -> Projector:
    """P_A as the order reads it: `range_projector`, but 0 for A in O's class,
    whose rounding noise the relative rank cutoff would keep as range."""
    if _is_zero(a, tol):
        return Projector._trusted(np.zeros((a.dim, a.dim), dtype=np.complex128))
    return range_projector(a, tol)


def proj_meet(p: Projector, q: Projector, tol: Tolerances = DEFAULT_TOL) -> Projector:
    """Projector onto ran p intersect ran q.

    Computed as the orthogonal complement of span(ran(I-p) union ran(I-q)),
    which is exact in finite dimensions and has no trouble with nearly
    parallel subspaces, unlike alternating projections.
    """
    return proj_join(p.complement(), q.complement(), tol).complement()


def proj_join(p: Projector, q: Projector, tol: Tolerances = DEFAULT_TOL) -> Projector:
    """Projector onto span(ran p union ran q), the smallest projector above
    both: the range of p + q, from one Hermitian eigendecomposition, which
    keeps exactly-diagonal inputs exact. Unlike the general range projector,
    the cutoff has an absolute floor at scale 1: the summands' eigenvalues
    sit within 1e-9 of {0, 1}, so spectral content of the sum below
    rank_rel_tol is definitionally zero.
    """
    _same_dim(p, q)
    w, v = eigh(HermitianOperator._trusted(p.entries + q.entries))
    u = v[:, _rank_mask(w, tol, floor=1.0)]
    return Projector._trusted(_hermitian_part(u @ u.conj().T))


def op_equal(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """THE operator equality of the package: Frobenius with mixed abs/rel threshold."""
    _same_dim(a, b)
    return _arrays_close(a.entries, b.entries, tol)


def _product_negligible(a: HermitianOperator, b: HermitianOperator, form, tol: Tolerances) -> bool:
    """Whether ||form(AB)||_F <= eq_abs_tol * max(1, ||A|| * ||B||) for a
    linear form; the operand norms are taken only when needed."""
    x, y = a.entries, b.entries
    d = _fro(form(x @ y))
    if d <= tol.eq_abs_tol:
        return True
    bound = _fro(x) * _fro(y)
    if math.isfinite(d) and math.isfinite(bound):
        return d <= tol.eq_abs_tol * max(1.0, bound)
    # the product or a norm overflowed: decide on copies divided by their
    # largest entry magnitudes s, t, where the 1 in max(1, ...) becomes 1/(s t)
    s, t = float(np.max(np.abs(x))), float(np.max(np.abs(y)))
    x, y = x / s, y / t
    return _fro(form(x @ y)) <= tol.eq_abs_tol * max(1.0 / s / t, _fro(x) * _fro(y))


def commutes(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether ||AB - BA||_F <= eq_abs_tol * max(1, ||A|| * ||B||)."""
    _same_dim(a, b)
    return _product_negligible(a, b, lambda m: m - m.conj().T, tol)


def rank_sensitive(operators, tol: Tolerances = DEFAULT_TOL, factor: float = 10.0) -> bool:
    """True when perturbing rank_rel_tol by the factor (up or down) changes
    the numerical rank of any of the operators. Such results should be
    flagged as tolerance-sensitive by reporting layers."""
    for a in operators:
        w = np.abs(eigh(a)[0])
        top = float(w.max()) if w.size else 0.0
        base = int(np.count_nonzero(w > tol.rank_rel_tol * top))
        lo = int(np.count_nonzero(w > (tol.rank_rel_tol / factor) * top))
        hi = int(np.count_nonzero(w > (tol.rank_rel_tol * factor) * top))
        if lo != base or hi != base:
            return True
    return False


def matrix_to_json(a: HermitianOperator) -> dict:
    """{"dim": n, "entries": [[[re, im], ...], ...]}, collapsing to plain reals
    when the matrix has no imaginary part."""
    m = a.entries
    if float(np.max(np.abs(m.imag))) == 0.0:
        entries = [[float(x.real) for x in row] for row in m]
    else:
        entries = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return {"dim": a.dim, "entries": entries}


def _is_real(t) -> bool:
    # JSON true/false arrive as bool, a subclass of int; they are not numbers here
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def _parse_scalar(cell):
    parts = [cell, 0.0] if _is_real(cell) else cell
    if isinstance(parts, list) and len(parts) == 2 and all(_is_real(t) for t in parts):
        try:
            return complex(*parts)
        except OverflowError as exc:  # an integer beyond float range
            raise ParseError("matrix entry is beyond float range") from exc
    raise ParseError(f"matrix entry must be a number or [re, im] pair, got {cell!r}")


def matrix_from_json(doc, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError('matrix JSON must be an object with an "entries" field')
    rows = doc["entries"]
    if not isinstance(rows, list) or not rows:
        raise ParseError('"entries" must be a nonempty array of rows')
    n = len(rows)
    if "dim" in doc and doc["dim"] != n:
        raise ParseError(f'"dim" field says {doc["dim"]} but there are {n} rows')
    if n > tol.max_dim:
        raise ParseError(f"dimension {n} exceeds max_dim {tol.max_dim}")
    m = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} does not have {n} entries")
        for j, cell in enumerate(row):
            m[i, j] = _parse_scalar(cell)
    try:
        return HermitianOperator(m)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
