"""The logical order on self-adjoint operators and its derived operations.

``A`` precedes ``B`` in the logical order when B agrees with A on A's
range, equivalently when A = B P_A for the range projection P_A.  The
order is not a lattice order, but meets always exist, joins exist for
families with a common upper bound, and every initial segment [O, B] is an
orthomodular lattice carried by the projections commuting with B.

The meet and the skew meet are sums over common eigenvectors.  With
E_l(X) the eigenspace of X for the eigenvalue l and P(S) the projector
onto S,

    meet(A, B)      = sum over l != 0 of  l P(E_l(A) intersect ker(B - A)),
    skew_meet(A, B) = sum over l != 0 of  l P(E_l(B) intersect ran A).

Proof sketch: the meet is B P for the largest projector P whose range
reduces B and lies in S0 = ran A intersect ran B intersect ker(A - B); on
S0 A and B agree, so the range reduces A too.  It therefore splits into
common eigenvectors, Ax = Bx = l x, with l != 0 because x lies in ran B.
Conversely each common eigenvector with l != 0 spans a subspace of S0
that reduces B.  For x in E_l(A), (B - A)x = Bx - l x, so
E_l(A) intersect ker(B - A) is exactly the common eigenspace.  The skew
meet drops the kernel factor from S0, leaving the eigenvectors of B with
l != 0 that lie in ran A.  Both therefore take one eigendecomposition and
one small null space per eigenvalue cluster.  Both are total; the join is
only provided against an explicit upper-bound witness, because deciding
whether a common upper bound exists is a different problem from computing
the join once one is known.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotLess, NotOrthogonal, NotUpperBound
from .numerics import (
    DEFAULT_TOL,
    HermitianOperator,
    Projector,
    Tolerances,
    _RANGE_CACHE_SIZE,
    _arrays_close,
    _product_negligible,
    _range_basis,
    _same_dim,
    eigh,
    proj_join,
    proj_meet,
    range_projector,
    symmetrized,
)

__all__ = [
    "logical_le",
    "orthogonal",
    "osum",
    "meet",
    "join_bounded",
    "meet_bounded",
    "bck_subtract",
    "segment_complement",
    "overridden",
    "skew_meet",
]


def _zeroish(a: HermitianOperator, tol: Tolerances) -> bool:
    # membership in the zero class of the package equality
    return a.norm() <= tol.eq_abs_tol


@functools.lru_cache(maxsize=_RANGE_CACHE_SIZE)
def _eff_range_projector(a: HermitianOperator, tol: Tolerances) -> Projector:
    """Range projector as seen by the order: operators equal to O under the
    package equality get the zero projector, so that order predicates are
    congruent with `op_equal`. (The bare relative rank cutoff would keep
    rounding noise as range for such operators.) Memoized like
    `range_projector`, by operator identity."""
    if _zeroish(a, tol):
        return Projector._trusted(np.zeros((a.dim, a.dim), dtype=np.complex128))
    return range_projector(a, tol)


def logical_le(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A precedes B, i.e. A = B P_A."""
    _same_dim(a, b)
    if _zeroish(a, tol):
        return True
    pa = range_projector(a, tol)
    return _arrays_close(a.entries, b.entries @ pa.entries, tol)


def orthogonal(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the composition AB vanishes (a symmetric relation on self-adjoint pairs)."""
    _same_dim(a, b)
    return _product_negligible(a, b, lambda m: m, tol)


def osum(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """Orthogonal sum A + B, defined only for orthogonal pairs.

    When defined, the sum is the join of the pair, so both summands precede it.
    """
    if not orthogonal(a, b, tol):
        raise NotOrthogonal("osum is undefined: the operators are not orthogonal")
    return a + b


def meet(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """Greatest lower bound of A and B. Total, unlike the join."""
    _same_dim(a, b)
    s = _scale(a, b)
    # B - A rather than B - lambda: no cluster-mean error enters the null space
    return _eigen_meet(a, b, eigh(a), b.entries - a.entries, s, s, tol)


def _scale(a: HermitianOperator, b: HermitianOperator) -> float:
    """max(||A||_2, ||B||_2), read off the cached spectra."""
    return max(max(-w[0], w[-1]) for w in (eigh(a)[0], eigh(b)[0]))


def _eigen_meet(a, b, spectrum, m, s, m_scale, tol) -> HermitianOperator:
    """B P, for P the projector onto the sum over the nonzero eigenvalue
    clusters of `spectrum` of (cluster eigenspace) ∩ ker M; O when A or B
    equals O.

    The ascending eigenvalues split into clusters wherever a gap exceeds
    rank_rel_tol * s, and clusters whose mean lies within that cutoff of 0
    are dropped. For each remaining eigenvector basis U, singular values of
    M U up to rank_rel_tol * m_scale count as zero.
    """
    n = b.dim
    cols = []
    if not (_zeroish(a, tol) or _zeroish(b, tol)):
        w, v = spectrum
        cut = tol.rank_rel_tol * s
        bounds = [0, *(np.flatnonzero(np.diff(w) > cut) + 1), n]
        for lo, hi in zip(bounds, bounds[1:]):
            if abs(w[lo:hi].mean()) <= cut:
                continue
            u = v[:, lo:hi]
            _, sv, vh = np.linalg.svd(m @ u, full_matrices=False)
            cols.append(u @ vh[np.count_nonzero(sv > tol.rank_rel_tol * m_scale):].conj().T)
    x = np.hstack(cols) if cols else np.zeros((n, 0), dtype=np.complex128)
    return symmetrized(b.entries @ (x @ x.conj().T))


def _checked_family(family, c, tol):
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")
    projs = []
    for i, a in enumerate(members):
        if not logical_le(a, c, tol):
            raise NotUpperBound(i)
        projs.append(_eff_range_projector(a, tol))
    return projs


def join_bounded(family, c: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """Least upper bound of a nonempty family, given an upper bound C of it.

    Equals C composed with the projector join of the members' range
    projections; the range projection of the result is that join.
    """
    projs = _checked_family(family, c, tol)
    p = projs[0]
    for q in projs[1:]:
        p = proj_join(p, q, tol)
    return symmetrized(c.entries @ p.entries)


def meet_bounded(family, c: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """Greatest lower bound of a nonempty family below C; agrees with `meet`
    on two-element families whenever a common upper bound exists."""
    projs = _checked_family(family, c, tol)
    p = projs[0]
    for q in projs[1:]:
        p = proj_meet(p, q, tol)
    return symmetrized(c.entries @ p.entries)


def bck_subtract(b: HermitianOperator, a: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """Total subtraction B(I - P_{A meet B}), the weak-BCK difference of B by A."""
    _same_dim(a, b)
    m = meet(a, b, tol)
    pm = _eff_range_projector(m, tol)
    return symmetrized(b.entries @ (np.eye(b.dim) - pm.entries))


def segment_complement(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """B - A, the complement of A in the segment [O, B]; requires A below B.

    The result precedes B, is orthogonal to A, and restores B under osum.
    """
    if not logical_le(a, b, tol):
        raise NotLess("segment complement needs the first operand below the second")
    return b - a


def overridden(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether A's range is contained in B's range (P_A <= P_B)."""
    _same_dim(a, b)
    if _zeroish(a, tol):
        return True
    if _zeroish(b, tol):
        return False
    pa = range_projector(a, tol)
    pb = range_projector(b, tol)
    return _arrays_close(pa.entries @ pb.entries, pa.entries, tol)


def skew_meet(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL) -> HermitianOperator:
    """The right-handed skew meet: the largest operator that precedes B and is
    overridden by A. Total and associative but not commutative."""
    _same_dim(a, b)
    # ran A = ker(I - P_A); a projector's singular values live at scale 1
    m = np.eye(a.dim) - _eff_range_projector(a, tol).entries
    return _eigen_meet(a, b, eigh(b), m, _scale(a, b), 1.0, tol)


def _try_join(a: HermitianOperator, b: HermitianOperator, tol: Tolerances = DEFAULT_TOL):
    """Join of A and B, or None when they have no common upper bound.

    Any common upper bound agrees with A on ran A and with B on ran B, and
    the join is the unique such operator supported on ran A + ran B. We
    solve for that candidate and verify it; the verification step decides
    definedness, so no existence oracle is needed. Harness plumbing: the
    public API for joins is `join_bounded`, which takes the witness.
    """
    _same_dim(a, b)
    ua, ub = (np.zeros((op.dim, 0)) if _zeroish(op, tol) else _range_basis(op, tol) for op in (a, b))
    x = np.hstack([ua, ub])
    if x.shape[1] == 0:
        return HermitianOperator.zero(a.dim)
    y = np.hstack([a.entries @ ua, b.entries @ ub])
    cand = symmetrized(y @ np.linalg.pinv(x, rcond=tol.rank_rel_tol))
    if not np.all(np.isfinite(cand.entries)):
        return None
    if logical_le(a, cand, tol) and logical_le(b, cand, tol):
        return cand
    return None
