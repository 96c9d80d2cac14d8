"""Seeded random generation of operators, projectors, and harness tuples.

The operator model cannot be enumerated, so the axiom harness samples it.
Unrelated random Hermitian pairs are almost never comparable or orthogonal,
which would make every law vacuous; tuples are therefore drawn from a
recipe that manufactures the relevant relations by construction:

* draw a base operator C, usually with a degenerate integer spectrum so
  that its commutant is rich, sometimes with a Gaussian one;
* emit members A_i = C P_i for random projectors P_i commuting with C
  (sums of spectral projectors, or rotated sub-projectors inside
  eigenspaces, which need not commute with each other).

Everything is driven by a caller-supplied numpy Generator, so runs are
reproducible bit for bit. Tuples are built in two phases: all draws of a
batch first, in the recipe's order (no draw reads a QR or eigh result),
then one stacked QR per matrix size, one stacked eigh and one spectral
accumulation over the eigen-index, where a skipped term adds a zero (±0 on
an accumulator that starts at +0 changes no bit). Stacked LAPACK runs the
same routine on each matrix, so the bits are those of building each member
alone. The sample hook holds at most `_SAMPLE_CHUNK` tuples, in draw order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numerics import DEFAULT_TOL, HermitianOperator, Projector, Tolerances, _rank_mask, eigh, op_equal
from . import observables as obs
from .axioms import StructureHandle
from .errors import ConvergenceFailure, NotLess

__all__ = [
    "random_unitary",
    "random_hermitian",
    "random_spectrum_hermitian",
    "random_commuting_projector",
    "bounded_family",
    "spectral_segment",
    "matrix_structure",
    "describe_operator",
]

_EIGENVALUE_POOL = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)

# Tuples the sample hook draws and realizes together: a bound on memory (at
# dim 64 a chunk of arity-3 tuples holds about 20 MB), not a tuning knob.
_SAMPLE_CHUNK = 64


def _gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _unitaries(z: np.ndarray) -> np.ndarray:
    """Phase-fixed Q factors of a complex Gaussian matrix or a stack of them."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian, phase-fixed."""
    return _unitaries(_gaussian(rng, dim))


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    """Gaussian entries, symmetrized."""
    z = _gaussian(rng, dim)
    return HermitianOperator(scale * (z + z.conj().T) / 2.0)


def _spectral_sums(coef: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i coef[k, i] v_i v_i* over the columns v_i of each v[k], in index
    order; a zero coefficient contributes exactly nothing."""
    a = np.zeros((len(v), v.shape[1], v.shape[1]), dtype=np.complex128)
    for i in range(v.shape[-1]):
        col = v[:, :, i : i + 1]
        a += coef[:, i, None, None] * (col @ col.conj().transpose(0, 2, 1))
    return a


def _operators(a: np.ndarray) -> list:
    # sums self-adjoint in exact arithmetic, made exactly so as by `symmetrized`
    h = (a + a.conj().transpose(0, 2, 1)) / 2.0
    return [HermitianOperator._trusted(x.copy()) for x in h]


def _assemble(w, v, indices) -> HermitianOperator:
    # sum of lam_i v_i v_i* over the selected indices, in ascending order
    idx = list(indices)
    return _operators(_spectral_sums(np.asarray(w)[idx][None], np.asarray(v)[:, idx][None]))[0]


class _Batch:
    """The tuples of one batch: the draw methods record, `realize` builds.
    Per basis: a Gaussian to QR with its pool spectrum, or an operator to
    diagonalize. A member is (basis, mask); one rotated inside the
    eigenspaces has an empty mask and its blocks in `rotated`."""

    def __init__(self, dim: int):
        self.dim, self.raw, self.spectra, self.blocks = dim, [], [], {}
        self.members, self.rotated, self.starts = [], {}, []

    def bounded(self, rng, size, disjoint=False, bound=False, pool=_EIGENVALUE_POOL):
        """C from a random basis and pool spectrum (kept when `bound`), members as in `bounded_family`."""
        n, b = self.dim, len(self.raw)
        self.starts.append(len(self.members))
        self.raw.append(_gaussian(rng, n))
        # the draw of rng.choice(pool, size=n), without its per-call conversions
        self.spectra.append(w := np.asarray(pool)[rng.integers(0, len(pool), size=n)])
        self.members += [(b, np.ones(n, dtype=bool))] if bound else []
        if disjoint:
            owner = rng.integers(0, size + 1, size=n)  # slot `size` means unused
            self.members += [(b, owner == k) for k in range(size)]
        eigenspaces = [] if disjoint else [(lam, np.flatnonzero(w == lam)) for lam in np.unique(w)]
        for _ in range(0 if disjoint else size):
            # P: half the time a subset of the eigenbasis, else rotated in the eigenspaces
            if rng.random() < 0.5:
                self.members.append((b, rng.random(n) < 0.5))
                continue
            blocks = self.rotated[len(self.members)] = []
            self.members.append((b, np.zeros(n, dtype=bool)))
            for lam, idx in eigenspaces:
                r = int(rng.integers(0, len(idx) + 1))
                if r and lam != 0.0:
                    z = self.blocks.setdefault(len(idx), [])
                    z.append(_gaussian(rng, len(idx)))
                    blocks.append((lam, idx, r, len(z) - 1))
        return self

    def gaussian(self, rng, size):
        """Members C P_i for a Gaussian C, P_i over random subsets of its eigenbasis."""
        self.starts.append(len(self.members))
        self.raw.append(random_hermitian(rng, self.dim).entries)
        self.spectra.append(np.full(self.dim, np.nan))  # eigh's, found in `realize`
        self.members += [(len(self.raw) - 1, rng.random(self.dim) < 0.5) for _ in range(size)]

    def realize(self) -> list:
        raw, w = np.stack(self.raw), np.array(self.spectra)
        v, pooled = np.empty_like(raw), ~np.isnan(w[:, 0])
        v[pooled] = _unitaries(raw[pooled])
        try:
            w[~pooled], v[~pooled] = np.linalg.eigh(raw[~pooled])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        units = {m: _unitaries(np.stack(z)) for m, z in self.blocks.items()}
        b, masks = (np.array(x) for x in zip(*self.members))
        sums = _spectral_sums(np.where(masks, w[b], 0.0), v[b])
        for k, blocks in self.rotated.items():
            for lam, idx, r, j in blocks:
                u = v[b[k]][:, idx] @ units[len(idx)][j][:, :r]
                sums[k] += lam * (u @ u.conj().T)
        ops = _operators(sums)
        return [tuple(ops[i:j]) for i, j in zip(self.starts, self.starts[1:] + [len(ops)])]


def random_spectrum_hermitian(
    rng: np.random.Generator, dim: int, pool=_EIGENVALUE_POOL
) -> HermitianOperator:
    """Random basis, eigenvalues drawn (with repeats) from a small pool, so
    degeneracies and kernels actually occur."""
    return _Batch(dim).bounded(rng, 0, bound=True, pool=pool).realize()[0][0]


def random_commuting_projector(
    rng: np.random.Generator, c: HermitianOperator, rotate: bool = True
) -> Projector:
    """A random projector commuting with c.

    Either a sum of a random subset of eigenprojectors, or (when rotate is
    chosen) a random sub-projector inside each spectral eigenspace; the
    latter generally do not commute with one another, only with c."""
    w, v = eigh(c)
    n = c.dim
    if not rotate or rng.random() < 0.5:
        u = v[:, rng.random(n) < 0.5]
        return Projector(u @ u.conj().T)
    # a random sub-projector in each cluster of nearly equal eigenvalues
    order, start, cols = np.argsort(w), 0, [np.zeros((n, 0))]
    for i in range(1, n + 1):
        if i < n and abs(w[order[i]] - w[order[start]]) <= 1e-8 * max(1.0, abs(w[order[start]])):
            continue
        block, start = order[start:i], i
        r = int(rng.integers(0, len(block) + 1))
        if r:
            cols.append(v[:, block] @ random_unitary(rng, len(block))[:, :r])
    u = np.hstack(cols)
    return Projector(u @ u.conj().T)


def bounded_family(rng: np.random.Generator, dim: int, size: int, disjoint: bool = False):
    """(C, members): members are C P_i with P_i commuting with C, so C bounds
    them all. With disjoint=True the P_i are sums over disjoint subsets of a
    common eigenbasis, making the members pairwise orthogonal."""
    c, *members = _Batch(dim).bounded(rng, size, disjoint, bound=True).realize()[0]
    return c, members


def spectral_segment(b: HermitianOperator, tol: Tolerances = DEFAULT_TOL):
    """The finite family {B P : P a sum of spectral projectors of B}, which
    carries the initial segment [O, B]: B P_S assembled spectrally for each
    subset S of B's nonzero eigen-directions under the rank cutoff, in bit
    mask order, so 2^rank members. They are not deduplicated (the harness
    merges them under `eq`); two are equal under `op_equal` only if the
    eigenvalues by which they differ lie above the rank cutoff and yet
    within eq_abs_tol * max(1, ||B||) of 0, which pool spectra never do."""
    w, v = eigh(b)
    idx = np.flatnonzero(_rank_mask(w, tol))
    bits = np.arange(len(idx))
    return [_assemble(w, v, idx[mask >> bits & 1 == 1]) for mask in range(2 ** len(idx))]


def describe_operator(a: HermitianOperator, digits: int = 8) -> str:
    """Canonical, deterministic rendering used in axiom reports."""
    m = np.round(a.entries, digits) + 0.0  # normalize -0.0
    rows = []
    for row in m:
        cells = []
        for x in row:
            if x.imag == 0.0:
                cells.append(f"{x.real:.6g}")
            else:
                cells.append(f"{x.real:.6g}{x.imag:+.6g}j")
        rows.append("[" + ", ".join(cells) + "]")
    return f"H{a.dim}[" + ", ".join(rows) + "]"


def matrix_structure(dim: int = 4, tol: Tolerances = DEFAULT_TOL) -> StructureHandle:
    """The operator model wired into the axiom harness (sampled carrier).

    The join hook is the verified constructive join (None when the pair has
    no common upper bound); the segment hook enumerates spectral families,
    and the sectional-complement constructor is the segment complement."""

    def sample(rng: np.random.Generator, arity: int, count: int):
        # Tuples always share a constructed upper bound. Unrelated tuples
        # would exercise territory the source theory leaves open: the
        # overriding projection law can fail between unrelated operators,
        # and with it skew-meet associativity (see the tests for a concrete
        # two-dimensional counterexample). Bounded tuples are exactly what
        # the theorems govern; rotated sub-projectors make members
        # non-commuting with each other, and the Gaussian branch exercises
        # non-integer spectra through the tolerance machinery.
        def chunk(size):
            batch = _Batch(dim)
            for _ in range(size):
                roll = rng.random()
                if roll < 0.75:
                    batch.bounded(rng, arity, disjoint=roll >= 0.4)
                else:
                    batch.gaussian(rng, arity)
            return batch.realize() if size else []

        # the first chunk is drawn in the call, so a short sample's work is inside it; later ones lazily
        first, *rest = [min(_SAMPLE_CHUNK, count - k) for k in range(0, count, _SAMPLE_CHUNK)] or [0]
        return itertools.chain(chunk(first), itertools.chain.from_iterable(map(chunk, rest)))

    def complement_in(x, p):
        try:
            return obs.segment_complement(x, p, tol)
        except NotLess:
            return None

    return StructureHandle(
        name=f"matrix(dim={dim})",
        zero=HermitianOperator.zero(dim),
        eq=lambda a, b: op_equal(a, b, tol),
        le=lambda a, b: obs.logical_le(a, b, tol),
        join=lambda a, b: obs._try_join(a, b, tol),
        sample=sample,
        perp=lambda a, b: obs.orthogonal(a, b, tol),
        meet=lambda a, b: obs.meet(a, b, tol),
        skew=lambda a, b: obs.skew_meet(a, b, tol),
        subtract=lambda a, b: obs.bck_subtract(a, b, tol),
        osum=lambda a, b: (a + b) if obs.orthogonal(a, b, tol) else None,
        overridden=lambda a, b: obs.overridden(a, b, tol),
        complement_in=complement_in,
        segment=lambda p: spectral_segment(p, tol),
        describe=describe_operator,
        tolerance=tol.eq_abs_tol,
    )
