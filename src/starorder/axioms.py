"""Generic axiom-verification harness.

A carrier is described by a :class:`StructureHandle`: an equality, an
order, a partial join (returning None when undefined), a zero, and
optional orthogonality / meet / skew-meet / subtraction hooks. Finite
carriers are checked exhaustively, visiting every tuple exactly once;
otherwise tuples are drawn from the structure's sampler under a per-axiom
seeded stream, so repeated runs are bit-for-bit reproducible. Equality is
always the structure's own hook; the harness never compares raw numbers.

A finite carrier is indexed before it is checked: its elements are recoded
as the indices 0..n-1, and each hook gets one table, filled on first use by
calling the real hook on pairs of elements, with element results recoded as
indices. A handle that is already indexed keeps its tables, so `verify`
indexes once and a hook runs at most n² times in all its suites. Each law
is written once, as a kernel that reads the carrier's tables. On a finite
carrier the tables are arrays and the kernel is one numpy expression over
index grids. On a sampled carrier each table lookup calls the hook, and the
kernel builds an expression that is walked on each sampled tuple. Failure
witnesses replay through the kernel on one tuple, on either kind of carrier.
Reports speak of the carrier's own elements again. Each initial segment
[0, p] is indexed the same way, as a finite carrier of its own, on either
kind of carrier; its order, lub, glb and complement tables are arrays, and
the segment laws are kernels over them, run as any exhaustive law is.

Every check returns :class:`AxiomReport` records. A ``fail`` verdict
carries witnesses that re-falsify the law when replayed through the same
hooks (each report exposes a ``replay`` callable for exactly this).
Existential clauses are decided exhaustively on finite carriers; on
sampled carriers the witness must be produced constructively by the model
(e.g. a registered sectional-complement constructor), and clauses with no
registered constructor are reported as informational rather than guessed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import (
    InfiniteCarrier,
    MeetUnavailable,
    OrthogonalityUnavailable,
    SubtractionUnavailable,
)

__all__ = [
    "CheckConfig",
    "DEFAULT_CONFIG",
    "StructureHandle",
    "AxiomReport",
    "check_nearsemilattice",
    "check_absorption_and_distributivity",
    "check_orthogonality",
    "check_quasi_orthomodular",
    "check_gen_orthoalgebra",
    "check_riesz",
    "check_weak_bck",
    "check_overriding_and_skew",
    "check_initial_segments_oml",
    "run_suite",
    "SUITE_NAMES",
    "reports_to_json",
    "format_report_table",
]


@dataclass(frozen=True)
class CheckConfig:
    seed: int = 0
    samples: int = 500
    max_witnesses: int = 5


DEFAULT_CONFIG = CheckConfig()


@dataclass
class StructureHandle:
    """Hooks describing one carrier of the axioms.

    ``join`` is the partial join: return the join or None when undefined.
    ``elements`` marks a finite carrier (exhaustive checks); otherwise
    ``sample(rng, arity, count)`` must return an iterable of ``count`` tuples
    of ``arity`` related elements, drawn in order from ``rng``.
    ``complement_in(x, p)`` is the registered witness constructor for the
    existential complement clauses: given x below p it returns z with
    x perp z and x join z = p (or None when it cannot).
    ``segment(p)`` enumerates a finite family carrying the segment [0, p],
    zero included; members equal under ``eq`` count once, the first kept.
    The segment laws call ``le`` and ``perp`` at most once per pair of the
    family's elements, and ``complement_in`` once per member.
    ``key`` is an optional exact canonical key: finite carriers find hook
    results among their elements by it, and by an ``eq`` search without it.
    A finite carrier must be closed under its hooks (a result outside it is
    a ValueError). ``overridden`` supplies the range-containment preorder on
    sampled carriers, where it cannot be derived from orthogonality.
    """

    name: str
    zero: Any
    eq: Callable[[Any, Any], bool]
    le: Callable[[Any, Any], bool]
    join: Callable[[Any, Any], Optional[Any]]
    elements: Optional[tuple] = None
    sample: Optional[Callable] = None
    perp: Optional[Callable] = None
    meet: Optional[Callable] = None
    skew: Optional[Callable] = None
    subtract: Optional[Callable] = None
    osum: Optional[Callable] = None
    overridden: Optional[Callable] = None
    complement_in: Optional[Callable] = None
    segment: Optional[Callable] = None
    key: Optional[Callable] = None
    describe: Callable[[Any], str] = repr
    tolerance: Optional[float] = None

    @property
    def finite(self) -> bool:
        return self.elements is not None


@dataclass
class AxiomReport:
    """Outcome of checking one law on one carrier."""

    axiom: str
    verdict: str  # "pass" | "fail" | "informational" | "skipped"
    witnesses: tuple = ()
    witness_desc: tuple = ()
    stats: dict = field(default_factory=dict)
    tolerance: Optional[float] = None
    derived: bool = False
    note: str = ""
    replay: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witnesses": [list(w) for w in self.witness_desc],
            "stats": self.stats,
            "tolerance": self.tolerance,
            "derived": self.derived,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# indexed finite carriers

_PREDICATE_HOOKS = ("eq", "le", "perp", "overridden")
_OPERATION_HOOKS = ("join", "meet", "skew", "subtract", "osum", "complement_in")

# Index-grid elements per slab: kernels and table reductions take the first
# coordinate a slab at a time, a bound on memory (half a megabyte per int64
# temporary), not a tuning knob.
_SLAB = 1 << 16


class _Table:
    """hook(carrier[i], carrier[k]) over indices, each result passed through
    `cell`. `lookup(i, k)` fills row i on first use; `array()` fills the rest
    and gives the table as an (n+1)×(n+1) numpy array whose row and column n
    stand for "undefined": False, or the index n for a None result, so that
    J[J[x, y], z] needs no mask."""

    def __init__(self, hook, carrier, cell=None):
        rows = self.rows = [None] * len(carrier)
        self.operation = cell is not None
        self._array = None

        def lookup(i, k):
            row = rows[i]
            if row is None:
                x = carrier[i]
                row = [hook(x, y) for y in carrier]
                row = rows[i] = row if cell is None else [cell(r) for r in row]
            return row[k]

        self.lookup = lookup

    def array(self) -> np.ndarray:
        if self._array is None:
            n = len(self.rows)
            for i in range(n):
                self.lookup(i, 0)
            if self.operation:
                a = np.full((n + 1, n + 1), n, dtype=np.intp)
                a[:n, :n] = [[n if r is None else r for r in row] for row in self.rows]
            else:
                a = np.zeros((n + 1, n + 1), dtype=bool)
                a[:n, :n] = self.rows
            self._array = a
        return self._array


class _Tables:
    """The tables of one indexed carrier of n elements: ``T.join`` is the join
    hook's table as a padded array (see `_Table`); ``T.derived(name, build,
    pair)`` is a table computed from them by build(), once. `pair` is the
    same table's per-pair hook on a sampled carrier (see `_Lookups`)."""

    def __init__(self, n, hooks):
        self.n, self.hooks, self._derived = n, hooks, {}

    def __getattr__(self, name):
        # first access only: the array is then an attribute of its own
        hooks = self.__dict__["hooks"]
        if name not in hooks:
            raise AttributeError(name)
        array = self.__dict__[name] = hooks[name].array()
        return array

    def derived(self, name, build, pair=None):
        if name not in self._derived:
            self._derived[name] = build()
        return self._derived[name]


@dataclass
class _IndexedHandle(StructureHandle):
    """A finite carrier recoded over the indices of ``carrier``, the source
    structure's elements; ``find(x)`` gives the index of one or None, and
    ``encode(x, what)`` the index or a ValueError. ``tables`` holds the hook
    tables that the hooks read and the law kernels evaluate."""

    carrier: tuple = ()
    find: Optional[Callable] = None
    encode: Optional[Callable] = None
    tables: Optional[_Tables] = None


def _encoder(structure):
    """find(x): the first index of x among the carrier's elements, found by
    `key` when the structure has one, else by an `eq` search, or None;
    encode(x, what): the same, with a ValueError naming `what` for None."""
    elements, key, eq = structure.elements, structure.key, structure.eq
    if key is not None:
        index = {}
        for i, e in enumerate(elements):
            index.setdefault(key(e), i)

        def find(x):
            return index.get(key(x))
    else:
        def find(x):
            return next((i for i, e in enumerate(elements) if eq(x, e)), None)

    def encode(x, what):
        i = find(x)
        if i is None:
            raise ValueError(f"{structure.name}: {what} {structure.describe(x)} is outside the finite carrier")
        return i

    return find, encode


def _indexed(structure: StructureHandle) -> StructureHandle:
    """The structure with a finite carrier recoded over indices 0..n-1 and
    every hook read through its `_Table`; sampled and already indexed
    structures are returned as they are. Each call indexes afresh; the tables
    live as long as the handle, so `verify` indexes a finite carrier once and
    all its suites share the tables."""
    if not structure.finite or isinstance(structure, _IndexedHandle):
        return structure
    elements = tuple(structure.elements)
    find, encode = _encoder(structure)
    tables, hooks = {}, {}
    for name in _PREDICATE_HOOKS + _OPERATION_HOOKS:
        hook = getattr(structure, name)
        if hook is None:
            hooks[name] = None
            continue
        if name in _PREDICATE_HOOKS:
            tables[name] = _Table(hook, elements)
        else:
            what = f"the {name} hook's result"
            tables[name] = _Table(
                hook, elements, lambda r, _what=what: None if r is None else encode(r, _what)
            )
        hooks[name] = tables[name].lookup
    segment = structure.segment
    if segment is not None:
        hooks["segment"] = lambda p: [encode(x, "a segment member") for x in segment(elements[p])]
    describe = structure.describe
    return _IndexedHandle(
        name=structure.name,
        zero=encode(structure.zero, "the zero"),
        elements=tuple(range(len(elements))),
        # key(i): the first index whose element equals element i
        key=[encode(e, "the element") for e in elements].__getitem__,
        describe=lambda i: describe(elements[i]),
        tolerance=structure.tolerance,
        carrier=elements,
        find=find,
        encode=encode,
        tables=_Tables(len(elements), tables),
        **hooks,
    )


def _tables(structure):
    """The tables a law kernel reads: the arrays of an indexed finite carrier,
    or the `_Lookups` of a sampled one."""
    return structure.tables if structure.finite else _Lookups(structure)


# ---------------------------------------------------------------------------
# sampled carriers: a kernel read through hook lookups


class _Expr:
    """A law kernel's value on one sampled tuple: ``value(tup, memo)``.

    A kernel that reads `_Lookups` builds these in place of arrays. They are
    walked left to right: ``&`` and ``|`` short-circuit, ``r == T.n`` asks
    whether r is undefined, and ``==`` between two truth values is their
    equivalence. A lookup runs at most once per tuple (`memo`) and calls no
    hook when an operand is undefined: it is undefined then, which reads as
    false, as the padding of a finite carrier's tables does."""

    def __init__(self, value):
        self.value = value

    def __invert__(self):
        return _Expr(lambda t, m: not self.value(t, m))

    def __and__(self, other):
        return _Expr(lambda t, m: self.value(t, m) and other.value(t, m))

    def __or__(self, other):
        return _Expr(lambda t, m: self.value(t, m) or other.value(t, m))

    def __eq__(self, other):
        if other is None:
            return _Expr(lambda t, m: self.value(t, m) is None)
        return _Expr(lambda t, m: bool(self.value(t, m)) == bool(other.value(t, m)))

    def __ne__(self, other):
        return ~(self == other)


class _Lookup:
    """One hook as a table: ``L[a, b]`` is the lookup of hook(a, b), where a
    and b are expressions or constants such as the zero."""

    def __init__(self, hook):
        self.hook = hook

    def __getitem__(self, operands):
        hook = self.hook
        a, b = (o if isinstance(o, _Expr) else _Expr(lambda t, m, c=o: c) for o in operands)

        def value(t, m):
            if value not in m:
                x = a.value(t, m)
                m[value] = None if x is None or (y := b.value(t, m)) is None else hook(x, y)
            return m[value]

        return _Expr(value)


class _Lookups:
    """The hook tables of a sampled carrier. ``T.join[x, y]`` is a lookup of
    the join hook and ``T.n`` (None) stands for "undefined";
    ``T.derived(name, build, pair)`` is the derived table read through its
    per-pair hook `pair`, the one place where the two kinds of carrier
    differ by design."""

    n = None

    def __init__(self, structure):
        self.structure = structure

    def __getattr__(self, name):
        return _Lookup(getattr(self.structure, name))

    def derived(self, name, build, pair):
        return _Lookup(pair)


def _pair_table(n, fill, pad):
    """An (n+1)×(n+1) table padded with `pad`, whose rows xs of the n×n block
    are fill(xs), filled a slab of rows at a time."""
    out = np.full((n + 1, n + 1), pad)
    step = max(1, _SLAB // (n * n))
    for lo in range(0, n, step):
        xs = np.arange(lo, min(n, lo + step))
        out[xs, :n] = fill(xs)
    return out


def _greatest_index(cand, le):
    """For each candidate set cand[..., u], the first candidate that every
    candidate is below under the n×n order table le, or n."""
    below = cand.astype(np.float64) @ le.astype(np.float64)  # [..., c]: candidates u <= c
    ok = cand & (below == cand.sum(axis=-1, keepdims=True))
    return np.where(ok.any(axis=-1), ok.argmax(axis=-1), cand.shape[-1])


def _kernel_slabs(T, arity, kernel):
    """The kernel on every tuple of indices 0..n-1 of the tables T, as
    boolean masks over slabs of the first coordinate: yields (first index of
    the slab, mask of shape (slab, n, ..., n)), so the masks read in
    lexicographic order."""
    n = T.n
    first, *rest = T.derived(("grids", arity), lambda: np.ix_(*[np.arange(n)] * arity))
    step = max(1, _SLAB // n ** (arity - 1))
    for lo in range(0, n, step):
        ok = kernel(first[lo : lo + step], *rest)
        shape = (min(step, n - lo),) + (n,) * (arity - 1)
        yield lo, ok if ok.shape == shape else np.broadcast_to(ok, shape)


def _stream_rng(config: CheckConfig, axiom: str) -> np.random.Generator:
    # one independent, reproducible stream per (seed, axiom) pair
    return np.random.default_rng([int(config.seed), zlib.crc32(axiom.encode("utf-8"))])


def _finish(structure, config, axiom, mode, count, failures, witnesses, replay, *, derived=False, informational=False, note=""):
    """The report of one law; `witnesses` and `replay` are on the structure's
    own elements, indices on an indexed carrier, and the report's on the
    carrier's."""
    desc = tuple(tuple(structure.describe(e) for e in w) for w in witnesses)
    order = sorted(range(len(witnesses)), key=lambda i: desc[i])
    if isinstance(structure, _IndexedHandle):
        witnesses = [tuple(structure.carrier[i] for i in w) for w in witnesses]
        encode, on_indices = structure.encode, replay

        def replay(tup):
            return on_indices(tuple(encode(x, "the witness element") for x in tup))
    witnesses = tuple(witnesses[i] for i in order)
    desc = tuple(desc[i] for i in order)
    if informational:
        verdict = "informational"
    else:
        verdict = "pass" if failures == 0 else "fail"
    return AxiomReport(
        axiom=axiom,
        verdict=verdict,
        witnesses=witnesses,
        witness_desc=desc,
        stats={"mode": mode, "tuples": count, "failures": failures},
        tolerance=structure.tolerance,
        derived=derived,
        note=note,
        replay=replay,
    )


def _merged(structure, axiom, parts, replay):
    """One report for a law checked in parts, such as ⊑1 as reflexivity and
    transitivity; `replay` re-checks a witness of any part, on carrier
    elements."""
    verdicts = [p.verdict for p in parts]
    return AxiomReport(
        axiom=axiom,
        verdict=(
            "informational"
            if "informational" in verdicts
            else ("pass" if all(p.passed for p in parts) else "fail")
        ),
        witnesses=sum((p.witnesses for p in parts), ()),
        witness_desc=sum((p.witness_desc for p in parts), ()),
        stats={
            "mode": parts[0].stats["mode"],
            "tuples": sum(p.stats["tuples"] for p in parts),
            "failures": sum(p.stats["failures"] for p in parts),
        },
        tolerance=structure.tolerance,
        note=parts[0].note,
        replay=replay,
    )


def _exhaustive(T, arity, kernel, limit):
    """(tuples, failures, the first `limit` failing index tuples in
    lexicographic order) of the kernel on every tuple of indices of the
    tables T."""
    failures, witnesses = 0, []
    for lo, ok in _kernel_slabs(T, arity, kernel):
        bad = ok.size - int(np.count_nonzero(ok))
        failures += bad
        if bad and len(witnesses) < limit:
            idx = np.unravel_index(np.flatnonzero(~ok)[: limit - len(witnesses)], ok.shape)
            witnesses += [(lo + int(i), *map(int, rest)) for i, *rest in zip(*idx)]
    return T.n**arity, failures, witnesses


def _on_one(kernel, tup):
    """The kernel on one tuple of indices."""
    return bool(kernel(*(np.array([i]) for i in tup)).all())


def _run_axiom(structure, config, axiom, arity, kernel, *, derived=False, informational=False, note=""):
    """One law, given as its kernel, over every tuple of a finite carrier or
    over sampled tuples. `kernel(x, ...)` reads the tables of `_tables`: on a
    finite carrier it decides the law at once on numpy index grids, the index
    n standing for "undefined"; on a sampled one it builds the law's `_Expr`,
    walked on each tuple. Replay is the kernel on one tuple."""
    if structure.finite:
        mode = "exhaustive"
        count, failures, witnesses = _exhaustive(structure.tables, arity, kernel, config.max_witnesses)

        def replay(tup):
            return _on_one(kernel, tup)
    elif structure.sample is None:
        raise InfiniteCarrier(f"structure {structure.name} has neither carrier nor sampler")
    else:
        mode, count, failures, witnesses = "sampled", 0, 0, []
        law = kernel(*(_Expr(lambda t, m, i=i: t[i]) for i in range(arity)))

        def replay(tup):
            return bool(law.value(tup, {}))

        for tup in map(tuple, structure.sample(_stream_rng(config, axiom), arity, config.samples)):
            count += 1
            if not replay(tup):
                failures += 1
                if len(witnesses) < config.max_witnesses:
                    witnesses.append(tup)
    return _finish(
        structure, config, axiom, mode, count, failures, witnesses, replay,
        derived=derived, informational=informational, note=note,
    )


def _skipped(axiom: str, reason: str) -> AxiomReport:
    return AxiomReport(axiom=axiom, verdict="skipped", stats={"mode": "skipped", "tuples": 0, "failures": 0}, note=reason)


def _unregistered(structure, axiom, note):
    """The informational report of an existential clause on a sampled
    carrier that has no registered witness constructor."""
    return AxiomReport(
        axiom=axiom,
        verdict="informational",
        stats={"mode": "sampled", "tuples": 0, "failures": 0},
        tolerance=structure.tolerance,
        note=note,
    )


def _brute_meet(le):
    """The meet over the n×n order table le as a padded pair table: the
    first greatest element below both, or n."""
    n, lt = len(le), le.T  # lt[x, u]: u <= x
    return _pair_table(n, lambda xs: _greatest_index(lt[xs, None, :] & lt[None, :, :], le), n)


def _meet_table(structure):
    """The meet hook's table, or the brute meet's on a finite carrier."""
    T = _tables(structure)
    if structure.meet is not None:
        return T.meet
    return T.derived("brute meet", lambda: _brute_meet(T.le[: T.n, : T.n]))


# ---------------------------------------------------------------------------
# nearsemilattice and nearlattice laws


def check_nearsemilattice(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The partial-join axioms: idempotence, commutativity, associativity with
    definedness transfer, and zero as a unit."""
    structure = _indexed(structure)
    zero, T = structure.zero, _tables(structure)

    def k1(x):
        return T.eq[T.join[x, x], x]

    def k2(x, y):
        r = T.join[x, y]
        return (r == T.n) | T.eq[r, T.join[y, x]]

    def k3(x, y, z):
        J = T.join
        xy_z = J[J[x, y], z]
        return (xy_z == T.n) | T.eq[xy_z, J[x, J[y, z]]]

    def k4(x):
        return T.eq[T.join[x, zero], x]

    return [
        _run_axiom(structure, config, "∨1", 1, k1),
        _run_axiom(structure, config, "∨2", 2, k2),
        _run_axiom(structure, config, "∨3", 3, k3),
        _run_axiom(structure, config, "∨4", 1, k4),
    ]


def _check_v5(structure, config, *, axiom="∨5", use_perp=False):
    """Shared engine for the decomposition laws: distributivity (∨5) and, with
    use_perp, the Riesz property (⊕6). Exhaustive only; on sampled carriers
    the existence clause is undecidable without a registered constructor."""
    if not structure.finite:
        return _unregistered(
            structure, axiom, "existence clause not decidable by sampling; no decomposition constructor registered"
        )
    if use_perp and structure.perp is None:
        raise OrthogonalityUnavailable("Riesz check needs an orthogonality hook")
    T = structure.tables
    # ∨5 runs in two suites: one sweep serves both
    count, fail = T.derived(("decomposition", use_perp), lambda: _decomposition(structure, use_perp))
    _, failures, witnesses = T.derived(
        ("decomposition", use_perp, config.max_witnesses),
        lambda: _exhaustive(T, 3, lambda y, z, x: ~fail(y.ravel()), config.max_witnesses),
    )
    return _finish(
        structure, config, axiom, "exhaustive", count, failures, [(x, y, z) for y, z, x in witnesses],
        replay=lambda tup: not fail(np.array([tup[1]]))[0, tup[2], tup[0]],
    )


def _decomposition(structure, use_perp):
    """(tuples, fail) of ∨5, or ⊕6 with use_perp, on an indexed carrier. The
    tuples are (x, y, z) with y join z defined (and y perp z for ⊕6) and x
    below it; fail(ys)[y, z, x] is True where such a tuple with y in ys
    fails: no a <= y, b <= z (a perp b for ⊕6) join to an element equal to
    x, decided on keys."""
    T = structure.tables
    n, J, L = T.n, T.join, T.le[: T.n, : T.n]
    key = np.array([structure.key(i) for i in structure.elements], dtype=np.intp)
    joined = J[:n, :n] != n
    if use_perp:
        joined &= T.perp[:n, :n]
    a, b = np.nonzero(joined)
    reached, lf = key[J[a, b]], L.astype(np.float64)

    def fail(ys):
        s = len(ys)
        # near[y, b, k]: some a <= y has (a, b) joined to key k; then ach[y, k, z]: some b <= z too
        cell = (np.arange(s)[:, None] * n + b) * n + reached
        near = np.bincount(cell.ravel(), weights=L[a][:, ys].T.ravel(), minlength=s * n * n)
        ach = near.reshape(s, n, n).transpose(0, 2, 1) @ lf > 0
        counted = joined[ys][:, :, None] & T.le.T[J[ys, :n]][:, :, :n]  # [y, z, x]
        return counted & ~ach[:, key, :].transpose(0, 2, 1)

    # each joined (y, z) counts the x below y join z
    return int(L.sum(axis=0)[J[:n, :n][joined]].sum()), fail


def check_absorption_and_distributivity(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """Absorption laws tying meet to the partial join, plus distributivity."""
    structure = _indexed(structure)
    if structure.meet is None and not structure.finite:
        raise MeetUnavailable("no meet hook and the carrier is not finite")
    T = _tables(structure)

    def k1(x, y):
        r = T.join[x, y]
        return (r == T.n) | T.eq[_meet_table(structure)[x, r], x]

    def k2(x, y):
        return T.eq[T.join[_meet_table(structure)[x, y], y], y]

    return [
        _run_axiom(structure, config, "∧1", 2, k1),
        _run_axiom(structure, config, "∧2", 2, k2),
        _check_v5(structure, config),
    ]


# ---------------------------------------------------------------------------
# orthogonality


def _require_perp(structure):
    if structure.perp is None:
        raise OrthogonalityUnavailable(f"structure {structure.name} has no orthogonality hook")
    return structure.perp


def check_orthogonality(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """Symmetry, downward closure, zero-orthogonality, and additivity."""
    structure = _indexed(structure)
    _require_perp(structure)
    zero, T = structure.zero, _tables(structure)

    def k1(x, y):
        return ~T.perp[x, y] | T.perp[y, x]

    def k2(x, y, z):
        return ~(T.le[x, y] & T.perp[y, z]) | T.perp[x, z]

    def k3(x):
        return T.perp[x, zero]

    def k4(x, y, z):
        P, r = T.perp, T.join[y, z]
        return ~(P[x, y] & P[x, z]) | (r == T.n) | P[x, r]

    return [
        _run_axiom(structure, config, "⊥1", 2, k1),
        _run_axiom(structure, config, "⊥2", 3, k2),
        _run_axiom(structure, config, "⊥3", 1, k3),
        _run_axiom(structure, config, "⊥4", 3, k4),
    ]


def _has_complement(structure):
    """[x, y] is True when some z has x perp z and x join z equal to y: every
    z of a finite carrier is tried, and on a sampled one the z of the
    registered constructor."""
    T = _tables(structure)
    perp, j, eq = structure.perp, structure.join, structure.eq

    def build():
        n, E = T.n, T.eq
        return _pair_table(n, lambda xs: (T.perp[xs, :n, None] & E[T.join[xs, :n]][:, :, :n]).any(axis=1), False)

    def constructed(x, y):
        z = structure.complement_in(x, y)
        return z is not None and perp(x, z) and (r := j(x, z)) is not None and eq(r, y)

    return T.derived("complement", build, constructed)


def check_quasi_orthomodular(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The quasi-orthomodularity laws and their derived consequences.

    A failing derived law while the defining laws pass points at a harness
    or tolerance problem, and is flagged as such in the report note."""
    structure = _indexed(structure)
    _require_perp(structure)
    zero, T = structure.zero, _tables(structure)
    missing_constructor = not structure.finite and structure.complement_in is None

    def k5(x, y):
        return ~T.perp[x, y] | (T.join[x, y] != T.n)

    def k6(x, y):
        return ~T.le[x, y] | _has_complement(structure)[x, y]

    def k7(x, y, z):
        # vacuous when x join z is undefined: the premise y <= x v z cannot hold
        P, L = T.perp, T.le
        return ~(P[x, y] & P[x, z]) | ~L[y, T.join[x, z]] | L[y, z]

    def k8(x, y, z):
        P, J = T.perp, T.join
        return ~(P[x, y] & P[x, z]) | ~T.eq[J[x, y], J[x, z]] | T.eq[y, z]

    def k9(x):
        return ~T.perp[x, x] | T.eq[x, zero]

    def k10(x, y, z):
        P, J = T.perp, T.join
        return ~(P[x, y] & P[y, z] & P[x, z]) | (J[J[x, y], z] != T.n)

    reports = [
        _run_axiom(structure, config, "⊥5", 2, k5),
        (
            _unregistered(structure, "⊥6", "no sectional-complement constructor registered")
            if missing_constructor
            else _run_axiom(structure, config, "⊥6", 2, k6)
        ),
        _run_axiom(structure, config, "⊥7", 3, k7),
        _run_axiom(structure, config, "⊥8", 3, k8, derived=True),
        _run_axiom(structure, config, "⊥9", 1, k9, derived=True),
        _run_axiom(structure, config, "⊥10", 3, k10, derived=True),
    ]
    defining_pass = all(r.passed for r in reports[:3])
    for r in reports[3:]:
        if r.verdict == "fail" and defining_pass:
            r.note = "derived law failed although ⊥5-⊥7 passed: suspect hooks or tolerances"
    return reports


# ---------------------------------------------------------------------------
# generalized orthoalgebra


def _oplus_table(structure):
    """The orthosum: x join y where x perp y, undefined elsewhere."""
    T = _tables(structure)
    perp, j = structure.perp, structure.join
    return T.derived("oplus", lambda: np.where(T.perp, T.join, T.n), lambda x, y: j(x, y) if perp(x, y) else None)


def check_gen_orthoalgebra(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The orthosum laws, with the sum derived from join and orthogonality,
    its natural-order law, and consistency with the native orthosum hook."""
    structure = _indexed(structure)
    _require_perp(structure)
    zero, T = structure.zero, _tables(structure)

    def k1(x, y):
        O = _oplus_table(structure)
        r = O[x, y]
        return (r == T.n) | T.eq[r, O[y, x]]

    def k2(x, y, z):
        O = _oplus_table(structure)
        xy_z = O[O[x, y], z]
        return (xy_z == T.n) | T.eq[xy_z, O[x, O[y, z]]]

    def k3(x):
        return T.eq[_oplus_table(structure)[x, zero], x]

    def k4(x, y, z):
        O = _oplus_table(structure)
        return ~T.eq[O[x, y], O[x, z]] | T.eq[y, z]

    def k5(x):
        return (_oplus_table(structure)[x, x] == T.n) | T.eq[x, zero]

    def k_forward(x, y):
        # x below y must be certified by a sum decomposition
        return ~T.le[x, y] | _has_complement(structure)[x, y]

    def k_backward(x, z):
        r = _oplus_table(structure)[x, z]
        return (r == T.n) | T.le[x, r]

    def k_vee(x, y):
        r = T.join[x, y]
        if structure.osum is not None:
            P, native = T.perp[x, y], T.osum[x, y]
            return (P & T.eq[native, r]) | (~P & (native == T.n))
        return ~T.perp[x, y] | (r != T.n)

    reports = [
        _run_axiom(structure, config, "⊕1", 2, k1),
        _run_axiom(structure, config, "⊕2", 3, k2),
        _run_axiom(structure, config, "⊕3", 1, k3),
        _run_axiom(structure, config, "⊕4", 3, k4),
        _run_axiom(structure, config, "⊕5", 1, k5),
    ]
    missing_constructor = not structure.finite and structure.complement_in is None
    fwd = (
        _unregistered(structure, "le/oplus", "no sectional-complement constructor registered")
        if missing_constructor
        else _run_axiom(structure, config, "le/oplus", 2, k_forward)
    )
    bwd = _run_axiom(structure, config, "le/oplus←", 2, k_backward)
    reports.append(
        _merged(structure, "le/oplus", [fwd, bwd], lambda tup: all(p.replay(tup) for p in (fwd, bwd) if p.replay))
    )
    reports.append(_run_axiom(structure, config, "oplus/vee", 2, k_vee))
    return reports


def check_riesz(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """Riesz decomposition, distributivity, and the theorem tying them together."""
    structure = _indexed(structure)
    if not structure.finite:
        raise InfiniteCarrier("the Riesz decomposition search requires a finite carrier")
    _require_perp(structure)
    riesz = _check_v5(structure, config, axiom="⊕6", use_perp=True)
    distrib = _check_v5(structure, config, axiom="∨5")
    consistent = riesz.verdict == distrib.verdict
    verdicts = f"⊕6={riesz.verdict}, ∨5={distrib.verdict}"
    consistency = AxiomReport(
        axiom="riesz≡distributive",
        verdict="pass" if consistent else "fail",
        stats={"mode": "exhaustive", "tuples": riesz.stats["tuples"] + distrib.stats["tuples"], "failures": 0 if consistent else 1},
        tolerance=structure.tolerance,
        note=("consistent" if consistent else "inconsistent") + f" ({verdicts})",
    )
    return [riesz, distrib, consistency]


# ---------------------------------------------------------------------------
# weak BCK subtraction


def check_weak_bck(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The three weak-BCK laws for the total subtraction, and the identity
    tying subtraction to the sectional complement of the meet."""
    structure = _indexed(structure)
    if structure.subtract is None:
        raise SubtractionUnavailable(f"structure {structure.name} has no subtraction hook")
    zero, T = structure.zero, _tables(structure)

    def k1(x, y, z):
        D = T.subtract
        return ~T.le[x, y] | T.le[D[z, y], D[z, x]]

    def k2(x, y):
        D = T.subtract
        return T.le[D[x, D[x, y]], y]

    def k3(x):
        return T.eq[T.subtract[x, zero], x]

    reports = [
        _run_axiom(structure, config, "−1", 3, k1),
        _run_axiom(structure, config, "−2", 2, k2),
        _run_axiom(structure, config, "−3", 1, k3),
    ]
    if structure.meet is None and not structure.finite:
        reports.append(_skipped("−/⊖", "meet unavailable, cannot relate subtraction to the sectional complement"))
        return reports
    if structure.perp is None:
        reports.append(_skipped("−/⊖", "orthogonality unavailable, cannot verify the complement property"))
        return reports

    def k_sect(x, y):
        v, d = _meet_table(structure)[x, y], T.subtract[x, y]
        return T.le[d, x] & T.perp[v, d] & T.eq[T.join[v, d], x]

    reports.append(_run_axiom(structure, config, "−/⊖", 2, k_sect))
    return reports


# ---------------------------------------------------------------------------
# overriding and skew meets


def _overriding_table(structure):
    """The overriding preorder: on a finite carrier derived from orthogonality
    by definition (x is overridden by y when every z perp y is also perp x),
    on a sampled one the registered `overridden` hook."""
    T = _tables(structure)

    def build():
        n, p = T.n, T.perp[: T.n, : T.n]
        out = np.zeros((n + 1, n + 1), dtype=bool)
        # [x, y]: no z has z perp y without z perp x
        out[:n, :n] = (~p).T.astype(np.int64) @ p.astype(np.int64) == 0
        return out

    return T.derived("overriding", build, structure.overridden)


def _brute_skew_table(structure):
    """max{u : u overridden by x, u <= y} over an indexed carrier, or n."""
    T = structure.tables

    def build():
        n, L = T.n, T.le[: T.n, : T.n]
        qt, lt = _overriding_table(structure)[:n, :n].T, L.T  # qt[x, u]: u overridden by x
        return _pair_table(n, lambda xs: _greatest_index(qt[xs, None, :] & lt[None, :, :], L), n)

    return T.derived("brute skew", build)


def check_overriding_and_skew(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The overriding-preorder laws and the skew-meet theorem.

    The projection law ⊑5 is decided exhaustively on finite carriers; on
    sampled carriers it is reported as informational (the unique candidate
    witness is the skew meet itself, so the search is a counterexample
    search, never a pass/fail gate). Without a skew hook, finite carriers
    brute-force the skew meet as max{u : u overridden by x, u <= y}."""
    structure = _indexed(structure)
    _require_perp(structure)
    if not structure.finite and structure.overridden is None:
        raise OrthogonalityUnavailable("sampled carriers need an `overridden` hook for the overriding checks")
    if not structure.finite and structure.skew is None:
        raise OrthogonalityUnavailable("no skew hook and the carrier is not finite")
    T = _tables(structure)

    # Q is the overriding table, S the skew (the hook's or the brute one)
    def Q():
        return _overriding_table(structure)

    def S():
        return T.skew if structure.skew is not None else _brute_skew_table(structure)

    def k1_refl(x):
        return Q()[x, x]

    def k1_trans(x, y, z):
        q = Q()
        return ~(q[x, y] & q[y, z]) | q[x, z]

    def k2(x, y):
        return ~T.le[x, y] | Q()[x, y]

    def k3(x, y):
        return ~Q()[x, y] | (T.join[x, y] == T.n) | T.le[x, y]

    def k4(x, y, z):
        q, r = Q(), T.join[x, y]
        return ~(q[x, z] & q[y, z]) | (r == T.n) | q[r, z]

    def k5(x, y):
        def build():
            n, q = T.n, Q()[: T.n, : T.n]
            out = np.zeros((n + 1, n + 1), dtype=bool)
            # [x, y]: some u with x, u overriding each other lies below y
            out[:n, :n] = (q & q.T).astype(np.float64) @ T.le[:n, :n].astype(np.float64) > 0
            return out

        def candidate(x, y):
            # the skew meet is the only candidate u on a sampled carrier
            sq, u = structure.overridden, structure.skew(x, y)
            return u is not None and sq(x, u) and sq(u, x) and structure.le(u, y)

        return ~Q()[x, y] | T.derived("⊑5 witness", build, candidate)[x, y]

    def k_idem(x):
        return T.eq[S()[x, x], x]

    def k_assoc(x, y, z):
        s = S()
        return T.eq[s[s[x, y], z], s[x, s[y, z]]]

    def k_rw1(x, y):
        r = S()[x, y]
        return T.le[r, y] & Q()[r, x]

    def k_rw2(x, y):
        r = S()[x, y]
        return (r != T.n) & (T.le[x, y] == T.eq[r, x]) & (Q()[y, x] == T.eq[r, y])

    def k_bounded(x, y):
        # on bounded pairs both skews agree and coincide with the meet
        s = S()
        a = s[x, y]
        holds = T.eq[a, s[y, x]]
        if structure.meet is not None:
            holds &= T.eq[a, T.meet[x, y]]
        return (T.join[x, y] == T.n) | holds

    def k_vs_brute(x, y):
        hooked, brute = T.skew[x, y], _brute_skew_table(structure)[x, y]
        return ((hooked == T.n) & (brute == T.n)) | T.eq[hooked, brute]

    refl = _run_axiom(structure, config, "⊑1refl", 1, k1_refl)
    trans = _run_axiom(structure, config, "⊑1trans", 3, k1_trans)
    reports = [
        _merged(structure, "⊑1", [refl, trans], lambda tup: (refl if len(tup) == 1 else trans).replay(tup)),
        _run_axiom(structure, config, "⊑2", 2, k2),
        _run_axiom(structure, config, "⊑3", 2, k3),
        _run_axiom(structure, config, "⊑4", 3, k4),
        _run_axiom(
            structure, config, "⊑5", 2, k5,
            informational=not structure.finite,
            note="" if structure.finite else "open for the operator model; counterexample search only",
        ),
        _run_axiom(structure, config, "skew-idempotent", 1, k_idem),
        _run_axiom(structure, config, "skew-associative", 3, k_assoc),
        _run_axiom(structure, config, "rwedge1", 2, k_rw1),
        _run_axiom(structure, config, "rwedge2", 2, k_rw2),
        _run_axiom(structure, config, "skew-bounded-commutative", 2, k_bounded),
    ]
    if structure.finite and structure.skew is not None:
        reports.append(_run_axiom(structure, config, "skew-hook-vs-brute", 2, k_vs_brute))
    return reports


# ---------------------------------------------------------------------------
# orthomodular initial segments


_OML_LAWS = (
    ("oml-complement-exists-unique", 1),
    ("oml-complement-involutive", 1),
    ("oml-complement-antitone", 2),
    ("oml-o-complement", 1),
    ("oml-orthomodular", 2),
)


def _segment(structure, p):
    """The segment [0, p] as tables T over its members, the first element of
    each `eq` class: the members as the structure's elements, find(x) (the
    member index of an element, or T.n), and the _OML_LAWS as kernels over T.

    The family comes from the segment hook, or else from the finite
    carrier's elements below p, and is indexed as a finite carrier of its
    own. T.lub and T.glb are brute-forced within the segment from its order
    alone, independently of the structure's own join/meet hooks, so the
    segment laws act as an oracle on them. T.unique is the only complement
    in the segment (i perp k with i lub k = p), or T.n; T.complement is the
    registered constructor's result where it lies in the segment, else
    T.unique."""
    if structure.segment is not None:
        family = tuple(structure.segment(p))
    elif structure.finite:
        family = tuple(x for x in structure.elements if structure.le(x, p))
    else:
        raise InfiniteCarrier("segments need a finite carrier or a segment hook")
    seg = _indexed(
        StructureHandle(
            name=structure.name, zero=structure.zero, eq=structure.eq, le=structure.le, join=None,
            elements=family, perp=structure.perp, key=structure.key, describe=structure.describe,
        )
    )
    members = [i for i in seg.elements if seg.key(i) == i]
    m = len(members)
    rank = dict(zip(members, range(m)))

    def find(x):
        return rank.get(seg.find(x), m)

    def restricted(lookup):
        out = np.zeros((m + 1, m + 1), dtype=bool)
        out[:m, :m] = [[lookup(i, k) for k in members] for i in members]
        return out

    T = _Tables(m, {})
    T.le, perp = restricted(seg.le), restricted(seg.perp)
    T.glb, T.lub = _brute_meet(T.le[:m, :m]), _brute_meet(T.le[:m, :m].T)
    top, zero = find(p), rank[seg.zero]
    complements = perp & (T.lub == top)  # [i, k]: k is a complement of i
    T.unique = np.where(complements.sum(axis=1) == 1, complements.argmax(axis=1), m)
    T.complement = T.unique.copy()
    if structure.complement_in is not None:
        for r, i in enumerate(members):
            z = structure.complement_in(seg.carrier[i], p)
            if z is not None and (k := find(z)) < m:
                T.complement[r] = k
    L, lub, glb, C, U = T.le, T.lub, T.glb, T.complement, T.unique
    kernels = (
        lambda x: U[x] != m,
        lambda x: C[C[x]] == x,
        lambda x, y: ~L[x, y] | L[C[y], C[x]],
        lambda x: (lub[x, C[x]] == top) & (glb[x, C[x]] == zero),
        lambda x, y: ~L[x, y] | (lub[x, glb[y, C[x]]] == y),
    )
    return T, [seg.carrier[i] for i in members], find, kernels


def check_initial_segments_oml(structure: StructureHandle, tops: Sequence, config: CheckConfig = DEFAULT_CONFIG):
    """Orthomodular-lattice laws of the initial segments [0, p].

    For each top the segment family is enumerated (via the segment hook on
    sampled carriers) and indexed, its joins and meets are brute-forced
    within it from the order alone, independently of any join/meet hooks,
    and each law is a kernel over the segment's tables, run on every tuple
    of members as any exhaustive law is. One report per law, aggregated over
    segments; witnesses carry the top first."""
    structure = _indexed(structure)
    _require_perp(structure)
    if isinstance(structure, _IndexedHandle):
        tops = [structure.encode(p, "the segment top") for p in tops]
    tops = list(tops)
    tallies = [[0, 0, []] for _ in _OML_LAWS]
    for p in tops:
        T, members, _, kernels = _segment(structure, p)
        for (_, arity), kernel, tally in zip(_OML_LAWS, kernels, tallies):
            count, failures, witnesses = _exhaustive(T, arity, kernel, config.max_witnesses - len(tally[2]))
            tally[0] += count
            tally[1] += failures
            tally[2] += [(p, *(members[i] for i in w)) for w in witnesses]

    def replay(tup, law):
        T, _, find, kernels = _segment(structure, tup[0])
        rest = [find(x) for x in tup[1:]]
        return T.n not in rest and _on_one(kernels[law], rest)

    reports = []
    for law, ((name, _), (checked, failed, wits)) in enumerate(zip(_OML_LAWS, tallies)):
        report = _finish(
            structure, config, name, "segments", checked, failed, wits,
            replay=lambda tup, _law=law: replay(tup, _law),
        )
        report.stats["segments"] = len(tops)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# suite plumbing


SUITE_NAMES = ("nearsemilattice", "ortho", "qom", "goa", "riesz", "bck", "skew", "oml")


def run_suite(structure: StructureHandle, suite: str, config: CheckConfig = DEFAULT_CONFIG, tops=None):
    """Run one named suite, downgrading structurally impossible checks to
    'skipped' entries instead of erroring out."""
    try:
        if suite == "nearsemilattice":
            reports = check_nearsemilattice(structure, config)
            try:
                reports += check_absorption_and_distributivity(structure, config)
            except MeetUnavailable as exc:
                reports.append(_skipped("∧1,∧2,∨5", str(exc)))
            return reports
        if suite == "ortho":
            return check_orthogonality(structure, config)
        if suite == "qom":
            return check_quasi_orthomodular(structure, config)
        if suite == "goa":
            return check_gen_orthoalgebra(structure, config)
        if suite == "riesz":
            return check_riesz(structure, config)
        if suite == "bck":
            return check_weak_bck(structure, config)
        if suite == "skew":
            return check_overriding_and_skew(structure, config)
        if suite == "oml":
            if tops is None:
                if not structure.finite:
                    raise InfiniteCarrier("segment tops must be supplied for sampled carriers")
                tops = structure.carrier if isinstance(structure, _IndexedHandle) else structure.elements
            return check_initial_segments_oml(structure, tops, config)
    except (InfiniteCarrier, OrthogonalityUnavailable, SubtractionUnavailable, MeetUnavailable) as exc:
        return [_skipped(suite, str(exc))]
    raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES + ('all',)}")


def reports_to_json(reports) -> list:
    """The wire format: a JSON array of axiom entries."""
    return [r.to_dict() for r in reports]


def format_report_table(reports) -> str:
    lines = []
    width = max((len(r.axiom) for r in reports), default=5)
    for r in reports:
        stats = r.stats
        counts = f"{stats.get('tuples', 0):>8} tuples, {stats.get('failures', 0)} failed"
        mark = {"pass": "ok", "fail": "FAIL", "informational": "info", "skipped": "skip"}[r.verdict]
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"{r.axiom:<{width}}  {mark:<4}  {counts}{note}")
        for w in r.witness_desc[:3]:
            lines.append(f"{'':<{width}}        witness: {', '.join(w)}")
    return "\n".join(lines)
