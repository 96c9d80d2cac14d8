"""Generic axiom-verification harness.

A carrier is described by a :class:`StructureHandle`: an equality, an
order, a partial join (returning None when undefined), a zero, and
optional orthogonality / meet / skew-meet / subtraction hooks. Finite
carriers are checked exhaustively, visiting every tuple exactly once;
otherwise tuples are drawn from the structure's sampler under a per-axiom
seeded stream, so repeated runs are bit-for-bit reproducible. Equality is
always the structure's own hook; the harness never compares raw numbers.

Each check indexes a finite carrier once on entry: its elements are
recoded as the indices 0..n-1, and every hook is read through a row-lazy
table whose row i is filled, on first use, by calling the real hook on
(element i, y) for every y, with element results recoded as indices. So a
hook runs at most n² times per check, however many tuples a law visits,
and the law predicates are the same code on both kinds of carrier: table
lookups on finite ones, the real hooks on sampled ones. Reports speak of
the carrier's own elements again. Each initial segment [0, p] is indexed
the same way, as a finite carrier of its own, so the segment laws are
table lookups on either kind of carrier.

Every check returns :class:`AxiomReport` records. A ``fail`` verdict
carries witnesses that re-falsify the law when replayed through the same
hooks (each report exposes a ``replay`` callable for exactly this).
Existential clauses are decided exhaustively on finite carriers; on
sampled carriers the witness must be produced constructively by the model
(e.g. a registered sectional-complement constructor), and clauses with no
registered constructor are reported as informational rather than guessed.
"""

from __future__ import annotations

import itertools
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
    ``sample(rng, arity)`` must return a tuple of related elements.
    ``complement_in(x, p)`` is the registered witness constructor for the
    existential complement clauses: given x below p it returns z with
    x perp z and x join z = p (or None when it cannot).
    ``segment(p)`` enumerates a finite family carrying the segment [0, p],
    zero included; members equal under ``eq`` count once, the first kept.
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


@dataclass
class _IndexedHandle(StructureHandle):
    """A finite carrier recoded over the indices of ``carrier``, the source
    structure's elements; ``find(x)`` gives the index of one or None, and
    ``encode(x, what)`` the index or a ValueError."""

    carrier: tuple = ()
    find: Optional[Callable] = None
    encode: Optional[Callable] = None


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


def _row_table(hook, elements, cell=None):
    """hook(elements[i], elements[k]) as lookup(i, k); row i is filled by
    the first lookup with left operand i, each result passed through cell."""
    rows = [None] * len(elements)

    def lookup(i, k):
        row = rows[i]
        if row is None:
            x = elements[i]
            row = [hook(x, y) for y in elements]
            row = rows[i] = row if cell is None else [cell(r) for r in row]
        return row[k]

    return lookup


def _indexed(structure: StructureHandle) -> StructureHandle:
    """The structure with a finite carrier recoded over indices 0..n-1 and
    every hook read through a row-lazy table; sampled and already indexed
    structures are returned as they are. Nothing is cached across calls."""
    if not structure.finite or isinstance(structure, _IndexedHandle):
        return structure
    elements = tuple(structure.elements)
    find, encode = _encoder(structure)
    hooks = {}
    for name in _PREDICATE_HOOKS + _OPERATION_HOOKS:
        hook = getattr(structure, name)
        if hook is None:
            hooks[name] = None
        elif name in _PREDICATE_HOOKS:
            hooks[name] = _row_table(hook, elements)
        else:
            what = f"the {name} hook's result"
            hooks[name] = _row_table(
                hook, elements, lambda r, _what=what: None if r is None else encode(r, _what)
            )
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
        **hooks,
    )


def _replayable(structure, replay):
    """Replay on carrier elements for a predicate written on the structure's
    own (possibly indexed) elements."""
    if not isinstance(structure, _IndexedHandle):
        return replay
    encode = structure.encode
    return lambda tup: replay(tuple(encode(x, "the witness element") for x in tup))


def _stream_rng(config: CheckConfig, axiom: str) -> np.random.Generator:
    # one independent, reproducible stream per (seed, axiom) pair
    return np.random.default_rng([int(config.seed), zlib.crc32(axiom.encode("utf-8"))])


def _finish(structure, config, axiom, mode, count, failures, witnesses, replay, *, derived=False, informational=False, note=""):
    desc = tuple(tuple(structure.describe(e) for e in w) for w in witnesses)
    order = sorted(range(len(witnesses)), key=lambda i: desc[i])
    if isinstance(structure, _IndexedHandle):
        witnesses = [tuple(structure.carrier[i] for i in w) for w in witnesses]
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
        replay=_replayable(structure, replay),
    )


def _merged(structure, axiom, parts, replay):
    """One report for a law checked in parts, such as ⊑1 as reflexivity and
    transitivity; `replay` re-checks a witness of any part."""
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
        replay=_replayable(structure, replay),
    )


def _run_axiom(structure, config, axiom, arity, predicate, *, derived=False, informational=False, note=""):
    if structure.finite:
        mode = "exhaustive"
        source = itertools.product(structure.elements, repeat=arity)
    else:
        if structure.sample is None:
            raise InfiniteCarrier(f"structure {structure.name} has neither carrier nor sampler")
        mode = "sampled"
        rng = _stream_rng(config, axiom)
        source = (tuple(structure.sample(rng, arity)) for _ in range(config.samples))
    count = 0
    failures = 0
    witnesses = []
    for tup in source:
        count += 1
        if not predicate(*tup):
            failures += 1
            if len(witnesses) < config.max_witnesses:
                witnesses.append(tup)
    return _finish(
        structure, config, axiom, mode, count, failures, witnesses,
        replay=lambda tup, _p=predicate: _p(*tup),
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


def _greatest(candidates, le):
    """The first candidate that every candidate is below, or None."""
    for c in candidates:
        if all(le(u, c) for u in candidates):
            return c
    return None


def _brute_meet_fn(structure):
    if structure.meet is not None:
        return structure.meet
    if not structure.finite:
        raise MeetUnavailable("no meet hook and the carrier is not finite")
    elements, le = structure.elements, structure.le
    return lambda x, y: _greatest([u for u in elements if le(u, x) and le(u, y)], le)


# ---------------------------------------------------------------------------
# nearsemilattice and nearlattice laws


def check_nearsemilattice(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The partial-join axioms: idempotence, commutativity, associativity with
    definedness transfer, and zero as a unit."""
    structure = _indexed(structure)
    j, eq, zero = structure.join, structure.eq, structure.zero

    def v1(x):
        r = j(x, x)
        return r is not None and eq(r, x)

    def v2(x, y):
        r = j(x, y)
        if r is None:
            return True
        s = j(y, x)
        return s is not None and eq(r, s)

    def v3(x, y, z):
        xy = j(x, y)
        if xy is None:
            return True
        xy_z = j(xy, z)
        if xy_z is None:
            return True
        yz = j(y, z)
        if yz is None:
            return False
        x_yz = j(x, yz)
        return x_yz is not None and eq(xy_z, x_yz)

    def v4(x):
        r = j(x, zero)
        return r is not None and eq(r, x)

    return [
        _run_axiom(structure, config, "∨1", 1, v1),
        _run_axiom(structure, config, "∨2", 2, v2),
        _run_axiom(structure, config, "∨3", 3, v3),
        _run_axiom(structure, config, "∨4", 1, v4),
    ]


def _check_v5(structure, config, *, axiom="∨5", use_perp=False):
    """Shared engine for the decomposition laws: distributivity (∨5) and, with
    use_perp, the Riesz property (⊕6). Exhaustive only; on sampled carriers
    the existence clause is undecidable without a registered constructor."""
    if not structure.finite:
        return _unregistered(
            structure, axiom, "existence clause not decidable by sampling; no decomposition constructor registered"
        )
    j, le, eq, perp, key = structure.join, structure.le, structure.eq, structure.perp, structure.key
    if use_perp and perp is None:
        raise OrthogonalityUnavailable("Riesz check needs an orthogonality hook")
    elements = structure.elements  # indices: the carrier is indexed
    down = [[u for u in elements if le(u, y)] for y in elements]
    count = failures = 0
    witnesses = []

    def decomposable(x, y, z):
        # replay only; the sweep below collects the achievable joins per (y, z)
        for a in down[y]:
            for b in down[z]:
                if use_perp and not perp(a, b):
                    continue
                r = j(a, b)
                if r is not None and eq(r, x):
                    return True
        return False

    def law_holds(x, y, z):
        if use_perp and not perp(y, z):
            return True
        top = j(y, z)
        if top is None or not le(x, top):
            return True
        return decomposable(x, y, z)

    for y in elements:
        for z in elements:
            if use_perp and not perp(y, z):
                continue
            top = j(y, z)
            if top is None:
                continue
            ach = set()
            for a in down[y]:
                for b in down[z]:
                    if use_perp and not perp(a, b):
                        continue
                    r = j(a, b)
                    if r is not None:
                        ach.add(key(r))
            for x in elements:
                if not le(x, top):
                    continue
                count += 1
                if key(x) not in ach:
                    failures += 1
                    if len(witnesses) < config.max_witnesses:
                        witnesses.append((x, y, z))
    return _finish(
        structure, config, axiom, "exhaustive", count, failures, witnesses,
        replay=lambda tup: law_holds(*tup),
    )


def check_absorption_and_distributivity(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """Absorption laws tying meet to the partial join, plus distributivity."""
    structure = _indexed(structure)
    meet_fn = _brute_meet_fn(structure)
    j, eq = structure.join, structure.eq

    def a1(x, y):
        r = j(x, y)
        if r is None:
            return True
        m = meet_fn(x, r)
        return m is not None and eq(m, x)

    def a2(x, y):
        m = meet_fn(x, y)
        if m is None:
            return False
        r = j(m, y)
        return r is not None and eq(r, y)

    return [
        _run_axiom(structure, config, "∧1", 2, a1),
        _run_axiom(structure, config, "∧2", 2, a2),
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
    perp = _require_perp(structure)
    j, le, zero = structure.join, structure.le, structure.zero

    def p1(x, y):
        return not perp(x, y) or perp(y, x)

    def p2(x, y, z):
        return not (le(x, y) and perp(y, z)) or perp(x, z)

    def p3(x):
        return perp(x, zero)

    def p4(x, y, z):
        if not (perp(x, y) and perp(x, z)):
            return True
        r = j(y, z)
        if r is None:
            return True
        return perp(x, r)

    return [
        _run_axiom(structure, config, "⊥1", 2, p1),
        _run_axiom(structure, config, "⊥2", 3, p2),
        _run_axiom(structure, config, "⊥3", 1, p3),
        _run_axiom(structure, config, "⊥4", 3, p4),
    ]


def _complement_search(structure, x, y):
    """Witness for the sectional complement: z with x perp z and x join z = y.

    Finite carriers are searched; sampled carriers use the registered
    constructor. Returns (available, witness_or_None)."""
    perp, j, eq = structure.perp, structure.join, structure.eq
    if structure.finite:
        for z in structure.elements:
            if perp(x, z):
                r = j(x, z)
                if r is not None and eq(r, y):
                    return True, z
        return True, None
    if structure.complement_in is None:
        return False, None
    z = structure.complement_in(x, y)
    if z is None:
        return True, None
    if perp(x, z):
        r = j(x, z)
        if r is not None and eq(r, y):
            return True, z
    return True, None


def check_quasi_orthomodular(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The quasi-orthomodularity laws and their derived consequences.

    A failing derived law while the defining laws pass points at a harness
    or tolerance problem, and is flagged as such in the report note."""
    structure = _indexed(structure)
    perp = _require_perp(structure)
    j, le, eq, zero = structure.join, structure.le, structure.eq, structure.zero

    def p5(x, y):
        return not perp(x, y) or j(x, y) is not None

    missing_constructor = not structure.finite and structure.complement_in is None

    def p6(x, y):
        if not le(x, y):
            return True
        _, z = _complement_search(structure, x, y)
        return z is not None

    def p7(x, y, z):
        # vacuous when x join z is undefined: the premise y <= x v z cannot hold
        if not (perp(x, y) and perp(x, z)):
            return True
        xz = j(x, z)
        if xz is None:
            return True
        return not le(y, xz) or le(y, z)

    def p8(x, y, z):
        if not (perp(x, y) and perp(x, z)):
            return True
        xy, xz = j(x, y), j(x, z)
        if xy is None or xz is None:
            return True
        return not eq(xy, xz) or eq(y, z)

    def p9(x):
        return not perp(x, x) or eq(x, zero)

    def p10(x, y, z):
        if not (perp(x, y) and perp(y, z) and perp(x, z)):
            return True
        xy = j(x, y)
        return xy is not None and j(xy, z) is not None

    reports = [
        _run_axiom(structure, config, "⊥5", 2, p5),
        (
            _unregistered(structure, "⊥6", "no sectional-complement constructor registered")
            if missing_constructor
            else _run_axiom(structure, config, "⊥6", 2, p6)
        ),
        _run_axiom(structure, config, "⊥7", 3, p7),
        _run_axiom(structure, config, "⊥8", 3, p8, derived=True),
        _run_axiom(structure, config, "⊥9", 1, p9, derived=True),
        _run_axiom(structure, config, "⊥10", 3, p10, derived=True),
    ]
    defining_pass = all(r.passed for r in reports[:3])
    for r in reports[3:]:
        if r.verdict == "fail" and defining_pass:
            r.note = "derived law failed although ⊥5-⊥7 passed: suspect hooks or tolerances"
    return reports


# ---------------------------------------------------------------------------
# generalized orthoalgebra


def _oplus_fn(structure):
    perp, j = structure.perp, structure.join

    def oplus(x, y):
        if not perp(x, y):
            return None
        return j(x, y)

    return oplus


def check_gen_orthoalgebra(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The orthosum laws, with the sum derived from join and orthogonality,
    its natural-order law, and consistency with the native orthosum hook."""
    structure = _indexed(structure)
    _require_perp(structure)
    o = _oplus_fn(structure)
    j, le, eq, zero, perp = structure.join, structure.le, structure.eq, structure.zero, structure.perp

    def o1(x, y):
        r = o(x, y)
        if r is None:
            return True
        s = o(y, x)
        return s is not None and eq(r, s)

    def o2(x, y, z):
        xy = o(x, y)
        if xy is None:
            return True
        xy_z = o(xy, z)
        if xy_z is None:
            return True
        yz = o(y, z)
        if yz is None:
            return False
        x_yz = o(x, yz)
        return x_yz is not None and eq(xy_z, x_yz)

    def o3(x):
        r = o(x, zero)
        return r is not None and eq(r, x)

    def o4(x, y, z):
        xy, xz = o(x, y), o(x, z)
        if xy is None or xz is None:
            return True
        return not eq(xy, xz) or eq(y, z)

    def o5(x):
        return o(x, x) is None or eq(x, zero)

    def le_oplus_forward(x, y):
        # x below y must be certified by a sum decomposition
        if not le(x, y):
            return True
        _, z = _complement_search(structure, x, y)
        return z is not None

    def le_oplus_backward(x, z):
        r = o(x, z)
        return r is None or le(x, r)

    def oplus_vee(x, y):
        if structure.osum is not None:
            native = structure.osum(x, y)
            if perp(x, y):
                r = j(x, y)
                return native is not None and r is not None and eq(native, r)
            return native is None
        return not perp(x, y) or j(x, y) is not None

    reports = [
        _run_axiom(structure, config, "⊕1", 2, o1),
        _run_axiom(structure, config, "⊕2", 3, o2),
        _run_axiom(structure, config, "⊕3", 1, o3),
        _run_axiom(structure, config, "⊕4", 3, o4),
        _run_axiom(structure, config, "⊕5", 1, o5),
    ]
    missing_constructor = not structure.finite and structure.complement_in is None
    fwd = (
        _unregistered(structure, "le/oplus", "no sectional-complement constructor registered")
        if missing_constructor
        else _run_axiom(structure, config, "le/oplus", 2, le_oplus_forward)
    )
    bwd = _run_axiom(structure, config, "le/oplus←", 2, le_oplus_backward)
    reports.append(
        _merged(structure, "le/oplus", [fwd, bwd], lambda tup: le_oplus_forward(*tup) and le_oplus_backward(*tup))
    )
    reports.append(_run_axiom(structure, config, "oplus/vee", 2, oplus_vee))
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
    sub, le, eq, zero, j = structure.subtract, structure.le, structure.eq, structure.zero, structure.join

    def m1(x, y, z):
        return not le(x, y) or le(sub(z, y), sub(z, x))

    def m2(x, y):
        return le(sub(x, sub(x, y)), y)

    def m3(x):
        return eq(sub(x, zero), x)

    reports = [
        _run_axiom(structure, config, "−1", 3, m1),
        _run_axiom(structure, config, "−2", 2, m2),
        _run_axiom(structure, config, "−3", 1, m3),
    ]
    try:
        meet_fn = _brute_meet_fn(structure)
    except MeetUnavailable:
        reports.append(_skipped("−/⊖", "meet unavailable, cannot relate subtraction to the sectional complement"))
        return reports
    if structure.perp is None:
        reports.append(_skipped("−/⊖", "orthogonality unavailable, cannot verify the complement property"))
        return reports
    perp = structure.perp

    def m_sect(x, y):
        v = meet_fn(x, y)
        if v is None:
            return False
        s = sub(x, y)
        if not (le(s, x) and perp(v, s)):
            return False
        r = j(v, s)
        return r is not None and eq(r, x)

    reports.append(_run_axiom(structure, config, "−/⊖", 2, m_sect))
    return reports


# ---------------------------------------------------------------------------
# overriding and skew meets


def _overriding(structure):
    """The overriding preorder. On indexed finite carriers it is derived from
    orthogonality by definition (x is overridden by y when every z perp y is
    also perp x) as a table over indices; sampled carriers must register an
    `overridden` hook."""
    perp = _require_perp(structure)
    if structure.finite:
        elements = structure.elements
        p = np.array([[perp(x, y) for y in elements] for x in elements], dtype=bool)
        # sq[x][y]: no z has z perp y without z perp x
        rows = ((~p).T.astype(np.int64) @ p.astype(np.int64) == 0).tolist()
        return lambda x, y: rows[x][y]
    if structure.overridden is None:
        raise OrthogonalityUnavailable("sampled carriers need an `overridden` hook for the overriding checks")
    return structure.overridden


def check_overriding_and_skew(structure: StructureHandle, config: CheckConfig = DEFAULT_CONFIG):
    """The overriding-preorder laws and the skew-meet theorem.

    The projection law ⊑5 is decided exhaustively on finite carriers; on
    sampled carriers it is reported as informational (the unique candidate
    witness is the skew meet itself, so the search is a counterexample
    search, never a pass/fail gate). Without a skew hook, finite carriers
    brute-force the skew meet as max{u : u overridden by x, u <= y}."""
    structure = _indexed(structure)
    sq = _overriding(structure)
    j, le, eq, elements = structure.join, structure.le, structure.eq, structure.elements

    def brute_skew(x, y):
        return _greatest([u for u in elements if sq(u, x) and le(u, y)], le)

    if structure.skew is not None:
        s = structure.skew
    elif structure.finite:
        s = brute_skew
    else:
        raise OrthogonalityUnavailable("no skew hook and the carrier is not finite")

    def sq1_refl(x):
        return sq(x, x)

    def sq1_trans(x, y, z):
        return not (sq(x, y) and sq(y, z)) or sq(x, z)

    def sq2(x, y):
        return not le(x, y) or sq(x, y)

    def sq3(x, y):
        if not sq(x, y):
            return True
        return j(x, y) is None or le(x, y)

    def sq4(x, y, z):
        if not (sq(x, z) and sq(y, z)):
            return True
        r = j(x, y)
        return r is None or sq(r, z)

    def sq5(x, y):
        if not sq(x, y):
            return True
        if structure.finite:
            return any(sq(x, u) and sq(u, x) and le(u, y) for u in elements)
        cand = s(x, y)
        return cand is not None and sq(x, cand) and sq(cand, x) and le(cand, y)

    def skew_idem(x):
        r = s(x, x)
        return r is not None and eq(r, x)

    def skew_assoc(x, y, z):
        a = s(x, y)
        if a is None:
            return False
        a = s(a, z)
        b = s(y, z)
        if b is None:
            return False
        b = s(x, b)
        return a is not None and b is not None and eq(a, b)

    def rw1(x, y):
        r = s(x, y)
        return r is not None and le(r, y) and sq(r, x)

    def rw2(x, y):
        r = s(x, y)
        if r is None:
            return False
        return (le(x, y) == eq(r, x)) and (sq(y, x) == eq(r, y))

    def bounded_comm(x, y):
        # on bounded pairs both skews agree and coincide with the meet
        if j(x, y) is None:
            return True
        a, b = s(x, y), s(y, x)
        if a is None or b is None or not eq(a, b):
            return False
        if structure.meet is not None:
            return eq(a, structure.meet(x, y))
        return True

    refl = _run_axiom(structure, config, "⊑1refl", 1, sq1_refl)
    trans = _run_axiom(structure, config, "⊑1trans", 3, sq1_trans)
    reports = [
        _merged(structure, "⊑1", [refl, trans], lambda tup: sq1_refl(*tup) if len(tup) == 1 else sq1_trans(*tup)),
        _run_axiom(structure, config, "⊑2", 2, sq2),
        _run_axiom(structure, config, "⊑3", 2, sq3),
        _run_axiom(structure, config, "⊑4", 3, sq4),
        _run_axiom(
            structure, config, "⊑5", 2, sq5,
            informational=not structure.finite,
            note="" if structure.finite else "open for the operator model; counterexample search only",
        ),
        _run_axiom(structure, config, "skew-idempotent", 1, skew_idem),
        _run_axiom(structure, config, "skew-associative", 3, skew_assoc),
        _run_axiom(structure, config, "rwedge1", 2, rw1),
        _run_axiom(structure, config, "rwedge2", 2, rw2),
        _run_axiom(structure, config, "skew-bounded-commutative", 2, bounded_comm),
    ]
    if structure.finite and structure.skew is not None:
        def hook_vs_brute(x, y):
            hooked = structure.skew(x, y)
            brute = brute_skew(x, y)
            if hooked is None or brute is None:
                return hooked is None and brute is None
            return eq(hooked, brute)

        reports.append(_run_axiom(structure, config, "skew-hook-vs-brute", 2, hook_vs_brute))
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


def _segment_laws(structure, p):
    """The segment [0, p] as an indexed finite carrier, the indices of its
    members (the first of each `eq` class), and the _OML_LAWS as predicates
    on those indices.

    Joins and meets are brute-forced within the segment from the order
    alone, independently of the structure's own join/meet hooks, so the
    segment laws act as an oracle on them."""
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
    le, perp, zero, top = seg.le, seg.perp, seg.zero, seg.find(p)
    members = [i for i in seg.elements if seg.key(i) == i]

    def lub(i, j):
        return _greatest([k for k in members if le(i, k) and le(j, k)], lambda u, c: le(c, u))

    def glb(i, j):
        return _greatest([k for k in members if le(k, i) and le(k, j)], le)

    def complements_of(i):
        return [k for k in members if perp(i, k) and lub(i, k) == top]

    complements = {}

    def complement(i):
        # the declared constructor when it applies, else the unique search result
        if i not in complements:
            k = None
            if structure.complement_in is not None:
                z = structure.complement_in(seg.carrier[i], p)
                k = None if z is None else seg.find(z)
            if k is None:
                found = complements_of(i)
                k = found[0] if len(found) == 1 else None
            complements[i] = k
        return complements[i]

    def exists_unique(i):
        return len(complements_of(i)) == 1

    def involutive(i):
        c = complement(i)
        return c is not None and complement(c) == i

    def antitone(i, j):
        if not le(i, j):
            return True
        ci, cj = complement(i), complement(j)
        return ci is not None and cj is not None and le(cj, ci)

    def o_complement(i):
        c = complement(i)
        return c is not None and lub(i, c) == top and glb(i, c) == zero

    def orthomodular(i, j):
        if not le(i, j):
            return True
        ci = complement(i)
        m = None if ci is None else glb(j, ci)
        return m is not None and lub(i, m) == j

    return seg, members, (exists_unique, involutive, antitone, o_complement, orthomodular)


def check_initial_segments_oml(structure: StructureHandle, tops: Sequence, config: CheckConfig = DEFAULT_CONFIG):
    """Orthomodular-lattice laws of the initial segments [0, p].

    For each top the segment family is enumerated (via the segment hook on
    sampled carriers) and all joins/meets are brute-forced within it from
    the order alone, independently of any join/meet hooks. One report per
    law, aggregated over segments; witnesses carry the top first."""
    structure = _indexed(structure)
    _require_perp(structure)
    if isinstance(structure, _IndexedHandle):
        tops = [structure.encode(p, "the segment top") for p in tops]
    tops = list(tops)
    tallies = [[0, 0, []] for _ in _OML_LAWS]
    for p in tops:
        seg, members, laws = _segment_laws(structure, p)
        for (_, arity), holds, tally in zip(_OML_LAWS, laws, tallies):
            for tup in itertools.product(members, repeat=arity):
                tally[0] += 1
                if not holds(*tup):
                    tally[1] += 1
                    if len(tally[2]) < config.max_witnesses:
                        tally[2].append((p, *(seg.carrier[i] for i in tup)))

    def replay(tup, law):
        seg, _, laws = _segment_laws(structure, tup[0])
        rest = [seg.find(x) for x in tup[1:]]
        return None not in rest and laws[law](*rest)

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
                tops = structure.elements
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
