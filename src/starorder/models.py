"""Commutative models of the logical order.

Two concrete carriers: finite partial functions ordered by graph inclusion,
and real random variables on a finite sample space ordered by agreement on
the support. The probability measure plays no role in the order structure,
so the sample space is carried as a bare index range. Random variables
with integer (or Fraction) entries are compared exactly; float entries use
a 1e-12 zero threshold.

Order embeddings into the other models (diagonal operators, partial
functions) are provided as cross-model oracles; they commute with every
operation defined on both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


from .errors import Conflict, NotOrthogonal, NotUpperBound, ParseError
from .numerics import HermitianOperator

__all__ = [
    "PartialFunction",
    "RandomVariable",
    "pf_union",
    "pf_intersect",
    "pf_perp",
    "pf_skew_intersect",
    "pf_overridden",
    "pf_subtract",
    "rv_le",
    "rv_meet",
    "rv_join_bounded",
    "rv_join",
    "rv_perp",
    "rv_osum",
    "rv_bck",
    "rv_skew_meet",
    "rv_overridden",
    "rv_to_diagonal",
    "rv_to_partial_function",
    "enumerate_partial_functions",
    "enumerate_random_variables",
    "pf_structure",
    "rv_structure",
    "pf_to_json",
    "pf_from_json",
    "rv_to_json",
    "rv_from_json",
]

_FLOAT_ZERO_TOL = 1e-12


def _exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _is_zero(v) -> bool:
    return v == 0 if _exact(v) else abs(v) <= _FLOAT_ZERO_TOL


def _val_eq(a, b) -> bool:
    if _exact(a) and _exact(b):
        return a == b
    return abs(a - b) <= _FLOAT_ZERO_TOL


# ---------------------------------------------------------------------------
# partial functions


@dataclass(frozen=True)
class PartialFunction:
    """A finite partial map carried as its graph: a set of (index, value) pairs."""

    universe: frozenset
    graph: frozenset

    def __post_init__(self):
        object.__setattr__(self, "universe", frozenset(self.universe))
        object.__setattr__(self, "graph", frozenset(self.graph))
        indices = [i for i, _ in self.graph]
        if len(set(indices)) != len(indices):
            raise ValueError("graph is not functional: duplicate indices")
        if not set(indices) <= self.universe:
            raise ValueError("graph indices must lie in the universe")

    @classmethod
    def from_dict(cls, universe, mapping):
        return cls(frozenset(universe), frozenset(mapping.items()))

    @classmethod
    def empty(cls, universe):
        return cls(frozenset(universe), frozenset())

    def domain(self) -> frozenset:
        return frozenset(i for i, _ in self.graph)

    def as_dict(self) -> dict:
        return dict(self.graph)

    def __str__(self):
        if not self.graph:
            return "{}"
        items = sorted(self.graph, key=repr)
        return "{" + ", ".join(f"{i!r}->{v!r}" for i, v in items) + "}"


def _same_universe(phi: PartialFunction, psi: PartialFunction):
    if phi.universe != psi.universe:
        raise ValueError("partial functions live over different universes")


def pf_union(phi: PartialFunction, psi: PartialFunction) -> PartialFunction:
    """Union of graphs; defined only when the functions agree on the shared domain."""
    _same_universe(phi, psi)
    d = phi.as_dict()
    for i, v in psi.graph:
        if i in d and d[i] != v:
            raise Conflict(i)
    return PartialFunction(phi.universe, phi.graph | psi.graph)


def pf_intersect(phi: PartialFunction, psi: PartialFunction) -> PartialFunction:
    """Graph intersection: the pairs present in both functions."""
    _same_universe(phi, psi)
    return PartialFunction(phi.universe, phi.graph & psi.graph)


def pf_perp(phi: PartialFunction, psi: PartialFunction) -> bool:
    """Orthogonality: disjoint domains."""
    _same_universe(phi, psi)
    return phi.domain().isdisjoint(psi.domain())


def pf_skew_intersect(phi: PartialFunction, psi: PartialFunction) -> PartialFunction:
    """psi restricted to phi's domain: the right-handed skew meet.

    This is the largest function below psi whose domain lies inside
    phi's domain. No agreement between phi and psi is required.
    """
    _same_universe(phi, psi)
    dom = phi.domain()
    return PartialFunction(psi.universe, frozenset((i, v) for i, v in psi.graph if i in dom))


def pf_overridden(phi: PartialFunction, psi: PartialFunction) -> bool:
    """The overriding preorder: domain containment."""
    _same_universe(phi, psi)
    return phi.domain() <= psi.domain()


def pf_subtract(phi: PartialFunction, psi: PartialFunction) -> PartialFunction:
    """Graph difference; the BCK-subtraction of a functional nearlattice."""
    _same_universe(phi, psi)
    return PartialFunction(phi.universe, phi.graph - psi.graph)


def enumerate_partial_functions(universe=(0, 1, 2), values=("a", "b")):
    """All partial functions from the universe into the value set."""
    universe = tuple(universe)
    per_index = [[None] + [(i, v) for v in values] for i in universe]
    return [
        PartialFunction(frozenset(universe), frozenset(p for p in combo if p is not None))
        for combo in itertools.product(*per_index)
    ]


# ---------------------------------------------------------------------------
# random variables


@dataclass(frozen=True)
class RandomVariable:
    """A real function on a finite sample space, stored pointwise."""

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        if not vals:
            raise ValueError("sample space must be nonempty")
        for v in vals:
            try:
                finite = math.isfinite(float(v))
            except OverflowError as exc:  # an integer beyond float range
                raise ValueError("random variable entries must lie in float range") from exc
            if not finite:
                raise ValueError("random variable entries must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def omega_size(self) -> int:
        return len(self.values)

    @property
    def exact(self) -> bool:
        return all(_exact(v) for v in self.values)

    def support(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.values) if not _is_zero(v))

    @classmethod
    def zero(cls, omega_size: int):
        return cls((0,) * omega_size)

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def _same_omega(f: RandomVariable, g: RandomVariable):
    if f.omega_size != g.omega_size:
        raise ValueError("random variables live on different sample spaces")


def rv_le(f: RandomVariable, g: RandomVariable) -> bool:
    """f precedes g when they agree on f's support."""
    _same_omega(f, g)
    return all(_val_eq(f.values[i], g.values[i]) for i in f.support())


def rv_meet(f: RandomVariable, g: RandomVariable) -> RandomVariable:
    """g restricted to the set where f and g agree and neither vanishes."""
    _same_omega(f, g)
    return RandomVariable(
        tuple(
            g.values[i]
            if not _is_zero(f.values[i]) and not _is_zero(g.values[i]) and _val_eq(f.values[i], g.values[i])
            else 0
            for i in range(f.omega_size)
        )
    )


def rv_join(f: RandomVariable, g: RandomVariable):
    """Least upper bound when the pair is compatible, else None.

    Compatible means agreement on the common support; the join is then the
    pointwise union and does not depend on any particular upper bound.
    """
    _same_omega(f, g)
    common = f.support() & g.support()
    if not all(_val_eq(f.values[i], g.values[i]) for i in common):
        return None
    return RandomVariable(
        tuple(f.values[i] if not _is_zero(f.values[i]) else g.values[i] for i in range(f.omega_size))
    )


def rv_join_bounded(f: RandomVariable, g: RandomVariable, h: RandomVariable) -> RandomVariable:
    """h restricted to supp f union supp g; requires h to bound both."""
    _same_omega(f, g)
    if not rv_le(f, h):
        raise NotUpperBound(0)
    if not rv_le(g, h):
        raise NotUpperBound(1)
    keep = f.support() | g.support()
    return RandomVariable(tuple(h.values[i] if i in keep else 0 for i in range(h.omega_size)))


def rv_perp(f: RandomVariable, g: RandomVariable) -> bool:
    """Orthogonality: the pointwise product vanishes (disjoint supports)."""
    _same_omega(f, g)
    return f.support().isdisjoint(g.support())


def rv_osum(f: RandomVariable, g: RandomVariable) -> RandomVariable:
    """Pointwise sum, defined only for orthogonal pairs."""
    if not rv_perp(f, g):
        raise NotOrthogonal("rv_osum is undefined: supports overlap")
    return RandomVariable(tuple(a + b for a, b in zip(f.values, g.values)))


def rv_bck(g: RandomVariable, f: RandomVariable) -> RandomVariable:
    """g restricted to the set where f and g differ; equals g - (f meet g)."""
    _same_omega(f, g)
    return RandomVariable(
        tuple(g.values[i] if not _val_eq(f.values[i], g.values[i]) else 0 for i in range(g.omega_size))
    )


def rv_skew_meet(f: RandomVariable, g: RandomVariable) -> RandomVariable:
    """g restricted to supp f intersect supp g: the right-handed skew meet."""
    _same_omega(f, g)
    keep = f.support() & g.support()
    return RandomVariable(tuple(g.values[i] if i in keep else 0 for i in range(g.omega_size)))


def rv_overridden(f: RandomVariable, g: RandomVariable) -> bool:
    """Support containment, the overriding preorder."""
    _same_omega(f, g)
    return f.support() <= g.support()


def enumerate_random_variables(omega_size=3, values=(0, 1, 2)):
    return [RandomVariable(v) for v in itertools.product(values, repeat=omega_size)]


# ---------------------------------------------------------------------------
# cross-model embeddings


def rv_to_diagonal(f: RandomVariable) -> HermitianOperator:
    """Order embedding into the operator model: f -> diag(f)."""
    return HermitianOperator.diagonal([float(v) for v in f.values])


def rv_to_partial_function(f: RandomVariable) -> PartialFunction:
    """Order isomorphism onto its image: keep the nonzero points as a graph
    over the sample-space indices."""
    universe = frozenset(range(f.omega_size))
    return PartialFunction(
        universe, frozenset((i, f.values[i]) for i in range(f.omega_size) if not _is_zero(f.values[i]))
    )


# ---------------------------------------------------------------------------
# harness adapters


def pf_structure(universe=(0, 1, 2), values=("a", "b")):
    """Finite partial-function carrier wired into the axiom harness."""
    from .axioms import StructureHandle

    elements = tuple(enumerate_partial_functions(universe, values))

    def join(x, y):
        try:
            return pf_union(x, y)
        except Conflict:
            return None

    def osum_hook(x, y):
        return pf_union(x, y) if pf_perp(x, y) else None

    return StructureHandle(
        name=f"pf(|I|={len(tuple(universe))},|V|={len(tuple(values))})",
        zero=PartialFunction.empty(universe),
        eq=lambda x, y: x.graph == y.graph,
        le=lambda x, y: x.graph <= y.graph,
        join=join,
        elements=elements,
        perp=pf_perp,
        meet=pf_intersect,
        skew=pf_skew_intersect,
        subtract=pf_subtract,
        osum=osum_hook,
        overridden=pf_overridden,
        key=lambda x: x.graph,
        describe=str,
    )


def rv_structure(omega_size=3, values=(0, 1, 2)):
    """Finite random-variable carrier (exact integer mode) for the harness."""
    from .axioms import StructureHandle

    elements = tuple(enumerate_random_variables(omega_size, values))

    def osum_hook(x, y):
        return rv_osum(x, y) if rv_perp(x, y) else None

    return StructureHandle(
        name=f"rv(|Omega|={omega_size},values={tuple(values)})",
        zero=RandomVariable.zero(omega_size),
        eq=lambda x, y: x.values == y.values,
        le=rv_le,
        join=rv_join,
        elements=elements,
        perp=rv_perp,
        meet=rv_meet,
        skew=rv_skew_meet,
        subtract=rv_bck,
        osum=osum_hook,
        overridden=rv_overridden,
        key=lambda x: x.values,
        describe=str,
    )


# ---------------------------------------------------------------------------
# JSON wire formats


def pf_to_json(phi: PartialFunction) -> dict:
    return {
        "universe": sorted(phi.universe, key=repr),
        "map": {str(i): v for i, v in sorted(phi.graph, key=repr)},
    }


def pf_from_json(doc) -> PartialFunction:
    if not isinstance(doc, dict) or "universe" not in doc or "map" not in doc:
        raise ParseError('partial-function JSON needs "universe" and "map" fields')
    universe = doc["universe"]
    if not isinstance(universe, list):
        raise ParseError('"universe" must be an array of labels')
    by_str = {str(label): label for label in universe}
    if len(by_str) != len(universe):
        raise ParseError("universe labels collide under str()")
    graph = []
    if not isinstance(doc["map"], dict):
        raise ParseError('"map" must be an object')
    for k, v in doc["map"].items():
        if k not in by_str:
            raise ParseError(f"map index {k!r} is not in the universe")
        graph.append((by_str[k], v))
    if any(isinstance(x, (list, dict)) for x in universe + [v for _, v in graph]):
        raise ParseError("universe labels and map values must be JSON scalars")
    try:
        return PartialFunction(frozenset(universe), frozenset(graph))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def rv_to_json(f: RandomVariable) -> dict:
    return {"values": [v if isinstance(v, (int, float)) else float(v) for v in f.values]}


def rv_from_json(doc) -> RandomVariable:
    if not isinstance(doc, dict) or "values" not in doc or not isinstance(doc["values"], list):
        raise ParseError('random-variable JSON needs a "values" array')
    vals = doc["values"]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
        raise ParseError("values must be numbers")
    try:
        return RandomVariable(tuple(vals))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
