import itertools
import json

import numpy as np
import pytest

from starorder.errors import Conflict, NotOrthogonal, NotUpperBound, ParseError
from starorder.models import (
    PartialFunction,
    RandomVariable,
    enumerate_partial_functions,
    enumerate_random_variables,
    pf_from_json,
    pf_intersect,
    pf_overridden,
    pf_perp,
    pf_skew_intersect,
    pf_subtract,
    pf_to_json,
    pf_union,
    rv_bck,
    rv_from_json,
    rv_join,
    rv_join_bounded,
    rv_le,
    rv_meet,
    rv_osum,
    rv_perp,
    rv_skew_meet,
    rv_to_diagonal,
    rv_to_json,
    rv_to_partial_function,
)
from starorder import observables as obs
from starorder.numerics import op_equal


def pf(universe, mapping):
    return PartialFunction.from_dict(universe, mapping)


U = (1, 2, 3)


# ---------------------------------------------------------------------------
# partial functions


def test_pf_union_examples():
    assert pf_union(pf(U, {1: "a"}), pf(U, {2: "b"})).as_dict() == {1: "a", 2: "b"}
    phi = pf(U, {1: "a", 3: "c"})
    assert pf_union(phi, PartialFunction.empty(U)) == phi
    with pytest.raises(Conflict) as err:
        pf_union(pf(U, {1: "a"}), pf(U, {1: "b", 2: "c"}))
    assert err.value.index == 1


def test_pf_intersect_examples():
    assert pf_intersect(pf(U, {1: "a", 2: "b"}), pf(U, {1: "a", 3: "c"})).as_dict() == {1: "a"}
    phi = pf(U, {2: "b"})
    assert pf_intersect(phi, phi) == phi
    assert pf_intersect(pf(U, {1: "a"}), pf(U, {1: "b"})).graph == frozenset()


def test_pf_perp_examples():
    assert pf_perp(pf(U, {1: "a"}), pf(U, {2: "b"}))
    assert pf_perp(pf(U, {1: "a"}), PartialFunction.empty(U))
    assert not pf_perp(pf(U, {1: "a"}), pf(U, {1: "a"}))


def test_pf_skew_examples():
    assert pf_skew_intersect(pf(U, {1: "a", 2: "b"}), pf(U, {1: "a", 3: "c"})).as_dict() == {1: "a"}
    phi = pf(U, {1: "a", 2: "b"})
    assert pf_skew_intersect(phi, phi) == phi
    # psi restricted to phi's domain needs no agreement: the skew meet keeps
    # psi's value, which is what the overriding characterizations require
    assert pf_skew_intersect(pf(U, {1: "a"}), pf(U, {1: "b"})).as_dict() == {1: "b"}


def test_pf_skew_characterizations_exhaustive():
    elements = enumerate_partial_functions((0, 1), ("a", "b"))
    for phi, psi in itertools.product(elements, repeat=2):
        skew = pf_skew_intersect(phi, psi)
        assert (phi.graph <= psi.graph) == (pf_skew_intersect(phi, psi) == phi)
        assert pf_perp(phi, psi) == (skew.graph == frozenset())
        assert pf_overridden(phi, psi) == (pf_skew_intersect(psi, phi) == phi)


def test_pf_domain_laws():
    phi, psi = pf(U, {1: "a", 2: "b"}), pf(U, {3: "c"})
    assert pf_union(phi, psi).domain() == phi.domain() | psi.domain()
    # strictness of the intersection inclusion: shared index, different value
    chi = pf(U, {1: "b"})
    assert pf_intersect(phi, chi).domain() == frozenset()
    assert phi.domain() & chi.domain() == frozenset({1})


def test_pf_subtract_is_set_subtraction():
    phi = pf(U, {1: "a", 2: "b"})
    assert pf_subtract(phi, pf(U, {1: "a", 3: "c"})).as_dict() == {2: "b"}
    assert pf_subtract(phi, PartialFunction.empty(U)) == phi
    assert pf_subtract(phi, phi).graph == frozenset()


def test_pf_validation():
    with pytest.raises(ValueError):
        PartialFunction(frozenset(U), frozenset([(1, "a"), (1, "b")]))
    with pytest.raises(ValueError):
        PartialFunction(frozenset({1}), frozenset([(2, "a")]))
    with pytest.raises(ValueError):
        pf_union(pf((1,), {1: "a"}), pf((1, 2), {1: "a"}))


def test_pf_enumeration_count():
    # |I| = 3, |V| = 2: each index is unset or takes one of two values
    assert len(enumerate_partial_functions((0, 1, 2), ("a", "b"))) == 27


# ---------------------------------------------------------------------------
# random variables


def test_rv_le_examples():
    assert rv_le(RandomVariable((0, 0, 0)), RandomVariable((1, 2, 3)))
    assert rv_le(RandomVariable((1, 2, 0)), RandomVariable((1, 2, 7)))
    assert not rv_le(RandomVariable((1, 2, 0)), RandomVariable((1, 5, 7)))


def test_rv_meet_examples():
    assert rv_meet(RandomVariable((1, 2, 0)), RandomVariable((1, 5, 7))).values == (1, 0, 0)
    f = RandomVariable((3, 0, 2))
    assert rv_meet(f, f) == f
    assert rv_meet(RandomVariable((1, 0)), RandomVariable((0, 2))).values == (0, 0)


def test_rv_meet_is_glb_by_enumeration():
    # oracle: enumerate all support restrictions of both arguments
    f, g = RandomVariable((1, 2, 0)), RandomVariable((1, 5, 7))
    m = rv_meet(f, g)
    lower = []
    for mask in range(8):
        vals = tuple(f.values[i] if mask >> i & 1 else 0 for i in range(3))
        cand = RandomVariable(vals)
        if rv_le(cand, f) and rv_le(cand, g):
            lower.append(cand)
    assert all(rv_le(c, m) for c in lower) and rv_le(m, f) and rv_le(m, g)


def test_rv_join_bounded_examples():
    got = rv_join_bounded(RandomVariable((1, 0, 0)), RandomVariable((0, 5, 0)), RandomVariable((1, 5, 7)))
    assert got.values == (1, 5, 0)
    h = RandomVariable((2, 3))
    assert rv_join_bounded(h, h, h) == h
    with pytest.raises(NotUpperBound):
        rv_join_bounded(RandomVariable((1, 0, 0)), RandomVariable((2, 0, 0)), RandomVariable((2, 0, 0)))


def test_rv_osum_perp_examples():
    assert rv_osum(RandomVariable((1, 0)), RandomVariable((0, 2))).values == (1, 2)
    f = RandomVariable((4, 5))
    assert rv_osum(f, RandomVariable.zero(2)) == f
    with pytest.raises(NotOrthogonal):
        rv_osum(RandomVariable((1, 1)), RandomVariable((0, 2)))
    assert rv_perp(RandomVariable((1, 0)), RandomVariable((0, 2)))
    assert not rv_perp(RandomVariable((1, 1)), RandomVariable((0, 2)))


def test_rv_bck_examples():
    assert rv_bck(RandomVariable((1, 5, 7)), RandomVariable((1, 2, 0))).values == (0, 5, 7)
    g = RandomVariable((9, 0, 1))
    assert rv_bck(g, RandomVariable.zero(3)) == g
    assert rv_bck(g, g).values == (0, 0, 0)


def test_rv_bck_equals_difference_of_meet():
    for f in enumerate_random_variables(3, (0, 1, 2)):
        for g in enumerate_random_variables(3, (0, 1, 2)):
            direct = rv_bck(g, f)
            m = rv_meet(f, g)
            assert direct.values == tuple(gv - mv for gv, mv in zip(g.values, m.values))


def test_rv_skew_examples():
    assert rv_skew_meet(RandomVariable((1, 2, 0)), RandomVariable((1, 5, 7))).values == (1, 5, 0)
    f = RandomVariable((0, 6))
    assert rv_skew_meet(f, f) == f
    assert rv_skew_meet(RandomVariable((0, 0)), RandomVariable((3, 4))).values == (0, 0)


def test_rv_float_mode_thresholds():
    f = RandomVariable((1.0, 1e-13))
    assert f.support() == frozenset({0})
    assert rv_le(f, RandomVariable((1.0 + 1e-13, 5.0)))


# ---------------------------------------------------------------------------
# embeddings


def test_rv_to_diagonal_examples():
    assert np.array_equal(rv_to_diagonal(RandomVariable((1, 2, 0))).entries, np.diag([1.0, 2.0, 0.0]))
    assert np.array_equal(rv_to_diagonal(RandomVariable.zero(2)).entries, np.zeros((2, 2)))
    both = obs.meet(rv_to_diagonal(RandomVariable((1, 2, 0))), rv_to_diagonal(RandomVariable((1, 5, 7))))
    assert np.array_equal(both.entries, np.diag([1.0, 0.0, 0.0]).astype(complex))


def test_rv_to_diagonal_is_order_embedding():
    elements = enumerate_random_variables(2, (0, 1, 2))
    for f in elements:
        for g in elements:
            assert rv_le(f, g) == obs.logical_le(rv_to_diagonal(f), rv_to_diagonal(g))


def test_rv_to_partial_function_examples():
    assert rv_to_partial_function(RandomVariable((1, 0, 7))).as_dict() == {0: 1, 2: 7}
    assert rv_to_partial_function(RandomVariable.zero(3)).graph == frozenset()
    f, g = RandomVariable((1, 0, 0)), RandomVariable((0, 5, 0))
    u = pf_union(rv_to_partial_function(f), rv_to_partial_function(g))
    assert u == rv_to_partial_function(rv_osum(f, g))


def test_embeddings_commute_with_operations_exhaustively():
    elements = enumerate_random_variables(2, (0, 1, 2))
    for f in elements:
        for g in elements:
            fd, gd = rv_to_diagonal(f), rv_to_diagonal(g)
            fp, gp = rv_to_partial_function(f), rv_to_partial_function(g)
            assert np.array_equal(rv_to_diagonal(rv_meet(f, g)).entries, obs.meet(fd, gd).entries)
            assert np.array_equal(
                rv_to_diagonal(rv_skew_meet(f, g)).entries, obs.skew_meet(fd, gd).entries
            )
            assert np.array_equal(rv_to_diagonal(rv_bck(f, g)).entries, obs.bck_subtract(fd, gd).entries)
            assert rv_perp(f, g) == obs.orthogonal(fd, gd) == pf_perp(fp, gp)
            assert rv_le(f, g) == (fp.graph <= gp.graph)
            assert rv_to_partial_function(rv_skew_meet(f, g)) == pf_skew_intersect(fp, gp)
            assert rv_to_partial_function(rv_meet(f, g)) == pf_intersect(fp, gp)
            j = rv_join(f, g)
            if j is None:
                with pytest.raises(Conflict):
                    pf_union(fp, gp)
            else:
                assert rv_to_partial_function(j) == pf_union(fp, gp)
                assert op_equal(rv_to_diagonal(j), obs.join_bounded([fd, gd], rv_to_diagonal(j)))
            if rv_perp(f, g):
                assert np.array_equal(rv_to_diagonal(rv_osum(f, g)).entries, obs.osum(fd, gd).entries)


# ---------------------------------------------------------------------------
# wire formats


def test_pf_json_round_trip():
    phi = pf((1, 2, 3), {1: "a", 3: "c"})
    doc = pf_to_json(phi)
    assert json.loads(json.dumps(doc)) == doc
    assert pf_from_json(doc) == phi
    with pytest.raises(ParseError):
        pf_from_json({"universe": [1], "map": {"9": "a"}})
    with pytest.raises(ParseError):
        pf_from_json({"universe": [1]})


def test_rv_rejects_integers_beyond_float_range():
    with pytest.raises(ValueError, match="float range"):
        RandomVariable((10**400, 0))
    with pytest.raises(ParseError, match="float range"):
        rv_from_json({"values": [0, -(10**400)]})


def test_rv_json_round_trip():
    f = RandomVariable((1, 0, 7))
    assert rv_from_json(rv_to_json(f)) == f
    with pytest.raises(ParseError):
        rv_from_json({"values": ["x"]})
    with pytest.raises(ParseError):
        rv_from_json({})
