import collections
import dataclasses

import pytest

from starorder.axioms import (
    CheckConfig,
    StructureHandle,
    _indexed,
    _overriding,
    check_absorption_and_distributivity,
    check_gen_orthoalgebra,
    check_initial_segments_oml,
    check_nearsemilattice,
    check_orthogonality,
    check_overriding_and_skew,
    check_quasi_orthomodular,
    check_riesz,
    check_weak_bck,
    reports_to_json,
    run_suite,
)
from starorder.errors import InfiniteCarrier, OrthogonalityUnavailable, SubtractionUnavailable
from starorder.models import pf_intersect, pf_structure, rv_structure
from starorder.numerics import HermitianOperator
from starorder.poset import (
    bad_orthogonality_fixture,
    boolean_cube,
    mo2,
    o6,
    pentagon_broken_join,
    trivial_poset,
    v_poset,
)
from starorder.sampling import matrix_structure, random_spectrum_hermitian

CFG = CheckConfig(seed=3, samples=60)


def by_axiom(reports):
    return {r.axiom: r for r in reports}


# ---------------------------------------------------------------------------
# verdicts on the stock models and fixtures


def test_rv_model_passes_everything_exhaustively():
    s = rv_structure()
    for check in (
        check_nearsemilattice,
        check_absorption_and_distributivity,
        check_orthogonality,
        check_quasi_orthomodular,
        check_gen_orthoalgebra,
        check_riesz,
        check_weak_bck,
        check_overriding_and_skew,
    ):
        for r in check(s, CFG):
            assert r.verdict == "pass", (r.axiom, r.witness_desc[:2])
            assert r.stats["mode"] == "exhaustive"


def test_pf_model_passes_everything_exhaustively():
    s = pf_structure()
    for check in (
        check_nearsemilattice,
        check_quasi_orthomodular,
        check_gen_orthoalgebra,
        check_riesz,
        check_weak_bck,
        check_overriding_and_skew,
    ):
        for r in check(s, CFG):
            assert r.verdict == "pass", (r.axiom, r.witness_desc[:2])


def test_single_element_structure_passes():
    s = trivial_poset().as_structure()
    for r in check_nearsemilattice(s, CFG) + check_quasi_orthomodular(s, CFG):
        assert r.verdict == "pass"
    for r in check_initial_segments_oml(s, ["0"], CFG):
        assert r.verdict == "pass"


def test_pentagon_broken_join_fails_only_associativity():
    verdicts = by_axiom(check_nearsemilattice(pentagon_broken_join(), CFG))
    assert verdicts["∨1"].verdict == "pass"
    assert verdicts["∨2"].verdict == "pass"
    assert verdicts["∨4"].verdict == "pass"
    v3 = verdicts["∨3"]
    assert v3.verdict == "fail"
    assert v3.witnesses  # three-element witness, replayable
    assert all(len(w) == 3 for w in v3.witnesses)
    assert v3.replay(v3.witnesses[0]) is False


def test_bad_orthogonality_fixture():
    s = bad_orthogonality_fixture()
    assert by_axiom(check_orthogonality(s, CFG))["⊥2"].verdict == "fail"
    assert by_axiom(check_gen_orthoalgebra(s, CFG))["⊕5"].verdict == "fail"


def test_broken_subtraction_fails_second_law():
    # x - y := x on a two-chain: x - (x - y) = x, which is not below y
    from starorder.poset import FinitePoset

    two = FinitePoset(["0", "1"], [("0", "1")], "0").as_structure()
    broken = StructureHandle(
        **{**two.__dict__, "name": "two-chain-bad-subtract", "subtract": lambda x, y: x,
           "perp": lambda x, y: "0" in (x, y)}
    )
    reports = by_axiom(check_weak_bck(broken, CFG))
    assert reports["−2"].verdict == "fail"
    assert reports["−2"].witnesses
    assert reports["−3"].verdict == "pass"  # x - 0 = x still holds


def test_matrix_diag_segment_oml_exhaustive():
    # the segment of diag(1,2,3) is the eight diagonal restrictions
    from starorder.numerics import HermitianOperator

    s = matrix_structure(dim=3)
    b = HermitianOperator.diagonal([1, 2, 3])
    assert len(s.segment(b)) == 8
    for r in check_initial_segments_oml(s, [b], CFG):
        assert r.verdict == "pass", r.axiom
        assert r.stats["tuples"] in (8, 64)


def test_mo2_fails_decomposition_laws_consistently():
    reports = by_axiom(check_riesz(mo2().as_structure(), CFG))
    assert reports["⊕6"].verdict == "fail"
    assert reports["∨5"].verdict == "fail"
    consistency = reports["riesz≡distributive"]
    assert consistency.verdict == "pass" and "consistent" in consistency.note


def test_boolean_cube_riesz_consistency():
    reports = by_axiom(check_riesz(boolean_cube(4).as_structure(), CFG))
    assert reports["⊕6"].verdict == "pass"
    assert reports["∨5"].verdict == "pass"
    assert reports["riesz≡distributive"].verdict == "pass"


def test_o6_segment_fails_orthomodular_law_with_replayable_witness():
    reports = by_axiom(check_initial_segments_oml(o6().as_structure(), ["1"], CFG))
    failing = reports["oml-orthomodular"]
    assert failing.verdict == "fail"
    w = failing.witnesses[0]
    assert failing.replay(w) is False


def test_broken_skew_hook_fails_rwedge2():
    s = pf_structure()
    broken = StructureHandle(
        **{**s.__dict__, "name": "pf-with-intersection-as-skew", "skew": pf_intersect}
    )
    reports = by_axiom(check_overriding_and_skew(broken, CFG))
    # intersection is symmetric while overriding is not, so the second
    # identity of rwedge2 breaks (and the hook disagrees with the brute max)
    assert reports["rwedge2"].verdict == "fail"
    assert reports["skew-hook-vs-brute"].verdict == "fail"


# ---------------------------------------------------------------------------
# matrix model (sampled)


def test_matrix_model_suites_pass():
    s = matrix_structure(dim=3)
    for check in (check_nearsemilattice, check_orthogonality, check_quasi_orthomodular):
        for r in check(s, CFG):
            assert r.verdict == "pass", (r.axiom, r.stats)
            assert r.stats["mode"] == "sampled"
            assert r.stats["tuples"] == CFG.samples


def test_matrix_overriding_projection_is_informational():
    s = matrix_structure(dim=3)
    reports = by_axiom(check_overriding_and_skew(s, CFG))
    assert reports["⊑5"].verdict == "informational"


def test_matrix_distributivity_is_informational():
    s = matrix_structure(dim=3)
    reports = by_axiom(check_absorption_and_distributivity(s, CFG))
    assert reports["∨5"].verdict == "informational"
    assert reports["∧1"].verdict == "pass"
    assert reports["∧2"].verdict == "pass"


def test_matrix_oml_segments_pass(rng):
    s = matrix_structure(dim=4)
    tops = [random_spectrum_hermitian(rng, 4) for _ in range(2)]
    for r in check_initial_segments_oml(s, tops, CFG):
        assert r.verdict == "pass", (r.axiom, r.stats)
        assert r.stats["segments"] == 2


def test_segment_complement_is_computed_once_per_index():
    base = matrix_structure(dim=4)
    calls = collections.Counter()
    members = []

    def segment(p):
        members[:] = base.segment(p)  # kept alive, so ids stay unique
        return members

    def counting(x, p):
        calls[id(x)] += 1
        return base.complement_in(x, p)

    top = HermitianOperator.diagonal([1.0, 2.0, 3.0, 0.0])  # rank 3: 8 members
    counted = dataclasses.replace(base, segment=segment, complement_in=counting)
    reports = by_axiom(check_initial_segments_oml(counted, [top], CFG))
    assert len(members) == 8
    # every member has a complement, and the complement of it is the member
    for law in ("oml-complement-involutive", "oml-o-complement"):
        assert reports[law].verdict == "pass" and reports[law].stats["tuples"] == 8
    assert reports["oml-orthomodular"].stats["tuples"] == 64
    assert set(calls) == {id(m) for m in members} and max(calls.values()) == 1


@pytest.mark.parametrize("target", ["matrix", "o6"])
def test_segment_hook_listing_members_twice_gives_the_same_reports(target, rng):
    if target == "matrix":
        plain = matrix_structure(dim=3)
        members = plain.segment
        tops = [random_spectrum_hermitian(rng, 3) for _ in range(3)]
    else:
        plain = o6().as_structure()  # no segment hook: [0, p] from its order
        members = lambda p: [x for x in plain.elements if plain.le(x, p)]  # noqa: E731
        tops = plain.elements
    twice = dataclasses.replace(plain, segment=lambda p: [x for x in members(p) for _ in range(2)])
    expected = check_initial_segments_oml(plain, tops, CFG)
    got = check_initial_segments_oml(twice, tops, CFG)
    assert [r.to_dict() for r in got] == [r.to_dict() for r in expected]
    assert [r.witness_desc for r in got] == [r.witness_desc for r in expected]
    if target == "o6":
        assert not all(r.passed for r in got)  # the witnesses are compared too


# ---------------------------------------------------------------------------
# harness mechanics


def test_exhaustive_mode_visits_each_tuple_once():
    s = rv_structure(omega_size=2, values=(0, 1))
    n = len(s.elements)
    reports = by_axiom(check_nearsemilattice(s, CFG))
    assert reports["∨1"].stats["tuples"] == n
    assert reports["∨2"].stats["tuples"] == n**2
    assert reports["∨3"].stats["tuples"] == n**3


def test_sampled_reports_are_deterministic():
    def recorded_run(seed):
        s = matrix_structure(dim=3)
        drawn = []
        inner = s.sample

        def recording(rng, arity):
            tup = inner(rng, arity)
            drawn.append(tuple(s.describe(e) for e in tup))
            return tup

        s.sample = recording
        reports = [r.to_dict() for r in check_orthogonality(s, CheckConfig(seed=seed, samples=25))]
        return reports, drawn

    r1, d1 = recorded_run(11)
    r2, d2 = recorded_run(11)
    r3, d3 = recorded_run(12)
    assert r1 == r2 and d1 == d2
    assert d1 != d3  # a different seed draws different tuples


def test_failure_witnesses_replay():
    hexagon, modular, pentagon = o6().as_structure(), mo2().as_structure(), pentagon_broken_join()
    bad_perp = bad_orthogonality_fixture()
    bad_skew = StructureHandle(**{**pf_structure().__dict__, "skew": pf_intersect})
    replayed = 0
    for structure, suite_reports in (
        (hexagon, check_quasi_orthomodular(hexagon, CFG)),
        (modular, check_riesz(modular, CFG)),
        (pentagon, check_nearsemilattice(pentagon, CFG)),
        (hexagon, check_initial_segments_oml(hexagon, hexagon.elements, CFG)),
        (bad_perp, check_gen_orthoalgebra(bad_perp, CFG)),  # a merged le/oplus witness
        (bad_skew, check_overriding_and_skew(bad_skew, CFG)),
    ):
        for r in suite_reports:
            for w in r.witnesses:
                # witnesses are carrier elements, not the harness's indices
                assert all(e in structure.elements for e in w), (r.axiom, w)
                assert r.replay(w) is False, (r.axiom, w)
                replayed += 1
    assert replayed >= 20


def test_finite_hooks_run_at_most_once_per_pair():
    plain = rv_structure()
    n = len(plain.elements)
    calls = collections.Counter()

    def counted(name, hook):
        def wrapper(*args):
            calls[name] += 1
            return hook(*args)

        return wrapper

    hooks = {f.name: getattr(plain, f.name) for f in dataclasses.fields(plain)}
    wrapped = dataclasses.replace(
        plain, **{name: counted(name, h) for name, h in hooks.items() if callable(h)}
    )
    binary = ("eq", "le", "join", "perp", "meet", "skew", "subtract", "osum", "overridden", "complement_in")
    reports = check_overriding_and_skew(wrapped, CFG)
    assert {"eq", "le", "join", "perp", "meet", "skew"} <= set(calls)
    assert all(calls[name] <= n * n for name in binary), calls
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in check_overriding_and_skew(plain, CFG)]

    calls.clear()
    reports = check_initial_segments_oml(wrapped, wrapped.elements, CFG)
    assert {"le", "perp"} <= set(calls)
    assert all(calls[name] <= n * n for name in binary), calls
    expected = check_initial_segments_oml(plain, plain.elements, CFG)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]


def test_hook_result_outside_the_finite_carrier_is_an_error():
    s = StructureHandle(
        name="leaky",
        zero=0,
        eq=lambda a, b: a == b,
        le=lambda a, b: a <= b,
        join=lambda a, b: a + b,  # 1 v 1 = 2 is not an element
        elements=(0, 1),
        key=lambda x: x,
    )
    with pytest.raises(ValueError, match="join"):
        check_nearsemilattice(s, CFG)
    with pytest.raises(ValueError, match="join"):
        check_nearsemilattice(dataclasses.replace(s, key=None), CFG)


def test_finite_carrier_without_key_gives_the_same_reports():
    keyed = pf_structure()
    unkeyed = dataclasses.replace(keyed, key=None)
    for suite in ("nearsemilattice", "ortho", "qom", "goa", "riesz", "bck", "skew", "oml"):
        expected = run_suite(keyed, suite, CFG)
        got = run_suite(unkeyed, suite, CFG)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in expected], suite
        assert [r.witnesses for r in got] == [r.witnesses for r in expected], suite


@pytest.mark.parametrize("poset", [o6, mo2, lambda: boolean_cube(3)], ids=["o6", "mo2", "boolean3"])
def test_overriding_table_matches_its_definition(poset):
    p = poset()
    sq = _overriding(_indexed(p.as_structure()))
    for i, x in enumerate(p.elements):
        for k, y in enumerate(p.elements):
            assert sq(i, k) == p.overriding(x, y), (x, y)


def test_indexing_is_idempotent_and_uncached():
    s = v_poset().as_structure()
    indexed = _indexed(s)
    assert _indexed(indexed) is indexed
    assert _indexed(s) is not indexed
    assert indexed.elements == tuple(range(len(s.elements)))
    assert s.elements[indexed.zero] == s.zero
    assert all(indexed.le(indexed.zero, i) for i in indexed.elements)
    sampled = matrix_structure(dim=2)
    assert _indexed(sampled) is sampled


def test_structural_errors():
    no_perp = StructureHandle(
        name="bare",
        zero=0,
        eq=lambda a, b: a == b,
        le=lambda a, b: a <= b,
        join=lambda a, b: max(a, b),
        elements=(0, 1),
        key=lambda x: x,
    )
    with pytest.raises(OrthogonalityUnavailable):
        check_orthogonality(no_perp, CFG)
    with pytest.raises(SubtractionUnavailable):
        check_weak_bck(no_perp, CFG)
    with pytest.raises(InfiniteCarrier):
        check_riesz(matrix_structure(dim=3), CFG)


def test_derived_laws_are_flagged():
    reports = by_axiom(check_quasi_orthomodular(rv_structure(), CFG))
    assert not reports["⊥5"].derived
    assert reports["⊥8"].derived and reports["⊥9"].derived and reports["⊥10"].derived


def test_run_suite_downgrades_impossible_checks():
    s = matrix_structure(dim=3)
    reports = run_suite(s, "riesz", CFG)
    assert len(reports) == 1 and reports[0].verdict == "skipped"
    with pytest.raises(ValueError):
        run_suite(s, "nonsense", CFG)


def test_reports_serialize_to_json_array():
    import json

    reports = check_nearsemilattice(rv_structure(omega_size=2, values=(0, 1)), CFG)
    doc = reports_to_json(reports)
    assert isinstance(doc, list)
    parsed = json.loads(json.dumps(doc))
    assert {e["axiom"] for e in parsed} == {"∨1", "∨2", "∨3", "∨4"}
    for e in parsed:
        assert set(e) == {"axiom", "verdict", "witnesses", "stats", "tolerance", "derived", "note"}
