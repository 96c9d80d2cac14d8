import collections
import dataclasses
import itertools
import pathlib

import numpy as np
import pytest

from starorder import axioms
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
from starorder.models import pf_intersect, pf_structure, rv_join, rv_structure
from starorder.numerics import HermitianOperator
from starorder.poset import (
    FinitePoset,
    bad_orthogonality_fixture,
    boolean_cube,
    load_poset,
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


def broken_subtraction():
    # x - y := x on a two-chain: x - (x - y) = x, which is not below y
    two = FinitePoset(["0", "1"], [("0", "1")], "0").as_structure()
    return StructureHandle(
        **{**two.__dict__, "name": "two-chain-bad-subtract", "subtract": lambda x, y: x,
           "perp": lambda x, y: "0" in (x, y)}
    )


def test_broken_subtraction_fails_second_law():
    reports = by_axiom(check_weak_bck(broken_subtraction(), CFG))
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

        def recording(rng, arity, count):
            tuples = list(inner(rng, arity, count))
            drawn.extend(tuple(s.describe(e) for e in tup) for tup in tuples)
            return tuples

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


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
KERNEL_SUITES = ("nearsemilattice", "ortho", "qom", "goa", "riesz", "bck", "skew")
KERNEL_CARRIERS = {
    "rv2": lambda: rv_structure(omega_size=2),
    "rv3": rv_structure,
    "pf": pf_structure,
    **{f.stem: (lambda f=f: load_poset(f).as_structure()) for f in sorted(FIXTURES.glob("*.json"))},
    "pentagon-broken-join": pentagon_broken_join,
    "bad-orthogonality": bad_orthogonality_fixture,
    "broken-subtraction": broken_subtraction,
    "pf-intersect-as-skew": lambda: StructureHandle(**{**pf_structure().__dict__, "skew": pf_intersect}),
    # the brute meet (with undefined meets on the bowtie) and skew tables, and oplus/vee without osum
    "bowtie-brute-meet": lambda: dataclasses.replace(load_poset(FIXTURES / "bowtie.json").as_structure(), meet=None),
    "o6-brute-meet-and-skew": lambda: dataclasses.replace(o6().as_structure(), meet=None, skew=None),
    "rv2-without-osum": lambda: dataclasses.replace(rv_structure(omega_size=2), osum=None),
    "rv2-join-as-osum": lambda: dataclasses.replace(rv_structure(omega_size=2), osum=rv_join),  # defined off ⊥
}


def decomposition_reference(structure, use_perp):
    """The ∨5 / ⊕6 sweep as plain loops over an indexed carrier's hooks:
    (tuples, failures, witnesses) in the order y, z, x."""
    j, le, perp, key, elements = structure.join, structure.le, structure.perp, structure.key, structure.elements
    count = failures = 0
    witnesses = []
    for y, z in itertools.product(elements, repeat=2):
        top = j(y, z)
        if (use_perp and not perp(y, z)) or top is None:
            continue
        reached = {key(r) for a in elements if le(a, y) for b in elements if le(b, z)
                   if (not use_perp or perp(a, b)) and (r := j(a, b)) is not None}
        for x in elements:
            if le(x, top):
                count += 1
                if key(x) not in reached:
                    failures += 1
                    witnesses += [(x, y, z)][: CFG.max_witnesses - len(witnesses)]
    return count, failures, witnesses


def kernel_mismatches(structure, monkeypatch):
    """Runs the suites on an indexed carrier and holds every law's kernel to
    its predicate, tuple by tuple, and every report to the predicate's count,
    failures and first witnesses; returns the disagreements."""
    laws, decompositions = [], []
    run_axiom, check_v5 = axioms._run_axiom, axioms._check_v5

    def recording_run(s, config, axiom, arity, predicate, kernel, **kw):
        report = run_axiom(s, config, axiom, arity, predicate, kernel, **kw)
        laws.append((axiom, arity, predicate, kernel, report))
        return report

    def recording_v5(s, config, *, axiom="∨5", use_perp=False):
        report = check_v5(s, config, axiom=axiom, use_perp=use_perp)
        decompositions.append((axiom, use_perp, report))
        return report

    monkeypatch.setattr(axioms, "_run_axiom", recording_run)
    monkeypatch.setattr(axioms, "_check_v5", recording_v5)
    for suite in KERNEL_SUITES:
        run_suite(structure, suite, CFG)
    monkeypatch.undo()

    n, carrier = len(structure.elements), structure.carrier
    found = []
    for axiom, arity, predicate, kernel, report in laws:
        tuples = list(itertools.product(range(n), repeat=arity))
        expected = np.array([bool(predicate(*t)) for t in tuples])
        got = np.concatenate([ok.ravel() for _, ok in axioms._kernel_slabs(structure.tables, arity, kernel)])
        found += [(axiom, tuples[i]) for i in np.flatnonzero(got != expected)]
        failing = [tuples[i] for i in np.flatnonzero(~expected)]
        wits = collections.Counter(tuple(carrier[i] for i in t) for t in failing[: CFG.max_witnesses])
        if (report.stats["tuples"], report.stats["failures"]) != (len(tuples), len(failing)) or \
                collections.Counter(report.witnesses) != wits:
            found.append((axiom, "report"))
    for axiom, use_perp, report in decompositions:
        count, failures, witnesses = decomposition_reference(structure, use_perp)
        wits = collections.Counter(tuple(carrier[i] for i in t) for t in witnesses)
        if (report.stats["tuples"], report.stats["failures"]) != (count, failures) or \
                collections.Counter(report.witnesses) != wits:
            found.append((axiom, "report"))
    assert len(laws) >= 20 or structure.perp is None
    return found


@pytest.mark.parametrize("carrier", sorted(KERNEL_CARRIERS))
def test_law_kernels_agree_with_their_predicates(carrier, monkeypatch):
    structure = _indexed(KERNEL_CARRIERS[carrier]())
    assert kernel_mismatches(structure, monkeypatch) == []


@pytest.mark.parametrize("hook, entry", [("join", (1, 0)), ("perp", (1, 2)), ("eq", (3, 3))])
def test_a_flipped_table_entry_is_caught(hook, entry, monkeypatch):
    structure = _indexed(rv_structure(omega_size=2))
    table = getattr(structure.tables, hook)  # filled; the hooks still read their rows
    table[entry] = (table[entry] + 1) % len(structure.elements) if hook == "join" else not table[entry]
    assert kernel_mismatches(structure, monkeypatch)


@pytest.mark.parametrize("carrier", ["rv3", "o6-brute-meet-and-skew", "pf-intersect-as-skew"])
def test_reports_do_not_depend_on_the_slab_size(carrier, monkeypatch):
    def reports():
        structure = _indexed(KERNEL_CARRIERS[carrier]())
        return [(r.to_dict(), r.witnesses) for suite in KERNEL_SUITES for r in run_suite(structure, suite, CFG)]

    expected = reports()
    monkeypatch.setattr(axioms, "_SLAB", 1)  # one first coordinate per slab
    assert reports() == expected


def test_kernels_on_81_elements_stay_within_their_slabs():
    import tracemalloc

    # brute meet and skew tables too; an n**4 temporary would take 43 MB
    structure = _indexed(dataclasses.replace(rv_structure(omega_size=4), meet=None, skew=None))
    tracemalloc.start()
    try:
        for suite in ("nearsemilattice", "riesz", "skew"):
            assert all(r.passed for r in run_suite(structure, suite, CFG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_oml_tops_default_to_the_carrier_of_an_indexed_handle():
    plain = o6().as_structure()
    expected = [r.to_dict() for r in run_suite(plain, "oml", CFG)]
    assert [r.to_dict() for r in run_suite(_indexed(plain), "oml", CFG)] == expected


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
