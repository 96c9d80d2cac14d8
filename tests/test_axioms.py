import collections
import dataclasses
import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from starorder import axioms
from starorder.axioms import (
    CheckConfig,
    StructureHandle,
    _indexed,
    _overriding_table,
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
    (tuples, every failing tuple (x, y, z) in the order y, z, x)."""
    j, le, perp, key, elements = structure.join, structure.le, structure.perp, structure.key, structure.elements
    count, failing = 0, []
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
                    failing.append((x, y, z))
    return count, failing


def reference_predicates(structure):
    """Every law as a Python predicate on one tuple of the structure's own
    elements (indices, on an indexed carrier), calling its hooks one at a
    time: the reference that the harness's kernels are held to. On a finite
    carrier the brute meet and skew, the overriding preorder and the
    complement search are computed here from the hooks, not read from the
    harness's tables."""
    j, le, eq, perp, zero = structure.join, structure.le, structure.eq, structure.perp, structure.zero
    sub, elements, finite = structure.subtract, structure.elements, structure.finite

    def greatest(candidates, le):
        return next((c for c in candidates if all(le(u, c) for u in candidates)), None)

    meet = structure.meet or (lambda x, y: greatest([u for u in elements if le(u, x) and le(u, y)], le))
    if finite and perp is not None:
        # x is overridden by y when every z perp y is also perp x
        overridden = {(x, y): all(perp(z, x) for z in elements if perp(z, y)) for x in elements for y in elements}
        sq = lambda x, y: overridden[x, y]  # noqa: E731
    else:
        sq = structure.overridden

    def brute_skew(x, y):
        return greatest([u for u in elements if sq(u, x) and le(u, y)], le)

    s = structure.skew or brute_skew

    def o(x, y):
        return j(x, y) if perp(x, y) else None

    def has_complement(x, y):
        # some z with x perp z and x join z = y: searched, or the registered constructor's
        def sums_to_y(z):
            return z is not None and perp(x, z) and (r := j(x, z)) is not None and eq(r, y)

        return any(map(sums_to_y, elements)) if finite else sums_to_y(structure.complement_in(x, y))

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

    def a1(x, y):
        r = j(x, y)
        if r is None:
            return True
        m = meet(x, r)
        return m is not None and eq(m, x)

    def a2(x, y):
        m = meet(x, y)
        if m is None:
            return False
        r = j(m, y)
        return r is not None and eq(r, y)

    def p4(x, y, z):
        if not (perp(x, y) and perp(x, z)):
            return True
        r = j(y, z)
        return r is None or perp(x, r)

    def p6(x, y):
        return not le(x, y) or has_complement(x, y)

    def p7(x, y, z):
        # vacuous when x join z is undefined: the premise y <= x v z cannot hold
        if not (perp(x, y) and perp(x, z)):
            return True
        xz = j(x, z)
        return xz is None or not le(y, xz) or le(y, z)

    def p8(x, y, z):
        if not (perp(x, y) and perp(x, z)):
            return True
        xy, xz = j(x, y), j(x, z)
        if xy is None or xz is None:
            return True
        return not eq(xy, xz) or eq(y, z)

    def p10(x, y, z):
        if not (perp(x, y) and perp(y, z) and perp(x, z)):
            return True
        xy = j(x, y)
        return xy is not None and j(xy, z) is not None

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

    def m_sect(x, y):
        v = meet(x, y)
        if v is None:
            return False
        d = sub(x, y)
        if not (le(d, x) and perp(v, d)):
            return False
        r = j(v, d)
        return r is not None and eq(r, x)

    def sq4(x, y, z):
        if not (sq(x, z) and sq(y, z)):
            return True
        r = j(x, y)
        return r is None or sq(r, z)

    def sq5(x, y):
        if not sq(x, y):
            return True
        if finite:
            return any(sq(x, u) and sq(u, x) and le(u, y) for u in elements)
        u = s(x, y)
        return u is not None and sq(x, u) and sq(u, x) and le(u, y)

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
        return structure.meet is None or eq(a, structure.meet(x, y))

    def hook_vs_brute(x, y):
        hooked, brute = structure.skew(x, y), brute_skew(x, y)
        if hooked is None or brute is None:
            return hooked is None and brute is None
        return eq(hooked, brute)

    return {
        "∨1": v1, "∨2": v2, "∨3": v3, "∨4": v4, "∧1": a1, "∧2": a2,
        "⊥1": lambda x, y: not perp(x, y) or perp(y, x),
        "⊥2": lambda x, y, z: not (le(x, y) and perp(y, z)) or perp(x, z),
        "⊥3": lambda x: perp(x, zero),
        "⊥4": p4,
        "⊥5": lambda x, y: not perp(x, y) or j(x, y) is not None,
        "⊥6": p6, "⊥7": p7, "⊥8": p8,
        "⊥9": lambda x: not perp(x, x) or eq(x, zero),
        "⊥10": p10,
        "⊕1": o1, "⊕2": o2, "⊕3": o3, "⊕4": o4,
        "⊕5": lambda x: o(x, x) is None or eq(x, zero),
        "le/oplus": p6,  # x below y must be certified by a sum decomposition
        "le/oplus←": le_oplus_backward,
        "oplus/vee": oplus_vee,
        "−1": lambda x, y, z: not le(x, y) or le(sub(z, y), sub(z, x)),
        "−2": lambda x, y: le(sub(x, sub(x, y)), y),
        "−3": lambda x: eq(sub(x, zero), x),
        "−/⊖": m_sect,
        "⊑1refl": lambda x: sq(x, x),
        "⊑1trans": lambda x, y, z: not (sq(x, y) and sq(y, z)) or sq(x, z),
        "⊑2": lambda x, y: not le(x, y) or sq(x, y),
        "⊑3": lambda x, y: not sq(x, y) or j(x, y) is None or le(x, y),
        "⊑4": sq4, "⊑5": sq5,
        "skew-idempotent": skew_idem, "skew-associative": skew_assoc,
        "rwedge1": rw1, "rwedge2": rw2, "skew-bounded-commutative": bounded_comm,
        "skew-hook-vs-brute": hook_vs_brute,
    }


def kernel_mismatches(structure, monkeypatch):
    """Runs the suites on an indexed carrier and holds every law's kernel to
    its reference predicate, tuple by tuple, and every report to the
    reference's count, failures and first witnesses; returns the
    disagreements."""
    laws, decompositions = [], []
    run_axiom, check_v5 = axioms._run_axiom, axioms._check_v5

    def recording_run(s, config, axiom, arity, kernel, **kw):
        report = run_axiom(s, config, axiom, arity, kernel, **kw)
        laws.append((axiom, arity, kernel, report))
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

    n, carrier, reference = len(structure.elements), structure.carrier, reference_predicates(structure)
    found = []
    for axiom, arity, kernel, report in laws:
        tuples = list(itertools.product(range(n), repeat=arity))
        expected = np.array([bool(reference[axiom](*t)) for t in tuples])
        got = np.concatenate([ok.ravel() for _, ok in axioms._kernel_slabs(structure.tables, arity, kernel)])
        found += [(axiom, tuples[i]) for i in np.flatnonzero(got != expected)]
        failing = [tuples[i] for i in np.flatnonzero(~expected)]
        wits = collections.Counter(tuple(carrier[i] for i in t) for t in failing[: CFG.max_witnesses])
        if (report.stats["tuples"], report.stats["failures"]) != (len(tuples), len(failing)) or \
                collections.Counter(report.witnesses) != wits:
            found.append((axiom, "report"))
    for axiom, use_perp, report in decompositions:
        count, failing = decomposition_reference(structure, use_perp)
        wits = collections.Counter(tuple(carrier[i] for i in t) for t in failing[: CFG.max_witnesses])
        if (report.stats["tuples"], report.stats["failures"]) != (count, len(failing)) or \
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


@pytest.mark.parametrize("poset", [o6, mo2, lambda: boolean_cube(3)], ids=["o6", "mo2", "boolean3"])
def test_decomposition_replay_agrees_with_the_reference_on_every_tuple(poset):
    structure = _indexed(poset().as_structure())
    reports = by_axiom(check_riesz(structure, CFG))
    for axiom, use_perp in (("⊕6", True), ("∨5", False)):
        failing = set(decomposition_reference(structure, use_perp)[1])
        for t in itertools.product(structure.elements, repeat=3):
            assert reports[axiom].replay(tuple(structure.carrier[i] for i in t)) is (t not in failing), (axiom, t)


def segment_reference(structure, p):
    """The oml laws on [0, p] as Python predicates on one tuple at a time,
    with lubs, glbs and complements searched among the members through the
    segment's hooks: the reference that the segment kernels are held to.
    Returns the indexed segment, its members (the first of each `eq` class)
    and the predicates on them."""
    if structure.segment is not None:
        family = tuple(structure.segment(p))
    else:
        family = tuple(x for x in structure.elements if structure.le(x, p))
    seg = _indexed(StructureHandle(
        name=structure.name, zero=structure.zero, eq=structure.eq, le=structure.le, join=None,
        elements=family, perp=structure.perp, key=structure.key,
    ))
    le, perp, zero, top = seg.le, seg.perp, seg.zero, seg.find(p)
    members = [i for i in seg.elements if seg.key(i) == i]

    def greatest(candidates, le):
        return next((c for c in candidates if all(le(u, c) for u in candidates)), None)

    def lub(i, j):
        return greatest([k for k in members if le(i, k) and le(j, k)], lambda u, c: le(c, u))

    def glb(i, j):
        return greatest([k for k in members if le(k, i) and le(k, j)], le)

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


def segment_mismatches(structure, p, edit=lambda T: None):
    """Holds every oml kernel on [0, p], after edit(T) on the segment's
    tables, to its reference predicate, tuple by tuple; returns the
    disagreements."""
    T, _, _, kernels = axioms._segment(structure, p)
    edit(T)
    _, members, predicates = segment_reference(structure, p)
    assert len(members) == T.n
    found = []
    for (axiom, arity), kernel, holds in zip(axioms._OML_LAWS, kernels, predicates):
        tuples = list(itertools.product(range(T.n), repeat=arity))
        expected = np.array([bool(holds(*(members[i] for i in t))) for t in tuples])
        got = np.concatenate([ok.ravel() for _, ok in axioms._kernel_slabs(T, arity, kernel)])
        found += [(p, axiom, tuples[i]) for i in np.flatnonzero(got != expected)]
    return found


def listing_members_twice(structure):
    members = structure.segment or (lambda p: [x for x in structure.elements if structure.le(x, p)])
    return dataclasses.replace(structure, segment=lambda p: [x for x in members(p) for _ in range(2)])


@pytest.mark.parametrize(
    "carrier", sorted(c for c in KERNEL_CARRIERS if c not in ("bowtie", "bowtie-brute-meet", "pentagon-broken-join"))
)
def test_segment_kernels_agree_with_their_predicates(carrier):
    structure = _indexed(KERNEL_CARRIERS[carrier]())
    assert [f for p in structure.elements for f in segment_mismatches(structure, p)] == []


@pytest.mark.parametrize("dim, twice", [(3, False), (4, False), (3, True)])
def test_segment_kernels_agree_with_their_predicates_on_matrices(dim, twice, rng):
    structure = matrix_structure(dim=dim)
    if twice:
        structure = listing_members_twice(structure)
    for p in [random_spectrum_hermitian(rng, dim) for _ in range(3)]:
        assert segment_mismatches(structure, p) == []


def test_segment_kernels_agree_with_their_predicates_on_a_family_listed_twice():
    structure = _indexed(listing_members_twice(o6().as_structure()))
    assert [f for p in structure.elements for f in segment_mismatches(structure, p)] == []


@pytest.mark.parametrize(
    "table, entry", [("le", (1, 0)), ("lub", (1, 2)), ("glb", (3, 5)), ("complement", (2,)), ("unique", (4,))]
)
def test_a_flipped_segment_table_entry_is_caught(table, entry):
    structure = _indexed(boolean_cube(3).as_structure())
    top = structure.find("111")

    def flip(T):
        a = getattr(T, table)
        a[entry] = not a[entry] if a.dtype == bool else (T.n if a[entry] < T.n else 0)

    assert segment_mismatches(structure, top) == []
    assert segment_mismatches(structure, top, flip)


SAMPLED_SUITES = ("nearsemilattice", "ortho", "qom", "goa", "bck", "skew")
COUNTED_HOOKS = ("eq", "le", "join", "perp", "meet", "skew", "subtract", "osum", "overridden", "complement_in")


def broken_join_matrices():
    # x join y := x + y: idempotence and both absorption laws fail on samples
    return dataclasses.replace(matrix_structure(dim=3), join=lambda x, y: x + y)


def sampled_mismatches(structure, config, monkeypatch):
    """Runs the sampled suites with counted hooks and holds every law's
    kernel, walked on each drawn tuple, to its reference predicate on the
    same tuple: the same verdicts, the report's counts and first witnesses,
    and no hook called more often than by the reference. Returns the
    disagreements."""
    calls, drawn, laws = collections.Counter(), [], []

    def counted(name, hook):
        def wrapper(*args):
            calls[name] += 1
            return hook(*args)

        return wrapper

    def recording(rng, arity, count):
        drawn.append([tuple(t) for t in structure.sample(rng, arity, count)])
        return drawn[-1]

    hooks = {name: counted(name, getattr(structure, name)) for name in COUNTED_HOOKS if getattr(structure, name)}
    counted_structure = dataclasses.replace(structure, sample=recording, **hooks)
    run_axiom = axioms._run_axiom

    def recording_run(s, config, axiom, arity, kernel, **kw):
        report = run_axiom(s, config, axiom, arity, kernel, **kw)
        laws.append((axiom, report, drawn[-1]))
        return report

    monkeypatch.setattr(axioms, "_run_axiom", recording_run)
    for suite in SAMPLED_SUITES:
        run_suite(counted_structure, suite, config)
    monkeypatch.undo()

    reference, describe, found = reference_predicates(counted_structure), structure.describe, []
    for axiom, report, tuples in laws:
        calls.clear()
        walked = [report.replay(t) for t in tuples]
        walker_calls = collections.Counter(calls)
        calls.clear()
        expected = [bool(reference[axiom](*t)) for t in tuples]
        found += [(axiom, "verdict", i) for i, (a, b) in enumerate(zip(walked, expected)) if a is not b]
        found += [(axiom, "calls", h) for h in walker_calls if walker_calls[h] > calls[h]]
        failing = [t for t, ok in zip(tuples, expected) if not ok]
        wits = sorted(tuple(map(describe, t)) for t in failing[: config.max_witnesses])
        if (report.stats["tuples"], report.stats["failures"]) != (len(tuples), len(failing)) or \
                list(report.witness_desc) != wits:
            found.append((axiom, "report"))
    assert len(laws) >= 38
    return found


@pytest.mark.parametrize(
    "carrier, dim, seed",
    [("matrix", dim, seed) for dim in (3, 4) for seed in (1, 2, 3)] + [("broken-join", 3, 3)],
)
def test_walked_kernels_agree_with_their_predicates_on_samples(carrier, dim, seed, monkeypatch):
    structure = broken_join_matrices() if carrier == "broken-join" else matrix_structure(dim=dim)
    assert sampled_mismatches(structure, CheckConfig(seed=seed, samples=30), monkeypatch) == []


# Recorded before the sampled laws ran as walked kernels, when each had a
# Python predicate of its own.
BROKEN_JOIN_DIGESTS = {
    "nearsemilattice": "33f3bac36a5c11c4921f04c59250f1f47c0c76cbe59b5a2f68b9f3e733cc42d9",
    "ortho": "31555785241d736dad5f03f3168406619a0d29cc05ae22538bf572832f53785b",
    "qom": "7c1a8eab80d8713c3ad90faf28673fa2a3880c74a2cbb41f0976d41927e4187f",
    "goa": "b3c7dfb2789ff648d5139b50b88ca535d252565d34fcad63018485d3aa282a42",
    "bck": "7056fb9028af5a63723fb94ac93444d6204428087b78a5d5adb1397cda19d22f",
    "skew": "7fe56b43a021f97cf874f9883b32662a369ce62e5c4d095b6f078317eb2919f7",
}


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
def test_sampled_failures_are_pinned_and_replay(suite):
    reports = run_suite(broken_join_matrices(), suite, CheckConfig(seed=3, samples=30))
    doc = [(r.to_dict(), r.witness_desc) for r in reports]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == BROKEN_JOIN_DIGESTS[suite]
    if suite == "nearsemilattice":
        failures = {r.axiom: r.stats["failures"] for r in reports if r.verdict == "fail"}
        assert failures == {"∨1": 23, "∧1": 4, "∧2": 9}
    for r in reports:
        for w in r.witnesses:
            assert r.replay(w) is False, (r.axiom, r.witness_desc)


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
    sq = _overriding_table(_indexed(p.as_structure()))
    for i, x in enumerate(p.elements):
        for k, y in enumerate(p.elements):
            assert sq[i, k] == p.overriding(x, y), (x, y)


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
