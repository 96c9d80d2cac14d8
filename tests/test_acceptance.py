"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configured elsewhere.
"""

import itertools
import json
import time

import numpy as np

from starorder import observables as obs
from starorder.axioms import CheckConfig, check_initial_segments_oml, check_overriding_and_skew, check_riesz
from starorder.cli import main
from starorder.models import (
    enumerate_random_variables,
    pf_intersect,
    pf_perp,
    pf_skew_intersect,
    pf_union,
    rv_bck,
    rv_join,
    rv_meet,
    rv_osum,
    rv_perp,
    rv_skew_meet,
    rv_to_diagonal,
    rv_to_partial_function,
)
from starorder.errors import Conflict
from starorder.numerics import HermitianOperator, Tolerances, op_equal, proj_join, proj_meet
from starorder.poset import boolean_cube, mo2, o6
from starorder.sampling import (
    _assemble,
    matrix_structure,
    random_commuting_projector,
    random_hermitian,
    random_spectrum_hermitian,
    random_unitary,
)

from conftest import diag_glb_oracle, random_projector

TOL = Tolerances(eq_abs_tol=1e-8)
_POOL = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_ac1_witnessed_meet_join_contract():
    rng = np.random.default_rng(101)
    t0 = time.time()
    violations = 0
    for _ in range(200):
        v = random_unitary(rng, 5)
        w = rng.choice(_POOL, size=5)
        c = _assemble(w, v, range(5))
        size = int(rng.integers(2, 5))
        masks = [set(np.flatnonzero(rng.random(5) < 0.6)) for _ in range(size)]
        members = [_assemble(w, v, sorted(m)) for m in masks]

        glb = obs.meet_bounded(members, c, TOL)
        lub = obs.join_bounded(members, c, TOL)
        inter = set.intersection(*masks)
        union = set.union(*masks)
        if not op_equal(glb, _assemble(w, v, sorted(inter)), TOL):
            violations += 1
        if not op_equal(lub, _assemble(w, v, sorted(union)), TOL):
            violations += 1
        for a in members:
            if not obs.logical_le(glb, a, TOL) or not obs.logical_le(a, lub, TOL):
                violations += 1
        for _ in range(25):  # sampled lower bounds of the family
            sub = [i for i in inter if rng.random() < 0.6]
            d = _assemble(w, v, sub)
            if not obs.logical_le(d, glb, TOL):
                violations += 1
        for _ in range(25):  # sampled upper bounds of the family
            sup = sorted(union | {i for i in range(5) if rng.random() < 0.5})
            e = _assemble(w, v, sup)
            if not obs.logical_le(lub, e, TOL):
                violations += 1
    elapsed = time.time() - t0
    report(
        "AC1 witnessed meet/join glb-lub contract (200 dim-5 families, 50 bounds each)",
        violations == 0 and elapsed < 10.0,
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_ac2_general_meet_oracle_equivalence():
    t0 = time.time()
    values = list(itertools.product((0, 1, 2), repeat=4))
    mismatches = 0
    for a_vals in values:
        a = HermitianOperator.diagonal(a_vals)
        for b_vals in values:
            b = HermitianOperator.diagonal(b_vals)
            got = obs.meet(a, b, TOL)
            expect = np.diag(np.asarray(diag_glb_oracle(a_vals, b_vals), dtype=float)).astype(complex)
            if not np.array_equal(got.entries, expect):
                mismatches += 1
    elapsed = time.time() - t0
    report(
        "AC2 meet equals brute-force glb on all 81^2 diagonal pairs, exactly",
        mismatches == 0 and elapsed < 30.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_ac3_noncommuting_meet_sanity():
    rng = np.random.default_rng(103)
    violations = 0
    for k in range(300):
        if k % 2 == 0:
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
        else:
            # correlated pair sharing a spectral block, so nonzero meets occur
            v = random_unitary(rng, 4)
            shared = rng.choice(_POOL[:4], size=2)
            a = HermitianOperator(
                (v * np.concatenate([shared, rng.standard_normal(2)])) @ v.conj().T
            )
            b = HermitianOperator(
                (v * np.concatenate([shared, rng.standard_normal(2)])) @ v.conj().T
            )
        m = obs.meet(a, b, TOL)
        if not obs.logical_le(m, a, TOL) or not obs.logical_le(m, b, TOL):
            violations += 1
        for _ in range(20):
            r = random_commuting_projector(rng, m)
            d = HermitianOperator((m.entries @ r.entries + r.entries @ m.entries) / 2)
            if not obs.logical_le(d, m, TOL):
                violations += 1
    report(
        "AC3 non-commuting meet sanity (300 dim-4 pairs, 20 lower bounds each)",
        violations == 0,
        f"violations={violations}",
    )


def test_ac4_generalized_orthoalgebra(tmp_path):
    codes = {}
    docs = {}
    for name, argv in {
        "rv": ["verify", "rv", "all", "--out", str(tmp_path / "rv.json")],
        "pf": ["verify", "pf", "all", "--out", str(tmp_path / "pf.json")],
        "matrix-goa": [
            "verify", "matrix", "goa", "--dim", "4", "--samples", "500", "--seed", "4",
            "--out", str(tmp_path / "m.json"),
        ],
    }.items():
        codes[name] = main(argv)
        docs[name] = json.loads((tmp_path / f"{argv[-1].split('/')[-1]}").read_text())
    ok = all(code == 0 for code in codes.values())
    ok &= all(doc["summary"]["fail"] == 0 for doc in docs.values())
    goa_entries = {e["axiom"]: e["verdict"] for e in docs["matrix-goa"]["reports"]}
    for axiom in ("⊕1", "⊕2", "⊕3", "⊕4", "⊕5", "le/oplus"):
        ok &= goa_entries[axiom] == "pass"
    report(
        "AC4 orthoalgebra laws: rv/pf exhaustive, matrix sampled (500 @ dim 4)",
        ok,
        f"exit codes {codes}",
    )


def test_ac5_orthomodular_segments():
    rng = np.random.default_rng(105)
    cfg = CheckConfig(seed=105)
    ok = True
    details = []
    for dim, count in ((3, 8), (4, 6), (5, 6)):
        s = matrix_structure(dim=dim, tol=TOL)
        tops = [random_spectrum_hermitian(rng, dim) for _ in range(count)]
        for r in check_initial_segments_oml(s, tops, cfg):
            if r.verdict != "pass":
                ok = False
                details.append((dim, r.axiom))
    o6_reports = {r.axiom: r for r in check_initial_segments_oml(o6().as_structure(), ["1"], cfg)}
    failing = o6_reports["oml-orthomodular"]
    ok &= failing.verdict == "fail"
    ok &= bool(failing.witnesses) and failing.replay(failing.witnesses[0]) is False
    report(
        "AC5 orthomodular segments: 20 sampled operators pass, O6 fails with witness",
        ok,
        f"problems={details}",
    )


def test_ac6_riesz_distributivity_consistency():
    cube = {r.axiom: r for r in check_riesz(boolean_cube(4).as_structure())}
    broken = {r.axiom: r for r in check_riesz(mo2().as_structure())}
    ok = (
        cube["⊕6"].verdict == "pass"
        and cube["∨5"].verdict == "pass"
        and broken["⊕6"].verdict == "fail"
        and broken["∨5"].verdict == "fail"
        and cube["riesz≡distributive"].verdict == "pass"
        and broken["riesz≡distributive"].verdict == "pass"
        and "consistent" in cube["riesz≡distributive"].note
        and "consistent" in broken["riesz≡distributive"].note
    )
    report("AC6 Riesz <-> distributivity consistency on 2^4 and MO2", ok)


SKEW_LAWS = ("skew-idempotent", "skew-associative", "rwedge1", "rwedge2", "skew-bounded-commutative")


def test_ac7_skew_meet_theorem():
    t0 = time.time()
    from starorder.models import rv_structure

    rv_reports = {r.axiom: r for r in check_overriding_and_skew(rv_structure(), CheckConfig(seed=7))}
    rv_elapsed = time.time() - t0
    ok = all(rv_reports[law].verdict == "pass" for law in SKEW_LAWS)
    ok &= rv_reports["skew-associative"].stats["tuples"] == 27**3
    ok &= rv_elapsed < 60.0

    matrix_reports = {
        r.axiom: r
        for r in check_overriding_and_skew(matrix_structure(dim=4, tol=TOL), CheckConfig(seed=7, samples=500))
    }
    for law in SKEW_LAWS:
        ok &= matrix_reports[law].verdict == "pass"
        ok &= matrix_reports[law].stats["tuples"] >= 500
    report(
        "AC7 skew-meet theorem: RV exhaustive (27^3 triples), matrix sampled (500 @ dim 4)",
        ok,
        f"rv {rv_elapsed:.1f}s",
    )


def test_ac8_cross_model_isomorphisms():
    elements = enumerate_random_variables(3, (0, 1, 2))
    mismatches = 0
    for f in elements:
        for g in elements:
            fd, gd = rv_to_diagonal(f), rv_to_diagonal(g)
            fp, gp = rv_to_partial_function(f), rv_to_partial_function(g)

            if not np.array_equal(rv_to_diagonal(rv_meet(f, g)).entries, obs.meet(fd, gd).entries):
                mismatches += 1
            if not np.array_equal(
                rv_to_diagonal(rv_skew_meet(f, g)).entries, obs.skew_meet(fd, gd).entries
            ):
                mismatches += 1
            if not np.array_equal(rv_to_diagonal(rv_bck(f, g)).entries, obs.bck_subtract(fd, gd).entries):
                mismatches += 1
            if rv_perp(f, g) != obs.orthogonal(fd, gd) or rv_perp(f, g) != pf_perp(fp, gp):
                mismatches += 1
            if rv_perp(f, g) and not np.array_equal(
                rv_to_diagonal(rv_osum(f, g)).entries, obs.osum(fd, gd).entries
            ):
                mismatches += 1
            if rv_to_partial_function(rv_meet(f, g)) != pf_intersect(fp, gp):
                mismatches += 1
            if rv_to_partial_function(rv_skew_meet(f, g)) != pf_skew_intersect(fp, gp):
                mismatches += 1
            j = rv_join(f, g)
            if j is None:
                try:
                    pf_union(fp, gp)
                    mismatches += 1
                except Conflict:
                    pass
            else:
                if rv_to_partial_function(j) != pf_union(fp, gp):
                    mismatches += 1
                if not np.array_equal(
                    rv_to_diagonal(j).entries,
                    obs.join_bounded([fd, gd], rv_to_diagonal(j)).entries,
                ):
                    mismatches += 1
    report(
        "AC8 cross-model isomorphisms commute with every shared operation, exactly",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_ac9_projector_sublattice():
    rng = np.random.default_rng(109)
    eye = HermitianOperator.identity(4)
    worst = 0.0
    for _ in range(100):
        p = random_projector(rng, 4)
        q = random_projector(rng, 4)
        m_diff = np.linalg.norm(obs.meet(p, q, TOL).entries - proj_meet(p, q, TOL).entries)
        j_diff = np.linalg.norm(
            obs.join_bounded([p, q], eye, TOL).entries - proj_join(p, q, TOL).entries
        )
        worst = max(worst, m_diff, j_diff)
    report(
        "AC9 projector meets/joins agree with the projector lattice (100 pairs)",
        worst <= 1e-9,
        f"worst deviation {worst:.2e}",
    )


def test_ac10_deterministic_reports(tmp_path):
    argv = ["verify", "matrix", "all", "--seed", "7", "--dim", "4"]
    code1 = main(argv + ["--out", str(tmp_path / "run1.json")])
    code2 = main(argv + ["--out", str(tmp_path / "run2.json")])
    b1 = (tmp_path / "run1.json").read_bytes()
    b2 = (tmp_path / "run2.json").read_bytes()
    report(
        "AC10 `verify matrix all --seed 7` is byte-identical across runs",
        code1 == 0 and code2 == 0 and b1 == b2,
        f"{len(b1)} bytes",
    )
