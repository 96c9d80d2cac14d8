"""Self-tests of the benchmark's correctness checks: each check accepts the
program's real output and rejects a planted wrong answer.

    python3 -m pytest perfbench/test_checks.py -q     (from the checkout root)
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from starorder import cli, sampling  # noqa: E402


def verify(*argv):
    code, text = workloads.call_cli(cli, ["verify", *argv])
    return code, json.loads(text)


def report(doc, axiom):
    return next(r for r in doc["reports"] if r["axiom"] == axiom)


# -- verify_matrix -------------------------------------------------------------

SAMPLES = 3
SUITES = workloads.VerifyMatrix.SUITES


@pytest.fixture(scope="module")
def matrix_round():
    wl = workloads.VerifyMatrix(SimpleNamespace(sampling=sampling), ROOT, 5)
    argv, sizes = wl.prepare(0)
    argv[argv.index("--samples") + 1] = str(SAMPLES)
    code, text = workloads.call_cli(cli, argv)
    return code, json.loads(text), sizes


def test_matrix_report_accepted(matrix_round):
    code, doc, sizes = matrix_round
    assert code == 0
    assert checks.check_matrix_report(doc, SUITES, SAMPLES, sizes) == []


@pytest.mark.parametrize("axiom", ["∨3", "⊑1", "oml-orthomodular"])
def test_matrix_flipped_verdict_rejected(matrix_round, axiom):
    _, doc, sizes = matrix_round
    bad = copy.deepcopy(doc)
    report(bad, axiom)["verdict"] = "fail"
    assert checks.check_matrix_report(bad, SUITES, SAMPLES, sizes)


@pytest.mark.parametrize("axiom", ["∨3", "le/oplus", "oml-complement-antitone"])
def test_matrix_short_tuple_count_rejected(matrix_round, axiom):
    _, doc, sizes = matrix_round
    bad = copy.deepcopy(doc)
    report(bad, axiom)["stats"]["tuples"] -= 1
    assert checks.check_matrix_report(bad, SUITES, SAMPLES, sizes)


def test_matrix_missing_law_rejected(matrix_round):
    _, doc, sizes = matrix_round
    bad = copy.deepcopy(doc)
    bad["reports"] = [r for r in bad["reports"] if r["axiom"] != "∧2"]
    assert checks.check_matrix_report(bad, SUITES, SAMPLES, sizes)


def test_matrix_undecidable_entry_reported_as_pass_rejected(matrix_round):
    _, doc, sizes = matrix_round
    bad = copy.deepcopy(doc)
    report(bad, "∨5")["verdict"] = "pass"
    assert checks.check_matrix_report(bad, SUITES, SAMPLES, sizes)


# -- verify_finite ---------------------------------------------------------------


@pytest.fixture(scope="module")
def boolean2():
    doc = json.loads((ROOT / "fixtures/boolean2.json").read_text())
    code, rep = verify(str(ROOT / "fixtures/boolean2.json"), "all")
    return code, rep, len(doc["elements"])


def test_finite_report_accepted(boolean2):
    code, doc, size = boolean2
    assert code == 0
    assert checks.check_finite_report(doc, size, "boolean2", ("bck",)) == []


@pytest.mark.parametrize("axiom", ["⊥7", "skew-associative", "riesz≡distributive"])
def test_finite_flipped_verdict_rejected(boolean2, axiom):
    _, doc, size = boolean2
    bad = copy.deepcopy(doc)
    report(bad, axiom)["verdict"] = "fail"
    assert checks.check_finite_report(bad, size, "boolean2", ("bck",))


@pytest.mark.parametrize("axiom", ["∨3", "⊑1", "le/oplus"])
def test_finite_short_tuple_count_rejected(boolean2, axiom):
    _, doc, size = boolean2
    bad = copy.deepcopy(doc)
    report(bad, axiom)["stats"]["tuples"] -= 1
    assert checks.check_finite_report(bad, size, "boolean2", ("bck",))


@pytest.fixture(scope="module")
def o6():
    doc = json.loads((ROOT / "fixtures/o6.json").read_text())
    code, rep = verify(str(ROOT / "fixtures/o6.json"), "oml")
    return code, rep, checks.PosetOracle(doc)


def test_negative_control_accepted(o6):
    code, doc, oracle = o6
    assert code == 1
    assert checks.check_negative_control(doc, oracle) == []


def test_negative_control_flipped_verdict_rejected(o6):
    _, doc, oracle = o6
    bad = copy.deepcopy(doc)
    report(bad, "oml-orthomodular")["verdict"] = "pass"
    assert checks.check_negative_control(bad, oracle)


def test_negative_control_witness_that_holds_rejected(o6):
    _, doc, oracle = o6
    bad = copy.deepcopy(doc)
    report(bad, "oml-orthomodular")["witnesses"] = [["1", "0", "a"]]  # 0 ∨ (a ∧ 0') = a holds
    assert checks.check_negative_control(bad, oracle)


def test_boolean_cube_is_orthomodular_by_the_oracle():
    oracle = checks.PosetOracle(json.loads((ROOT / "fixtures/boolean2.json").read_text()))
    els = oracle.elements
    assert all(oracle.orthomodular_holds(p, x, y) for p in els for x in els for y in els)


# -- ops_dims ------------------------------------------------------------------------


def op(entries):
    return SimpleNamespace(entries=np.asarray(entries))


@pytest.fixture(scope="module")
def recipes():
    wl = workloads.OpsDims.__new__(workloads.OpsDims)
    rng = np.random.default_rng(7)
    return wl._recipes(rng, np.random.default_rng(wl.EQ_STREAM), 4)


def pick(recipes, kind, pred=lambda rec: True):
    return next(rec for k, rec in recipes if k == kind and pred(rec))


@pytest.mark.parametrize("scale", workloads.OpsDims.SCALES)
def test_ops_expected_answers_accepted(recipes, scale):
    correct = workloads.OpsDims._correct
    for kind, rec in recipes:
        if kind == "le":
            assert correct("le", kind, rec, scale, rec["le"], None)
        elif kind == "sub":
            for name in ("meet", "join", "skew", "bck"):
                want = rec["meet" if name == "skew" else name]
                assert correct(name, kind, rec, scale, op(scale * want), None)


@pytest.mark.parametrize("scale", workloads.OpsDims.SCALES)
def test_ops_zero_in_place_of_meet_rejected(recipes, scale):
    rec = pick(recipes, "sub", lambda r: np.linalg.norm(r["meet"]) > 0.5)
    assert not workloads.OpsDims._correct("meet", "sub", rec, scale, op(np.zeros((4, 4))), None)
    eq = pick(recipes, "eq")
    assert not workloads.OpsDims._correct("meet", "eq", eq, scale, op(np.zeros((4, 4))), None)


def test_ops_flipped_le_rejected(recipes):
    for want in (True, False):
        rec = pick(recipes, "le", lambda r: r["le"] is want)
        assert not workloads.OpsDims._correct("le", "le", rec, 1.0, not want, None)


def test_ops_rotated_laws_reject_wrong_answers(recipes):
    rec = pick(recipes, "rot", lambda r: np.linalg.norm(r["low"]) > 0.5)
    correct = workloads.OpsDims._correct
    # the common part is below both operands, not above them, so it is no join
    assert not correct("join", "rot", rec, 1.0, op(rec["low"]), op(rec["low"]))
    # O is below both operands but misses the known lower bound, so it is no meet
    assert not correct("meet", "rot", rec, 1.0, op(np.zeros((4, 4))), op(np.zeros((4, 4))))
    # a result that breaks homogeneity against the unit-scale answer
    assert not correct("meet", "rot", rec, 1e8, op(1e8 * rec["low"]), op(2 * rec["low"]))


def test_product_form_order():
    p = np.diag([1.0, 0.0, 0.0])
    b = np.diag([2.0, 3.0, 0.0])
    assert checks.precedes(b @ p, b, 3.0)
    assert not checks.precedes(np.diag([1.0, 1.0, 0.0]), b, 3.0)
