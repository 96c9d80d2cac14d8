import collections
import dataclasses
import hashlib
import json
import pathlib
import warnings

import pytest

from starorder import models
from starorder.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mats(tmp_path):
    return {
        "a": write(tmp_path, "a.json", {"dim": 3, "entries": [[1, 0, 0], [0, 2, 0], [0, 0, 0]]}),
        "b": write(tmp_path, "b.json", {"dim": 3, "entries": [[1, 0, 0], [0, 5, 0], [0, 0, 7]]}),
        "zero": write(tmp_path, "zero.json", {"dim": 3, "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}),
        "ones": write(tmp_path, "ones.json", {"dim": 2, "entries": [[1, 0], [0, 1]]}),
        "e2": write(tmp_path, "e2.json", {"dim": 2, "entries": [[0, 0], [0, 2]]}),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_meet_example(capsys, mats):
    code, out, _ = run(capsys, "compute", "meet", mats["a"], mats["b"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["entries"] == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert doc["verification"]["lower_bound_of_first"] is True
    assert doc["verification"]["lower_bound_of_second"] is True
    assert doc["verification"]["tolerance_sensitive"] is False


def test_compute_osum_undefined_is_exit_2(capsys, mats):
    code, _, err = run(capsys, "compute", "osum", mats["ones"], mats["e2"])
    assert code == 2
    assert "NotOrthogonal" in err


def test_compute_bck_zero_identity(capsys, mats):
    code, out, _ = run(capsys, "compute", "bck", mats["b"], mats["zero"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["entries"] == [[1.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 7.0]]


@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_compute_non_finite_entry_is_exit_1(capsys, tmp_path, mats, bad):
    # Python's JSON reader accepts these literals; the matrix boundary must not
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[1, 0], [0, %s]]}' % bad)
    code, out, err = run(capsys, "compute", "le", str(path), mats["ones"])
    assert code == 1 and out == ""
    assert "finite" in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "op, second, flag, value",
    [
        ("le", "a", "--eq-tol", "nan"),  # A <= A was printed false
        ("le", "e1", "--eq-tol", "inf"),  # diag(1, 0) <= diag(0, 1) was printed true
        ("meet", "e1", "--rank-tol", "nan"),  # a meet of diag(0, 1) was printed, not O
        ("le", "a", "--rank-tol", "inf"),
        ("le", "a", "--eq-tol", "-inf"),
    ],
)
def test_compute_non_finite_tolerance_is_exit_1(capsys, tmp_path, op, second, flag, value):
    paths = {
        "a": write(tmp_path, "a.json", {"dim": 2, "entries": [[1, 0], [0, 0]]}),
        "e1": write(tmp_path, "e1.json", {"dim": 2, "entries": [[0, 0], [0, 1]]}),
    }
    code, out, err = run(capsys, "compute", op, paths["a"], paths[second], f"{flag}={value}")
    assert code == 1 and out == ""
    assert "finite" in err


def test_compute_le_where_norms_overflow(capsys, tmp_path):
    a = write(tmp_path, "big_a.json", {"dim": 2, "entries": [[1e200, 0], [0, 0]]})
    b = write(tmp_path, "big_b.json", {"dim": 2, "entries": [[-1e200, 0], [0, 0]]})
    code, out, _ = run(capsys, "compute", "le", a, b)
    assert code == 0
    assert json.loads(out)["result"] == {"value": False}


def test_compute_perp_and_osum_where_products_overflow(capsys, tmp_path):
    # an orthogonal pair whose product AB = O overflows to nan entry by entry
    a = write(tmp_path, "big_a.json", {"dim": 2, "entries": [[1e200, 1e200], [1e200, 1e200]]})
    b = write(tmp_path, "big_b.json", {"dim": 2, "entries": [[1e200, -1e200], [-1e200, 1e200]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would fail the command
        code, out, err = run(capsys, "compute", "perp", a, b)
        assert code == 0 and err == ""
        assert json.loads(out)["result"] == {"value": True}
        code, out, err = run(capsys, "compute", "osum", a, b)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["result"]["entries"] == [[2e200, 0.0], [0.0, 2e200]]
    assert doc["verification"]["summands_precede_result"] == [True, True]


def test_compute_join_takes_family_then_witness(capsys, tmp_path):
    a = write(tmp_path, "ja.json", {"entries": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})
    b = write(tmp_path, "jb.json", {"entries": [[0, 0, 0], [0, 2, 0], [0, 0, 0]]})
    c = write(tmp_path, "jc.json", {"entries": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    code, out, _ = run(capsys, "compute", "join", a, b, c)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["entries"] == [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
    assert doc["verification"]["result_precedes_witness"] is True


def test_compute_join_not_upper_bound_is_exit_2(capsys, tmp_path):
    a = write(tmp_path, "na.json", {"entries": [[1, 0], [0, 0]]})
    c = write(tmp_path, "nc.json", {"entries": [[2, 0], [0, 2]]})
    code, _, err = run(capsys, "compute", "join", a, c)
    assert code == 2
    assert "NotUpperBound" in err


def test_compute_parse_error_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "compute", "le", str(bad), str(bad))
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "compute", "le", str(tmp_path / "missing.json"), str(bad))
    assert code == 1


def test_compute_boolean_entries_are_exit_1(capsys, tmp_path, mats):
    bad = write(tmp_path, "bool.json", {"dim": 2, "entries": [[True, 0], [0, False]]})
    code, out, err = run(capsys, "compute", "le", bad, mats["ones"])
    assert code == 1 and out == ""
    assert "ParseError" in err


def test_compute_dim_mismatch_is_exit_1(capsys, mats):
    code, _, err = run(capsys, "compute", "le", mats["a"], mats["ones"])
    assert code == 1
    assert "DimMismatch" in err


def test_compute_boolean_and_model_ops(capsys, tmp_path, mats):
    code, out, _ = run(capsys, "compute", "le", mats["a"], mats["b"])
    assert code == 0 and json.loads(out)["result"]["value"] is False

    f = write(tmp_path, "f.json", {"values": [1, 2, 0]})
    g = write(tmp_path, "g.json", {"values": [1, 5, 7]})
    code, out, _ = run(capsys, "compute", "rv-meet", f, g)
    assert code == 0 and json.loads(out)["result"]["values"] == [1, 0, 0]

    phi = write(tmp_path, "phi.json", {"universe": [1, 2], "map": {"1": "a"}})
    psi = write(tmp_path, "psi.json", {"universe": [1, 2], "map": {"1": "b", "2": "c"}})
    code, _, err = run(capsys, "compute", "pf-union", phi, psi)
    assert code == 2 and "Conflict" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"universe": [0, 1], "map": {"0": [1, 2]}},  # a list value
        {"universe": [0, 1], "map": {"0": {"a": 1}}},  # an object value
        {"universe": [[0], 1], "map": {}},  # a list label
    ],
)
def test_compute_unhashable_partial_function_is_exit_1(capsys, tmp_path, doc):
    phi = write(tmp_path, "phi.json", doc)
    psi = write(tmp_path, "psi.json", {"universe": [0, 1], "map": {}})
    code, out, err = run(capsys, "compute", "pf-union", phi, psi)
    assert code == 1 and out == ""
    assert "ParseError" in err


@pytest.mark.parametrize(
    "op, doc",
    [
        ("rv-le", {"values": [10**400, 0]}),
        ("le", {"dim": 2, "entries": [[10**400, 0], [0, 1]]}),
        ("le", {"dim": 2, "entries": [[1, [0, -(10**400)]], [[0, 10**400], 1]]}),
    ],
)
def test_compute_integer_beyond_float_range_is_exit_1(capsys, tmp_path, op, doc):
    big = write(tmp_path, "big.json", doc)
    other = write(tmp_path, "other.json", {"values": [1, 2]} if op == "rv-le" else {"dim": 2, "entries": [[1, 0], [0, 1]]})
    code, out, err = run(capsys, "compute", op, big, other)
    assert code == 1 and out == ""
    assert "ParseError" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_rv_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "rv", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] > 40


def test_verify_o6_qom_fails_with_witness(capsys):
    code, out, _ = run(capsys, "verify", str(FIXTURES / "o6.json"), "qom")
    assert code == 1
    doc = json.loads(out)
    p6 = [e for e in doc["reports"] if e["axiom"] == "⊥6"][0]
    assert p6["verdict"] == "fail"
    assert p6["witnesses"]


def test_verify_matrix_goa_seeded(capsys):
    code, out, _ = run(capsys, "verify", "matrix", "goa", "--dim", "3", "--samples", "60", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    assert doc["summary"]["fail"] == 0
    assert all(e["stats"]["mode"] == "sampled" for e in doc["reports"])


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    argv = ["verify", "matrix", "qom", "--dim", "3", "--samples", "40", "--seed", "7"]
    code1 = main(argv + ["--out", str(tmp_path / "r1.json")])
    code2 = main(argv + ["--out", str(tmp_path / "r2.json")])
    assert code1 == code2 == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


# SHA-256 of the report bytes. The first three were recorded before the meet
# and the skew meet moved to the eigenvalue-cluster formula, the next two
# before internal results skipped the constructor checks, the sixth before the
# segments [0, p] became indexed carriers, the last two (the only ones above
# dim 6, to guard batched LAPACK against looped LAPACK) before the sampler
# drew its tuples first and batched their linear algebra. The two finite
# models are exact; the matrix report also rests on the floating point of numpy's LAPACK, so a
# mismatch on another build calls for reading the report, not a new digest.
PINNED_REPORTS = [
    (["rv", "all", "--seed", "7"], "4e059c5f1915cc9a614a998e2a1b88dd76d68bacabb88be51d1a68340234d9bd"),
    (["pf", "all", "--seed", "7"], "1c1b512a404d7ef5333d00952b366465de3e373407d44ae06eae7c6b9f68ea93"),
    (
        ["matrix", "nearsemilattice", "skew", "goa", "--dim", "4", "--samples", "40", "--seed", "7"],
        "de79bf59f6366e0c32de9067b94dbf0180cb3275a8915961c517e16a6a750225",
    ),
    (
        ["matrix", "ortho", "qom", "riesz", "oml", "--dim", "4", "--samples", "40", "--seed", "7"],
        "ac96ff0c1c54c0b9aa1a4f21d277db6c5ef4871fdd413d6fcbd81310f718b135",
    ),
    (
        ["matrix", "bck", "--dim", "4", "--samples", "40", "--seed", "7"],
        "00fc57ba376f118bb3f110ad3d8d9422982ed223aa7730cff49af49853c1eb87",
    ),
    (
        # segments of up to 64 members
        ["matrix", "oml", "--dim", "6", "--oml-tops", "8", "--samples", "5", "--seed", "11"],
        "472a0973b3ec4856c4a57868bc9e2bedf8789a439ddce22b0406804d43e690ac",
    ),
    (
        ["matrix", "bck", "--dim", "8", "--samples", "60", "--seed", "3"],
        "6c8893c72860865d2421eecd128a6c9bae3720baef11243f66d0ec4a1fbab73b",
    ),
    (
        ["matrix", "nearsemilattice", "skew", "goa", "--dim", "16", "--samples", "30", "--seed", "11"],
        "cfa47e79f478e33dfaebc679d441afcf73c84a6e7f92c9613b2e82badc7c97a6",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS)
def test_verify_report_matches_pinned_digest(tmp_path, argv, digest):
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Exhaustive reports on the poset fixtures, with their exit codes. The report
# embeds the target as given, so these run from the repository root with the
# relative path. Digests recorded, with the method above, before the finite
# carriers were indexed (boolean4, o6, mo2) or before the segments became
# indexed carriers (the rest).
PINNED_FIXTURE_REPORTS = [
    ("boolean2", 0, "1c87b3370a6281881eab9962b9945d4c79db23e75548f590e562c4ff0a9a505e"),
    ("boolean3", 0, "bc46bdf149fff5940b6a2e63b80245d6e000d89235ea47a8d1d63ae2e9d8d013"),
    ("boolean4", 0, "b4b9ee71b0d641d73e65cffec50908a3cc6e9ccccdeefd2d30fc28b1cc9068fd"),
    ("o6", 1, "b3a25cfc4381688db7ec4b4e451899773d08ac34c8904ceb48a35f280da5867e"),
    ("mo2", 1, "e59098d55f2546aa4f1ce862df1930b7cac92892c82854d36fdb58d2b9fd10ed"),
    ("bowtie", 1, "09dcd4b621f5aaaffcd303462119dfbb9957fde3a8f6747f456c584140b35c8e"),
    ("v", 0, "6c9ce365ced1c7432500ba981df98402487f72fa43a10f77d532c7d913933eea"),
]


@pytest.mark.parametrize("fixture, code, digest", PINNED_FIXTURE_REPORTS)
def test_verify_fixture_report_matches_pinned_digest(tmp_path, monkeypatch, fixture, code, digest):
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "report.json"
    assert main(["verify", f"fixtures/{fixture}.json", "all", "--seed", "7", "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOL_SEED", "99")
    code, out, _ = run(capsys, "verify", "matrix", "ortho", "--dim", "3", "--samples", "20")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "rv", "qom", "--format", "table")
    assert code == 0
    assert "⊥6" in out and "summary" in out


def test_verify_table_lists_witnesses_of_failing_laws(capsys):
    code, out, _ = run(capsys, "verify", str(FIXTURES / "o6.json"), "qom", "--format", "table")
    assert code == 1
    lines = out.splitlines()
    law = next(i for i, line in enumerate(lines) if line.startswith("⊥6 "))
    assert "FAIL" in lines[law] and lines[law + 1].strip().startswith("witness: ")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_nonpositive_samples_is_exit_1(capsys, samples):
    code, out, err = run(capsys, "verify", "matrix", "nearsemilattice", "--samples", samples)
    assert code == 1 and out == ""
    assert "--samples" in err


@pytest.mark.parametrize("tops", ["0", "-2"])
def test_verify_nonpositive_oml_tops_is_exit_1(capsys, tops):
    code, out, err = run(capsys, "verify", "matrix", "oml", "--oml-tops", tops, "--samples", "2")
    assert code == 1 and out == ""
    assert "--oml-tops" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--samples", "40", "--seed", "3200111"],
        ["--samples", "40", "--seed", "6053"],
        ["--dim", "6", "--samples", "100", "--seed", "1"],
    ],
)
def test_verify_bck_law_2_holds_on_small_eigenvalue_tuples(capsys, argv):
    # tuples with an eigenvalue near 0 beside one near 2.4: the nested
    # difference x - (x - y) once lost an invariant direction in the meet
    code, out, _ = run(capsys, "verify", "matrix", "bck", *argv)
    assert code == 0
    law = [e for e in json.loads(out)["reports"] if e["axiom"] == "−2"][0]
    assert law["verdict"] == "pass" and law["stats"]["failures"] == 0


# Seed-dependent failures of sampled laws. Each comes from an absolute zero
# or equality threshold (see ROADMAP item 1); a fix turns them into passes.
@pytest.mark.parametrize(
    "suite, seed",
    [
        pytest.param("goa", "40501226", marks=pytest.mark.xfail(
            strict=True, reason="⊕5: x of norm ~5e-5 is orthogonal to itself under the absolute eq_abs_tol, but not O")),
        pytest.param("goa", "90202720", marks=pytest.mark.xfail(
            strict=True, reason="oplus/vee: ‖xy‖ = 2.7e-9 makes x ⊥ y, but x + y is not the join (off by 5.2e-5)")),
        pytest.param("nearsemilattice", "200075", marks=pytest.mark.xfail(
            strict=True, reason="∧2: x, y share the eigenvalue 7.5e-5; ‖m − y·P_m‖ = 4.6e-8 > eq_abs_tol, so m ∨ y is undefined")),
    ],
)
def test_verify_matrix_seeds_that_fail_on_absolute_thresholds(capsys, suite, seed):
    code, _, _ = run(capsys, "verify", "matrix", suite, "--dim", "4", "--samples", "40", "--seed", seed)
    assert code == 0


@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["matrix", "ortho", "--dim", "0"], None, "--dim"),
        (["rv", "ortho", "--dim", "-2"], None, "--dim"),
        (["matrix", "ortho", "--samples", "2", "--seed", "-1"], None, "--seed"),
        (["rv", "ortho", "--seed", "-1"], None, "--seed"),
        (["rv", "ortho"], "abc", "LOL_SEED"),
        (["rv", "ortho"], "-3", "LOL_SEED"),
        (["matrix", "ortho", "--samples", "2"], "1.5", "LOL_SEED"),
    ],
)
def test_verify_bad_dim_or_seed_is_exit_1(capsys, monkeypatch, argv, env, named):
    if env is not None:
        monkeypatch.setenv("LOL_SEED", env)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert "ParseError" in err and named in err


def test_verify_fills_each_hook_table_once(capsys, monkeypatch):
    # one `verify` run indexes the carrier once: every suite reads the same tables
    plain = models.rv_structure()
    n = len(plain.elements)
    calls = collections.Counter()

    def counted(name, hook):
        def wrapper(*args):
            calls[name] += 1
            return hook(*args)

        return wrapper

    binary = ("eq", "le", "join", "perp", "meet", "skew", "subtract", "osum", "overridden", "complement_in")
    hooks = {name: counted(name, getattr(plain, name)) for name in binary if getattr(plain, name) is not None}
    monkeypatch.setattr(models, "rv_structure", lambda: dataclasses.replace(plain, **hooks))
    code, out, _ = run(capsys, "verify", "rv", "all")
    assert code == 0 and json.loads(out)["summary"]["fail"] == 0
    assert {"eq", "le", "join", "perp"} <= set(calls)
    assert all(count <= n * n for count in calls.values()), calls


def test_verify_unknown_model_is_exit_1(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.json", "qom")
    assert code == 1


# ---------------------------------------------------------------------------
# poset validate


def test_poset_validate_fixture(capsys):
    code, out, _ = run(capsys, "poset", "validate", str(FIXTURES / "o6.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["has_upper_bound_property"] is True


def test_poset_validate_reports_ubp_failure(capsys):
    code, out, _ = run(capsys, "poset", "validate", str(FIXTURES / "bowtie.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["has_upper_bound_property"] is False
    assert set(doc["ubp_witness"]) == {"a", "b"}


def test_poset_validate_invalid_is_exit_1(capsys, tmp_path):
    bad = write(
        tmp_path,
        "bad.json",
        {"elements": ["0", "a"], "le": [["0", "a"], ["a", "0"]], "zero": "0"},
    )
    code, _, err = run(capsys, "poset", "validate", bad)
    assert code == 1
    assert "antisymmetry" in err
