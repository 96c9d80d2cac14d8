import numpy as np
import pytest

from starorder import numerics, observables
from starorder.cli import main
from starorder.errors import DimMismatch, ParseError
from starorder.numerics import (
    DEFAULT_TOL,
    HermitianOperator,
    Projector,
    Tolerances,
    _fro,
    commutes,
    eigh,
    matrix_from_json,
    matrix_to_json,
    op_equal,
    proj_join,
    proj_meet,
    range_projector,
    rank_sensitive,
)
from starorder.observables import bck_subtract, join_bounded, meet, meet_bounded, skew_meet
from starorder.sampling import bounded_family

from conftest import diag, random_projector


# ---------------------------------------------------------------------------
# construction invariants


def test_constructor_symmetrizes_and_records_defect():
    a = HermitianOperator([[1.0, 2.0 + 1e-12j], [2.0 - 1e-12j, 3.0]])
    assert a.defect <= 1e-10 * np.linalg.norm(a.entries)
    assert np.array_equal(a.entries, a.entries.conj().T)


def test_constructor_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator([[0.0, 1.0], [-1.0, 0.0]])  # skew-symmetric


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_constructor_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        HermitianOperator([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        HermitianOperator([[1.0, complex(0.0, bad)], [complex(0.0, -bad), 1.0]])


def test_constructors_reject_integers_beyond_float_range():
    with pytest.raises(ValueError, match="float range"):
        HermitianOperator([[10**400, 0], [0, 1]])
    with pytest.raises(ValueError, match="float range"):
        HermitianOperator([[1, 0], [0, -(10**400)]])
    with pytest.raises(ValueError, match="float range"):
        HermitianOperator.diagonal([10**400, 1])


def test_constructor_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))


def test_operators_are_immutable():
    a = diag(1, 2)
    with pytest.raises(AttributeError):
        a.entries = np.zeros((2, 2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_projector_validation():
    Projector(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Projector(np.diag([0.5, 1.0]))
    with pytest.raises(ValueError):
        Projector(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues -1, 1


def test_tolerances_validation():
    for name in ("rank_rel_tol", "eq_abs_tol"):
        for bad in (-1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                Tolerances(**{name: bad})
    with pytest.raises(ValueError):
        Tolerances(max_dim=0)
    assert DEFAULT_TOL.rank_rel_tol == 1e-9
    assert DEFAULT_TOL.eq_abs_tol == 1e-8
    assert DEFAULT_TOL.max_dim == 64


# ---------------------------------------------------------------------------
# eigh


def test_eigh_zero_operator():
    w, v = eigh(HermitianOperator.zero(2))
    assert np.allclose(w, [0.0, 0.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


def test_eigh_identity():
    w, _ = eigh(HermitianOperator.identity(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_eigh_hand_decomposition():
    # [[1,1],[1,1]] has eigenpairs (0, (1,-1)/sqrt2) and (2, (1,1)/sqrt2)
    a = HermitianOperator([[1.0, 1.0], [1.0, 1.0]])
    w, v = eigh(a)
    assert np.allclose(w, [0.0, 2.0])
    for i in range(2):
        assert np.allclose(a.entries @ v[:, i], w[i] * v[:, i], atol=1e-12)
    assert abs(abs(v[:, 0] @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
    assert abs(abs(v[:, 1] @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12


def test_eigh_reconstruction_postcondition(rng):
    for _ in range(10):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = HermitianOperator((z + z.conj().T) / 2)
        w, v = eigh(a)
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - a.entries) <= 1e-9 * max(1, a.norm())
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) <= 1e-10 * 6


def test_eigh_is_computed_once_per_operator_and_read_only():
    a = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    w, v = eigh(a)
    w2, v2 = eigh(a)
    assert w2 is w and v2 is v
    with pytest.raises(ValueError):
        v[0, 0] = 0.0
    # an equal but distinct operator is a different key
    assert eigh(HermitianOperator(a.entries))[1] is not v


# ---------------------------------------------------------------------------
# range projections


def test_range_projector_examples():
    assert np.allclose(range_projector(diag(1, 2, 0)).entries, np.diag([1.0, 1.0, 0.0]))
    assert np.array_equal(range_projector(HermitianOperator.zero(2)).entries, np.zeros((2, 2)))
    p = range_projector(HermitianOperator([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(p.entries, np.full((2, 2), 0.5))


def test_range_projector_absorbs_operator(rng):
    for _ in range(20):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = HermitianOperator((z + z.conj().T) / 2)
        p = range_projector(a)
        assert np.linalg.norm(p.entries @ p.entries - p.entries) <= 1e-9 * 5
        assert np.linalg.norm(a.entries @ p.entries - a.entries) <= 1e-8 * a.norm()
        assert np.linalg.norm(p.entries @ a.entries - a.entries) <= 1e-8 * a.norm()


@pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
def test_range_projector_scale_invariant(rng, c):
    for _ in range(5):
        z = rng.standard_normal((4, 4))
        a = HermitianOperator((z + z.T) / 2 @ np.diag([1, 1, 1, 0]) @ (z + z.T) / 2)
        p1 = range_projector(a)
        p2 = range_projector(a.scaled(c))
        assert np.linalg.norm(p1.entries - p2.entries) <= 1e-9


def test_range_projector_computes_once_per_operator(monkeypatch):
    calls = []

    def counting_eigh(a):
        calls.append(a)
        return eigh(a)

    monkeypatch.setattr(numerics, "eigh", counting_eigh)
    a = HermitianOperator([[2.0, 1.0], [1.0, 2.0]])
    p = range_projector(a)
    assert range_projector(a) is p
    assert range_projector(a, DEFAULT_TOL) is p
    assert calls == [a]
    # an equal but distinct operator is a different key
    assert range_projector(HermitianOperator(a.entries)) is not p
    assert len(calls) == 2


def test_range_projector_cache_is_bounded(rng):
    info = numerics._range_projector.cache_info()
    assert info.maxsize == 16
    assert numerics._spectrum.cache_info().maxsize == 16
    for _ in range(40):
        a = HermitianOperator.diagonal(rng.standard_normal(3))
        range_projector(a)
    assert numerics._range_projector.cache_info().currsize <= 16
    assert numerics._spectrum.cache_info().currsize <= 16


@pytest.mark.parametrize("n", [1, 4, 64])
def test_fro_matches_numpy_norm_bit_for_bit(rng, n):
    for scale in (1e-9, 1.0, 1e8):
        real = scale * rng.standard_normal((n, n))
        cplx = real + 1j * scale * rng.standard_normal((n, n))
        for m in (real, cplx):
            for x in (m, np.asfortranarray(m), m.T, m.conj().T, m[:, ::2]):
                assert _fro(x) == float(np.linalg.norm(x))


def test_verify_report_does_not_depend_on_the_caches(tmp_path, monkeypatch):
    argv = ["verify", "matrix", "nearsemilattice", "skew", "goa",
            "--dim", "4", "--samples", "40", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "cached.json")]) == 0
    monkeypatch.setattr(numerics, "_range_projector", numerics._range_projector.__wrapped__)
    monkeypatch.setattr(numerics, "_spectrum", numerics._spectrum.__wrapped__)
    assert main(argv + ["--out", str(tmp_path / "uncached.json")]) == 0
    assert (tmp_path / "cached.json").read_bytes() == (tmp_path / "uncached.json").read_bytes()


# ---------------------------------------------------------------------------
# results built inside the package skip the constructor checks


def internal_results(rng, dim, scale):
    """(operators, projectors): every kind of result the package builds
    unchecked, from one bounded pair A, B below C and their range projections."""
    c, (a, b) = bounded_family(rng, dim, 2)
    c, a, b = (x.scaled(scale) for x in (c, a, b))
    p, q = range_projector(a), range_projector(b)
    ops = {
        "meet": meet(a, b),
        "skew_meet": skew_meet(a, b),
        "bck_subtract": bck_subtract(b, a),
        "join_bounded": join_bounded([a, b], c),
        "meet_bounded": meet_bounded([a, b], c),
    }
    projs = {
        "range_projector": p,
        "proj_meet": proj_meet(p, q),
        "proj_join": proj_join(p, q),
        "complement": p.complement(),
    }
    return ops, projs


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
@pytest.mark.parametrize("dim", [4, 16, 64])
def test_internal_results_would_pass_the_public_checks(rng, dim, scale):
    for _ in range(3):
        ops, projs = internal_results(rng, dim, scale)
        for name, x in {**ops, **projs}.items():
            # exactly self-adjoint: the checked constructor changes no bit
            assert np.array_equal(HermitianOperator(x.entries).entries, x.entries), name
            assert x.defect == 0.0, name
            assert not x.entries.flags.writeable, name
        for name, x in projs.items():
            Projector(x.entries)  # idempotent, spectrum in {0, 1}


# ---------------------------------------------------------------------------
# projector lattice


def line_projector(*vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return Projector(np.outer(v, v.conj()))


def test_proj_meet_examples():
    assert np.allclose(
        proj_meet(Projector(np.diag([1.0, 1, 0])), Projector(np.diag([0.0, 1, 1]))).entries,
        np.diag([0.0, 1.0, 0.0]),
    )
    p = line_projector(1, 0, 0)
    assert np.allclose(proj_meet(p, Projector(np.eye(3))).entries, p.entries)
    met = proj_meet(line_projector(1, 0), line_projector(1, 1))
    assert np.linalg.norm(met.entries) <= 1e-9


def test_proj_join_examples():
    assert np.allclose(
        proj_join(Projector(np.diag([1.0, 0, 0])), Projector(np.diag([0.0, 1, 0]))).entries,
        np.diag([1.0, 1.0, 0.0]),
    )
    p = line_projector(0, 1, 0)
    assert np.allclose(proj_join(p, Projector(np.zeros((3, 3)))).entries, p.entries)
    assert np.allclose(proj_join(line_projector(1, 0), line_projector(1, 1)).entries, np.eye(2))


def _proj_le(p, q):
    return np.linalg.norm(p.entries @ q.entries - p.entries) <= 1e-8


def test_proj_lattice_algebra(rng):
    for _ in range(15):
        p, q, r = (random_projector(rng, 5) for _ in range(3))
        assert op_equal(proj_meet(p, q), proj_meet(q, p))
        assert op_equal(proj_join(p, q), proj_join(q, p))
        assert op_equal(proj_meet(p, p), p)
        assert op_equal(proj_join(p, p), p)
        assert op_equal(proj_meet(proj_meet(p, q), r), proj_meet(p, proj_meet(q, r)))
        assert op_equal(proj_join(proj_join(p, q), r), proj_join(p, proj_join(q, r)))
        assert op_equal(proj_meet(p, proj_join(p, q)), p)
        assert op_equal(proj_join(p, proj_meet(p, q)), p)


def test_proj_meet_join_extremality(rng):
    # constructed overlap: P spans cols 0..2, Q spans cols 2..4 of a common
    # unitary, so their meet is col 2 and their join is cols 0..4
    for _ in range(10):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, _ = np.linalg.qr(z)
        p = Projector(u[:, 0:3] @ u[:, 0:3].conj().T)
        q = Projector(u[:, 2:5] @ u[:, 2:5].conj().T)
        met = proj_meet(p, q)
        jon = proj_join(p, q)
        expected_meet = Projector(u[:, 2:3] @ u[:, 2:3].conj().T)
        expected_join = Projector(u[:, 0:5] @ u[:, 0:5].conj().T)
        assert op_equal(met, expected_meet)
        assert op_equal(jon, expected_join)
        assert _proj_le(met, p) and _proj_le(met, q)
        assert _proj_le(p, jon) and _proj_le(q, jon)
        for _ in range(20):
            # lower bounds live inside the known intersection
            keep = rng.random() < 0.5
            r = expected_meet if keep else Projector(np.zeros((6, 6)))
            assert _proj_le(r, met)


# ---------------------------------------------------------------------------
# equality and commutation


def test_op_equal_examples():
    a = diag(1, 0)
    assert op_equal(a, a)
    assert not op_equal(diag(1, 0), diag(0, 1))
    assert op_equal(a, a + HermitianOperator.identity(2).scaled(1e-12))
    with pytest.raises(DimMismatch):
        op_equal(a, diag(1, 0, 0))


# Frobenius norms of such operands overflow to inf; equality must still
# compare them, not accept every pair whose difference norm overflows
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_op_equal_when_norms_overflow():
    assert not op_equal(diag(1e200, 0), diag(0, 1e200))
    assert not observables.logical_le(diag(1e200, 0), diag(-1e200, 0))
    assert op_equal(diag(1e200, -1e200), diag(1e200, -1e200))
    assert op_equal(diag(1e200, 3e200), diag(1e200, 3e200 * (1 + 1e-12)))
    assert observables.logical_le(diag(1e200, 0), diag(1e200, 5e300))
    # the difference norm is finite but the operand norms overflow
    assert not op_equal(diag(1e155, 0), diag(1e155, 1e150))
    assert op_equal(diag(1e155, 0), diag(1e155, 1e140))


def test_commutes_examples():
    assert commutes(diag(1, 2), diag(3, 4))
    b = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])
    a = diag(1, 2)
    # commutator oracle: AB - BA = [[0, -1], [1, 0]]
    comm = a.entries @ b.entries - b.entries @ a.entries
    assert np.allclose(comm, [[0, -1], [1, 0]])
    assert not commutes(a, b)
    assert commutes(a, HermitianOperator.identity(2))


# ---------------------------------------------------------------------------
# tolerance sensitivity and wire format


def test_rank_sensitive_flags_straddling_eigenvalue():
    a = diag(1.0, 1e-9, 0.0)  # eigenvalue right at the default cutoff region
    assert rank_sensitive([a])
    assert not rank_sensitive([diag(1, 2, 3)])


def test_matrix_json_round_trip(rng):
    a = HermitianOperator([[1.0, 1j], [-1j, 2.0]])
    doc = matrix_to_json(a)
    b = matrix_from_json(doc)
    assert op_equal(a, b)
    # real shorthand
    c = matrix_from_json({"dim": 2, "entries": [[1, 0], [0, 2]]})
    assert op_equal(c, diag(1, 2))


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": []},
        {"entries": [[1, 2]]},
        {"dim": 3, "entries": [[1, 0], [0, 1]]},
        {"entries": [[1, "x"], ["x", 1]]},
        {"entries": [[0, 1], [-1, 0]]},  # not self-adjoint
        {"entries": [[True, 0], [0, 1]]},  # JSON booleans are not numbers
        {"entries": [[[1, False], 0], [0, 1]]},
        "nonsense",
    ],
)
def test_matrix_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        matrix_from_json(doc)
