import itertools

import numpy as np
import pytest

from starorder.errors import DimMismatch, NotLess, NotOrthogonal, NotUpperBound, StarOrderError
from starorder.numerics import HermitianOperator, commutes, eigh, op_equal, proj_join, proj_meet, range_projector
from starorder.observables import (
    _try_join,
    bck_subtract,
    join_bounded,
    logical_le,
    meet,
    meet_bounded,
    orthogonal,
    osum,
    overridden,
    segment_complement,
    skew_meet,
)
from starorder.sampling import (
    _EIGENVALUE_POOL,
    bounded_family,
    random_commuting_projector,
    random_hermitian,
    random_spectrum_hermitian,
    random_unitary,
)

from conftest import commuting_projector_family, diag, diag_glb_oracle, random_projector

O2 = HermitianOperator.zero(2)
FLIP = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# the order itself


def test_logical_le_examples():
    assert logical_le(HermitianOperator.zero(3), diag(1, 5, 7))
    assert logical_le(diag(1, 0), diag(1, 2))
    assert not logical_le(diag(2, 0), diag(1, 2))
    with pytest.raises(DimMismatch):
        logical_le(diag(1, 0), diag(1, 0, 0))


def test_orthogonal_examples():
    assert orthogonal(diag(1, 1), O2)
    assert orthogonal(diag(1, 0), diag(0, 2))
    assert not orthogonal(diag(1, 1), diag(0, 2))
    # symmetry on a non-commuting-looking pair
    a, b = diag(1, 0), HermitianOperator([[0.0, 0.0], [0.0, 3.0]])
    assert orthogonal(a, b) == orthogonal(b, a)


def test_order_is_partial_order_on_samples(rng):
    ops = []
    for _ in range(6):
        _, members = bounded_family(rng, 4, 2)
        ops.extend(members)
    for a in ops:
        assert logical_le(a, a)
    for a in ops:
        for b in ops:
            if logical_le(a, b) and logical_le(b, a):
                assert op_equal(a, b)


def test_order_transitive_on_chains(rng):
    # chains C P <= C (P v Q) <= C built inside one commuting family
    from starorder.numerics import symmetrized

    for _ in range(10):
        c, (a, _) = bounded_family(rng, 4, 2, disjoint=True)
        pa = range_projector(a)
        q = random_commuting_projector(rng, c)
        mid = symmetrized(c.entries @ proj_join(pa, q).entries)
        assert logical_le(a, mid) and logical_le(mid, c)
        assert logical_le(a, c)


def test_le_implies_projector_order(rng):
    for _ in range(10):
        _, (a, b) = bounded_family(rng, 4, 2)
        ab = osum(a, b) if orthogonal(a, b) else None
        if ab is not None:
            pa, pab = range_projector(a), range_projector(ab)
            assert np.linalg.norm(pa.entries @ pab.entries - pa.entries) <= 1e-8


def test_on_projectors_order_coincides_with_projector_order(rng):
    for _ in range(20):
        p, q = random_projector(rng, 4), random_projector(rng, 4)
        proj_le = np.linalg.norm(p.entries @ q.entries - p.entries) <= 1e-8
        assert logical_le(p, q) == proj_le


# ---------------------------------------------------------------------------
# orthogonal sum


def test_osum_examples():
    s = osum(diag(1, 0, 0), diag(0, 2, 0))
    assert op_equal(s, diag(1, 2, 0))
    assert logical_le(diag(1, 0, 0), s) and logical_le(diag(0, 2, 0), s)
    a = diag(3, 1)
    assert op_equal(osum(a, O2), a)
    with pytest.raises(NotOrthogonal):
        osum(diag(1, 1), diag(0, 2))


# ---------------------------------------------------------------------------
# meets


def test_meet_diagonal_example_with_oracle():
    result = meet(diag(1, 2, 0), diag(1, 5, 7))
    oracle = diag_glb_oracle((1, 2, 0), (1, 5, 7))
    assert oracle == (1, 0, 0)
    assert np.array_equal(result.entries, np.diag(np.asarray(oracle, dtype=float)).astype(complex))


def test_meet_idempotent(rng):
    for _ in range(5):
        a = random_spectrum_hermitian(rng, 4)
        assert op_equal(meet(a, a), a)


def test_meet_noncommuting_example():
    # ker(A - B) is trivial, so the meet is O; oracle: none of B's four
    # commuting projectors has range inside ran A except O
    a, b = diag(1, 0), FLIP
    result = meet(a, b)
    assert np.linalg.norm(result.entries) <= 1e-9
    pa = range_projector(a)
    lower_bounds = []
    for p in commuting_projector_family(b):
        cand = HermitianOperator((b.entries @ p.entries + p.entries @ b.entries) / 2)
        if logical_le(cand, a) and logical_le(cand, b):
            lower_bounds.append(cand)
    assert all(np.linalg.norm(c.entries) <= 1e-9 for c in lower_bounds)


def test_meet_shared_block_oracle(rng):
    # A and B agree on a shared invariant block and differ elsewhere, so the
    # meet is exactly the shared block
    for _ in range(10):
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        v, _ = np.linalg.qr(z)
        shared = np.array([2.0, -1.0])
        mu_a = np.array([3.0, 4.0, 5.0])
        mu_b = np.array([-3.0, 1.0, 7.0])
        a = HermitianOperator((v * np.concatenate([shared, mu_a])) @ v.conj().T)
        b = HermitianOperator((v * np.concatenate([shared, mu_b])) @ v.conj().T)
        expected = HermitianOperator((v * np.concatenate([shared, [0, 0, 0]])) @ v.conj().T)
        m = meet(a, b)
        assert op_equal(m, expected)
        assert logical_le(m, a) and logical_le(m, b)


def test_meet_is_greatest_lower_bound_sampled(rng):
    for _ in range(10):
        a = random_spectrum_hermitian(rng, 4)
        b = random_spectrum_hermitian(rng, 4)
        m = meet(a, b)
        assert logical_le(m, a) and logical_le(m, b)
        for _ in range(10):
            r = random_commuting_projector(rng, m)
            from starorder.numerics import symmetrized

            d = symmetrized(m.entries @ r.entries)
            assert logical_le(d, m)


# ---------------------------------------------------------------------------
# bounded joins and meets


def test_join_bounded_examples():
    fam = [diag(1, 0, 0), diag(0, 2, 0)]
    c = diag(1, 2, 3)
    j = join_bounded(fam, c)
    assert np.array_equal(j.entries, np.diag([1.0, 2.0, 0.0]).astype(complex))
    a = diag(2, 2)
    assert op_equal(join_bounded([a], a), a)
    with pytest.raises(NotUpperBound) as err:
        join_bounded([diag(1, 0), diag(2, 0)], diag(2, 2))
    assert err.value.index == 0


def test_meet_bounded_examples():
    fam = [diag(1, 2, 0), diag(1, 0, 0)]
    m = meet_bounded(fam, diag(1, 2, 3))
    assert np.array_equal(m.entries, np.diag([1.0, 0.0, 0.0]).astype(complex))
    a = diag(1, 1)
    assert op_equal(meet_bounded([a], HermitianOperator.identity(2)), a)


def test_meet_bounded_agrees_with_total_meet(rng):
    for _ in range(10):
        c, (a, b) = bounded_family(rng, 5, 2)
        assert op_equal(meet_bounded([a, b], c), meet(a, b))


def test_join_empty_family_rejected():
    with pytest.raises(ValueError):
        join_bounded([], diag(1))


def test_hm_equation(rng):
    # range projection of the bounded join is the projector join
    for _ in range(10):
        c, (a, b) = bounded_family(rng, 4, 2)
        j = join_bounded([a, b], c)
        lhs = range_projector(j)
        rhs = proj_join(range_projector(a), range_projector(b))
        assert op_equal(lhs, rhs)
        m = meet(a, b)
        pm = range_projector(m)
        pmeet = proj_meet(range_projector(a), range_projector(b))
        assert np.linalg.norm(pm.entries @ pmeet.entries - pm.entries) <= 1e-8


def test_projector_sublattice(rng):
    # meets and joins of projectors computed at the operator level coincide
    # with the projector-lattice operations
    eye = HermitianOperator.identity(4)
    for _ in range(20):
        p, q = random_projector(rng, 4), random_projector(rng, 4)
        assert op_equal(meet(p, q), proj_meet(p, q))
        assert op_equal(join_bounded([p, q], eye), proj_join(p, q))


# ---------------------------------------------------------------------------
# subtraction and complements


def test_bck_examples():
    assert np.array_equal(
        bck_subtract(diag(1, 5, 7), diag(1, 2, 0)).entries,
        np.diag([0.0, 5.0, 7.0]).astype(complex),
    )
    b = diag(4, 5)
    assert op_equal(bck_subtract(b, O2), b)
    assert np.linalg.norm(bck_subtract(b, b).entries) <= 1e-9


def test_segment_complement_examples():
    r = segment_complement(diag(1, 0), diag(1, 2))
    assert op_equal(r, diag(0, 2))
    assert logical_le(r, diag(1, 2))
    assert orthogonal(r, diag(1, 0))
    assert op_equal(osum(diag(1, 0), r), diag(1, 2))
    b = diag(1, 7)
    assert op_equal(segment_complement(O2, b), b)
    assert np.linalg.norm(segment_complement(b, b).entries) <= 1e-9
    with pytest.raises(NotLess):
        segment_complement(diag(2, 0), diag(1, 2))


# ---------------------------------------------------------------------------
# overriding and skew meet


def test_overridden_examples(rng):
    assert overridden(diag(0, 3, 0), diag(1, 5, 0))
    assert not overridden(diag(1, 1), diag(1, 0))
    for _ in range(10):
        _, (a, b) = bounded_family(rng, 4, 2)
        j = _try_join(a, b)
        if j is not None:
            assert overridden(a, j)  # order implies overriding


@pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
def test_overriding_scale_invariant(rng, c):
    for _ in range(5):
        a = random_spectrum_hermitian(rng, 4)
        b = random_spectrum_hermitian(rng, 4)
        assert overridden(a, b) == overridden(a.scaled(c), b)
        assert overridden(a, b) == overridden(a, b.scaled(c))


def test_skew_meet_examples():
    s = skew_meet(diag(0, 3, 0), diag(1, 5, 0))
    assert np.array_equal(s.entries, np.diag([0.0, 5.0, 0.0]).astype(complex))
    # maximality oracle over diagonal candidates: u overridden-by A, u <= B
    cands = []
    from starorder.models import RandomVariable, rv_le

    for mask in range(8):
        vals = tuple((1, 5, 0)[i] if mask >> i & 1 else 0 for i in range(3))
        u = RandomVariable(vals)
        if set(u.support()) <= {1} and rv_le(u, RandomVariable((1, 5, 0))):
            cands.append(vals)
    assert max(cands, key=lambda v: sum(x != 0 for x in v)) == (0, 5, 0)

    a = diag(2, 3)
    assert op_equal(skew_meet(a, a), a)
    assert np.linalg.norm(skew_meet(diag(1, 0), FLIP).entries) <= 1e-9


def test_skew_meet_laws_sampled(rng):
    for _ in range(15):
        _, (a, b) = bounded_family(rng, 4, 2)
        s = skew_meet(a, b)
        assert logical_le(s, b)
        assert overridden(s, a)
        assert logical_le(a, b) == op_equal(skew_meet(a, b), a)
        assert overridden(b, a) == op_equal(skew_meet(a, b), b)


def test_skew_meet_bounded_commutes_with_meet(rng):
    for _ in range(10):
        _, (a, b) = bounded_family(rng, 4, 2)
        m = meet(a, b)
        assert op_equal(skew_meet(a, b), m)
        assert op_equal(skew_meet(b, a), m)


def test_skew_associativity_fails_for_unrelated_triples():
    """The skew meet is associative on tuples with a common upper bound, but
    not in general: the overriding projection law fails between unrelated
    finite-dimensional operators, and with it the associativity argument.
    This pins the concrete two-dimensional counterexample."""
    x = HermitianOperator([[0.5, 0.5], [0.5, 0.5]])  # projector onto span(1,1)
    y = diag(1, 2)
    z = FLIP  # eigenvectors (1,1) and (1,-1)

    lhs = skew_meet(skew_meet(x, y), z)
    rhs = skew_meet(x, skew_meet(y, z))
    assert np.linalg.norm(lhs.entries) <= 1e-9
    assert op_equal(rhs, x)

    # oracle for the left branch: u with u overridden-by x and u <= y are
    # y P for commuting projectors P with range inside span(1,1): only O
    for p in commuting_projector_family(y):
        if p.rank == 0:
            continue
        inside = np.linalg.norm((np.eye(2) - x.entries) @ p.entries) <= 1e-9
        assert not inside
    # oracle for the right branch: x itself satisfies x overridden-by x and
    # x <= z, so the maximum is at least x
    assert overridden(x, x) and logical_le(x, z)


def test_overriding_projection_law_fails_in_finite_dim():
    """The open question for the operator model, answered negatively in
    finite dimension: A overridden by B does not imply a self-adjoint
    witness with A's range below B. Forced witness: B P_A, not self-adjoint
    here because B does not commute with P_A."""
    a = diag(1, 0)
    b = HermitianOperator([[1.0, 1.0], [1.0, 2.0]])  # invertible, so ran B is everything
    assert overridden(a, b)
    pa = range_projector(a)
    forced = b.entries @ pa.entries
    assert np.linalg.norm(forced - forced.conj().T) > 0.5  # no self-adjoint witness
    cand = skew_meet(a, b)
    assert not overridden(a, cand)  # the skew meet does not reach a's range


def test_try_join_decides_definedness(rng):
    assert _try_join(diag(1, 0), diag(2, 0)) is None  # no common upper bound
    j = _try_join(diag(1, 0), diag(0, 2))
    assert j is not None and op_equal(j, diag(1, 2))
    assert op_equal(_try_join(O2, O2), O2)
    for _ in range(10):
        c, (a, b) = bounded_family(rng, 4, 2)
        j = _try_join(a, b)
        assert j is not None
        assert op_equal(j, join_bounded([a, b], c))


# ---------------------------------------------------------------------------
# properties at dims up to max_dim

PROPERTY_DIMS = (4, 16, 64)


def two_way_pair(rng, dim, scale, nonzero=True):
    """(A, B), equal in exact arithmetic but assembled two ways in floating
    point from C = V diag(w) V* and a subset S of its eigenvectors:
    A = (C P_S + (C P_S)*)/2 as a product, B = sum over S of w_i v_i v_i*.
    With nonzero=True, S selects some nonzero eigenvalue, so A is not O."""
    while True:
        v = random_unitary(rng, dim)
        w = rng.choice(_EIGENVALUE_POOL, size=dim)
        s = rng.random(dim) < 0.5
        if np.any(w[s] != 0) == nonzero:
            break
    u = v[:, s]
    cp = ((v * w) @ v.conj().T) @ (u @ u.conj().T)
    a = HermitianOperator(scale * (cp + cp.conj().T) / 2)
    b = HermitianOperator(scale * ((u * w[s]) @ u.conj().T))
    return a, b


def conjugated(u, x):
    m = u @ x.entries @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2)


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("dim", PROPERTY_DIMS)
def test_meet_of_a_pair_built_two_ways_is_the_operand(rng, dim, scale):
    for _ in range(10):
        a, b = two_way_pair(rng, dim, scale)
        assert op_equal(a, b)
        assert op_equal(meet(a, b), a)
        assert op_equal(meet(b, a), b)
        # relative: an absolute test against O is not scale-consistent
        assert bck_subtract(b, a).norm() <= 1e-7 * b.norm()


@pytest.mark.xfail(strict=True, reason="op_equal(O, X) tests ||X|| against the absolute eq_abs_tol")
def test_meet_of_a_pair_equal_to_zero_at_large_scale():
    # C P_S with only zero eigenvalues selected is O in exact arithmetic; at
    # 1e8 its rounding noise is ~1e-7 and the meet with the exact O is O
    rng = np.random.default_rng(5)
    a, b = two_way_pair(rng, 16, 1e8, nonzero=False)
    assert op_equal(meet(a, b), a)


@pytest.mark.parametrize("dim", PROPERTY_DIMS)
def test_meet_is_symmetric(rng, dim):
    for _ in range(10):
        _, (a, b) = bounded_family(rng, dim, 2)
        assert op_equal(meet(a, b), meet(b, a))
        a, b = random_spectrum_hermitian(rng, dim), random_spectrum_hermitian(rng, dim)
        assert op_equal(meet(a, b), meet(b, a))


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("dim", PROPERTY_DIMS)
def test_meet_and_skew_meet_are_unitarily_covariant(rng, dim, scale):
    for _ in range(5):
        _, (a, b) = bounded_family(rng, dim, 2)
        a, b = a.scaled(scale), b.scaled(scale)
        u = random_unitary(rng, dim)
        ua, ub = conjugated(u, a), conjugated(u, b)
        assert op_equal(meet(ua, ub), conjugated(u, meet(a, b)))
        assert op_equal(skew_meet(ua, ub), conjugated(u, skew_meet(a, b)))
        assert op_equal(skew_meet(ub, ua), conjugated(u, skew_meet(b, a)))


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("dim", PROPERTY_DIMS)
def test_join_bounded_is_unitarily_covariant(rng, dim, scale):
    for _ in range(10):
        c, (a, b) = bounded_family(rng, dim, 2)
        a, b, c = (x.scaled(scale) for x in (a, b, c))
        u = random_unitary(rng, dim)
        ua, ub, uc = (conjugated(u, x) for x in (a, b, c))
        assert op_equal(join_bounded([ua, ub], uc), conjugated(u, join_bounded([a, b], c)))


@pytest.mark.parametrize(
    "dim, scale",
    [(dim, scale) for dim in PROPERTY_DIMS for scale in (1.0, 1e8) if (dim, scale) != (4, 1e8)]
    + [pytest.param(4, 1e8, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: where b ⪯ a, bck(b, a) is O in exact arithmetic but rounding noise of "
               "norm 4e-8 to 2e-7 at 1e8, and op_equal tells the two noises apart",
    ))],
)
def test_bck_subtract_is_unitarily_covariant(rng, dim, scale):
    for _ in range(10):
        _, (a, b) = bounded_family(rng, dim, 2)
        a, b = a.scaled(scale), b.scaled(scale)
        u = random_unitary(rng, dim)
        ua, ub = conjugated(u, a), conjugated(u, b)
        assert op_equal(bck_subtract(ua, ub), conjugated(u, bck_subtract(a, b)))
        assert op_equal(bck_subtract(ub, ua), conjugated(u, bck_subtract(b, a)))


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("dim", PROPERTY_DIMS)
def test_order_is_antisymmetric_modulo_op_equal(rng, dim, scale):
    # A and B are equal in exact arithmetic and assembled two ways
    for _ in range(10):
        a, b = two_way_pair(rng, dim, scale)
        assert logical_le(a, b) and logical_le(b, a)
        assert op_equal(a, b)


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("dim", [16, 64])
def test_bounded_family_members_precede_the_bound_and_disjoint_ones_are_orthogonal(rng, dim, scale):
    for _ in range(5):
        for disjoint in (False, True):
            c, members = bounded_family(rng, dim, 3, disjoint=disjoint)
            c, *members = (x.scaled(scale) for x in (c, *members))
            assert all(logical_le(m, c) for m in members)
            if disjoint:
                assert all(orthogonal(x, y) for x, y in itertools.combinations(members, 2))


# the order is homogeneous where the Frobenius norms overflow: each pair
# compares at 1e200 as it does at unit scale
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dim", [3, 4])
def test_logical_le_is_homogeneous_where_norms_overflow(dim):
    rng = np.random.default_rng(5)
    for _ in range(200):
        _, (a, b) = bounded_family(rng, dim, 2)
        assert logical_le(a.scaled(1e200), b.scaled(1e200)) == logical_le(a, b)
        assert logical_le(b.scaled(1e200), a.scaled(1e200)) == logical_le(b, a)


# an orthogonal rank-one pair whose products overflow entry by entry: each
# entry of AB is inf - inf, so nan, although AB = O
BIG_A = [[1e200, 1e200], [1e200, 1e200]]
BIG_B = [[1e200, -1e200], [-1e200, 1e200]]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_orthogonal_and_commutes_where_products_overflow():
    a, b = HermitianOperator(BIG_A), HermitianOperator(BIG_B)
    assert orthogonal(a, b) and orthogonal(b, a)
    assert commutes(a, a) and commutes(a, b)
    assert not orthogonal(a, a)
    assert not commutes(a, diag(1e200, -1e200))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("scale", [1e200, 1e300])
@pytest.mark.parametrize("dim", [3, 4])
def test_orthogonal_and_commutes_are_homogeneous_where_products_overflow(dim, scale):
    rng = np.random.default_rng(5)
    answers = set()
    for _ in range(200):
        _, (a, b) = bounded_family(rng, dim, 2)
        perp, comm = orthogonal(a, b), commutes(a, b)
        assert orthogonal(a.scaled(scale), b.scaled(scale)) == perp
        assert commutes(a.scaled(scale), b.scaled(scale)) == comm
        answers.add((perp, comm))
    assert {p for p, _ in answers} == {c for _, c in answers} == {False, True}


# Frobenius norms of such operands overflow to inf (see CHANGES.md); the
# operations' results must not
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("seed", range(6))
def test_results_stay_finite_near_the_largest_double(seed):
    rng = np.random.default_rng(seed)
    c, (a, b) = bounded_family(rng, 3, 2)
    s = 6e307 / max(1.0, float(np.max(np.abs(eigh(c)[0]))))
    c, a, b = c.scaled(s), a.scaled(s), b.scaled(s)
    results = [meet(a, b), skew_meet(a, b), bck_subtract(b, a), join_bounded([a, b], c), _try_join(a, b)]
    for x in results:
        assert x is not None and np.all(np.isfinite(x.entries))


def outcome(op, *args):
    """The result of op, or the type of the StarOrderError it raised."""
    try:
        return op(*args)
    except StarOrderError as exc:
        return type(exc)


def same_outcome(r, s):
    if isinstance(r, HermitianOperator) or isinstance(s, HermitianOperator):
        return isinstance(r, HermitianOperator) and isinstance(s, HermitianOperator) and op_equal(r, s)
    return r == s


# O's class under op_equal: an operand of norm 1e-10 is O to every operation
@pytest.mark.parametrize("dim", [4, 16, 64])
def test_operands_in_the_zero_class_act_as_exact_zero(rng, dim):
    o = HermitianOperator.zero(dim)
    g = random_hermitian(rng, dim)
    noise = g.scaled(1e-10 / g.norm())
    c, (a, b) = bounded_family(rng, dim, 2)
    ops = {
        "logical_le": logical_le,
        "overridden": overridden,
        "_try_join": _try_join,
        "join_bounded": lambda x, y: join_bounded([x, y], c),
        "join_bounded witness": lambda x, y: join_bounded([x], y),
        "bck_subtract": bck_subtract,
        "skew_meet": skew_meet,
        "meet": meet,
    }
    exact = {id(noise): o}
    for z in (o, noise):
        for x in (o, noise, a, b, c):
            for pair in ((z, x), (x, z)):
                zeroed = [exact.get(id(t), t) for t in pair]
                for name, op in ops.items():
                    assert same_outcome(outcome(op, *pair), outcome(op, *zeroed)), (name, dim)
    # what exact O answers
    assert c.norm() > 1 and noise.norm() > 0
    assert logical_le(noise, c) and not logical_le(c, noise)
    assert overridden(noise, c) and not overridden(c, noise)
    assert op_equal(_try_join(noise, c), c) and op_equal(bck_subtract(c, noise), c)
    assert op_equal(skew_meet(c, noise), o) and op_equal(skew_meet(noise, c), o)
