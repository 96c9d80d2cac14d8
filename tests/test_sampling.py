"""The sampler's own output, apart from any predicate: pinned bits, chunking,
and the number of linear-algebra calls per chunk."""

import collections
import hashlib

import numpy as np
import pytest

from starorder import sampling
from starorder.numerics import DEFAULT_TOL, HermitianOperator, eigh, op_equal
from starorder.sampling import (
    _SAMPLE_CHUNK,
    bounded_family,
    matrix_structure,
    random_hermitian,
    random_spectrum_hermitian,
    spectral_segment,
)

SEED = 20261018


def digest(operators, rng):
    """SHA-256 over the entry bytes of every operator, then 8 bytes drawn from
    rng, so the digest also pins where the stream was left."""
    h = hashlib.sha256()
    for a in operators:
        h.update(a.entries.tobytes())
    h.update(rng.bytes(8))
    return h.hexdigest()


# Recorded before the sampler drew its tuples first and batched their linear
# algebra, with the one-tuple-per-call hook. Like the report pins they rest on
# the floating point of numpy's LAPACK: a mismatch on another build calls for
# reading the members, not a new digest.
@pytest.mark.parametrize(
    "dim, expected",
    [
        (4, "32d31432f2d17e1c98b071e1c1a80ea3091307836d44c31d708d734ae19a0c62"),
        (16, "ad9251cf1350681ea199e812c1e35e48133f865f01f626fe2bf06c61f6192f84"),
    ],
)
def test_sample_hook_bits_are_pinned(dim, expected):
    s = matrix_structure(dim=dim)
    rng = np.random.default_rng(SEED)
    members = [a for arity in (1, 2, 3) for tup in s.sample(rng, arity, 40) for a in tup]
    assert len(members) == 40 * 6
    assert digest(members, rng) == expected


@pytest.mark.parametrize(
    "dim, disjoint, expected",
    [
        (4, False, "c92c0f72bf51c59165097dd767a8cc4f1d947284f13dbca11c7f8e0599d31c07"),
        (4, True, "e89ccf983b997edeee06df47878323d8b2fd757cc0a536f81ae20f691f82cd11"),
        (16, False, "cdc1f17643ddcb9b0a4fbd256b9a24372b35bf43f3da7b8fd4d2f92e6525f928"),
        (16, True, "42b2e3ed85aa09a9cc60f62d7febc4418b798ea61079a814741cd6c33be73695"),
    ],
)
def test_bounded_family_bits_are_pinned(dim, disjoint, expected):
    rng = np.random.default_rng(SEED)
    operators = []
    for _ in range(20):
        c, members = bounded_family(rng, dim, 3, disjoint=disjoint)
        operators += [c, *members]
    assert digest(operators, rng) == expected


@pytest.mark.parametrize(
    "dim, expected",
    [
        (4, "153eabbce237ac48df90375d2fa8ab1dae48698c6ebd8c02242761aa9c687c17"),
        (16, "4dfbe43228007c8681ea275671fd922e2cb6c0d9e9c91103f0bf6bc3d634adca"),
    ],
)
def test_random_spectrum_hermitian_bits_are_pinned(dim, expected):
    rng = np.random.default_rng(SEED)
    assert digest([random_spectrum_hermitian(rng, dim) for _ in range(20)], rng) == expected


def entry_bytes(tuples):
    return [tuple(a.entries.tobytes() for a in tup) for tup in tuples]


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_one_call_equals_one_tuple_per_call(dim):
    s = matrix_structure(dim=dim)
    count = 2 * _SAMPLE_CHUNK + 1  # over two chunk bounds
    for arity in (1, 2, 3):
        batched, single = np.random.default_rng([SEED, arity]), np.random.default_rng([SEED, arity])
        got = list(s.sample(batched, arity, count))
        expected = [tup for _ in range(count) for tup in s.sample(single, arity, 1)]
        assert len(got) == count and all(len(tup) == arity for tup in got)
        assert entry_bytes(got) == entry_bytes(expected)
        assert batched.bit_generator.state == single.bit_generator.state


def test_the_sample_is_drawn_one_chunk_at_a_time():
    s = matrix_structure(dim=4)
    lazy, reference = np.random.default_rng(SEED), np.random.default_rng(SEED)
    tuples = iter(s.sample(lazy, 2, 3 * _SAMPLE_CHUNK))
    next(tuples)
    list(s.sample(reference, 2, _SAMPLE_CHUNK))
    assert lazy.bit_generator.state == reference.bit_generator.state
    for _ in range(_SAMPLE_CHUNK):  # the rest of the first chunk, then one of the second
        next(tuples)
    list(s.sample(reference, 2, _SAMPLE_CHUNK))
    assert lazy.bit_generator.state == reference.bit_generator.state


class _Proxy:
    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_linear_algebra_calls_per_chunk_do_not_grow_with_the_tuples(monkeypatch, dim):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    linalg = _Proxy(np.linalg, qr=counted("qr", np.linalg.qr), eigh=counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(sampling, "np", _Proxy(np, linalg=linalg))
    monkeypatch.setattr(sampling, "eigh", counted("eigh", sampling.eigh))
    s = matrix_structure(dim=dim)
    rng = np.random.default_rng(SEED)
    chunks = 2
    for arity in (1, 2, 3):
        calls.clear()
        assert len(list(s.sample(rng, arity, chunks * _SAMPLE_CHUNK))) == chunks * _SAMPLE_CHUNK
        # the bases, plus one stacked QR per rotated-block size; one stacked eigh
        assert chunks <= calls["qr"] <= chunks * (dim + 1)
        assert calls["eigh"] == chunks


def spectral_segment_reference(b, tol=DEFAULT_TOL):
    """[O, B] by brute force: B P_S for every subset S of all dim
    eigen-directions, kernel eigenvalues zeroed, the first member of each
    op_equal class kept in mask order."""
    w, v = eigh(b)
    top = float(np.max(np.abs(w))) if w.size else 0.0
    w = np.where(np.abs(w) > tol.rank_rel_tol * top, w, 0.0)
    out = []
    for mask in range(2**b.dim):
        candidate = sampling._assemble(w, v, [i for i in range(b.dim) if mask >> i & 1])
        if not any(op_equal(candidate, seen, tol) for seen in out):
            out.append(candidate)
    return out


def segment_tops(rng, dim):
    """Pool tops, members rotated inside eigenspaces, rank-deficient pool and
    Gaussian tops, and O."""
    yield from (random_spectrum_hermitian(rng, dim) for _ in range(4))
    for _ in range(2):
        yield from bounded_family(rng, dim, 2)[1]
    yield from (random_spectrum_hermitian(rng, dim, pool=(0.0, 0.0, 1.0, -2.0)) for _ in range(3))
    g = random_hermitian(rng, dim).entries
    yield HermitianOperator(g)
    yield HermitianOperator(g @ np.diag(np.arange(dim) % 2) @ g)  # rank dim // 2, Gaussian eigenbasis
    yield HermitianOperator.zero(dim)


@pytest.mark.parametrize("dim", range(1, 7))
def test_spectral_segment_is_the_deduplicated_subset_family_bit_for_bit(dim):
    rng = np.random.default_rng([SEED, dim])
    for b in segment_tops(rng, dim):
        got = spectral_segment(b)
        expected = spectral_segment_reference(b)
        assert [a.entries.tobytes() for a in got] == [a.entries.tobytes() for a in expected]
        assert len(got) == 2 ** int(np.count_nonzero(np.abs(eigh(b)[0]) > 1e-6 * max(1.0, b.norm())))
