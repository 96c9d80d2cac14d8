"""The three workloads, each as a sequence of whole rounds.

A round is a fixed amount of work made from (seed, round index): `prepare`
makes its inputs untimed, `run` makes the timed calls and checks every
output afterwards. Every round of a workload attempts the same operations,
so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from hostspeed import Block


@dataclass
class RoundResult:
    ops: int = 0  # operations attempted: axiom tuples, or order-operation calls
    work: int = 0  # the operations ops_per_s counts (all of them, unless a workload says otherwise)
    failed: int = 0  # operations whose output failed its check
    seconds: float = 0.0  # timed work, rescaled to nominal host speed
    raw_seconds: float = 0.0  # the same, as measured
    problems: list = field(default_factory=list)  # unexpected failures, with their cause
    report_bytes: int = 0
    latencies: dict = field(default_factory=dict)  # (op, dim) -> seconds per call, at nominal speed


def round_seed(seed: int, r: int) -> int:
    return seed * 100_003 + r


def call_cli(cli, argv):
    """Run the starorder command in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify(res, cli, argv, kind):
    """One timed `starorder verify …` call; returns (report, exit code)."""
    with Block(kind) as blk:
        code, text = call_cli(cli, argv)
    res.seconds += blk.seconds
    res.raw_seconds += blk.raw
    res.report_bytes += len(text.encode())
    doc = json.loads(text)
    res.ops += checks.report_tuples(doc)
    return doc, code


def run_rounds(wl, seconds, max_rounds=None, tracer=None):
    """Whole rounds from round 0 until `seconds` of wall time have passed,
    or exactly `max_rounds` rounds. With `tracer` = (Tracer, program), the
    program is traced while each round's timed calls run, not while its
    inputs are made."""
    results, preps = [], []
    t_end = time.perf_counter() + seconds
    r = 0
    while True:
        with Block("np") as blk:
            prep = wl.prepare(r)
        preps.append(blk.seconds)
        if tracer:
            tracer[0].install(tracer[1])
        try:
            results.append(wl.run(prep))
        finally:
            if tracer:
                tracer[0].uninstall()
        r += 1
        done = len(results) == max_rounds if max_rounds else time.perf_counter() >= t_end
        if done:
            return results, preps


# ---------------------------------------------------------------------------


class VerifyMatrix:
    """`starorder verify matrix <suites> --dim 4` on the sampled operator carrier."""

    name = "verify_matrix"
    DIM = 4
    # Every suite but `bck`: its law −2, x − (x − y) ⪯ y, fails on about one
    # seed in 300 (40 samples), when a tuple from the sampler's Gaussian
    # branch has a small nonzero eigenvalue and the meet inside the nested
    # subtraction loses an invariant direction (see CHANGES.md). A failure
    # that depends on the seed cannot be counted the same in every run.
    SUITES = ("nearsemilattice", "ortho", "qom", "goa", "riesz", "skew", "oml")
    # Per law per round; a round takes about 2 s. The segment (oml) laws
    # cost a fixed ~0.2 s per round whatever the sample count, and their
    # tuple count, Σ 4**rank over the drawn tops, swings from a few dozen
    # to 2800; so ops_per_s counts the sampled tuples only, which are the
    # same number in every round.
    SAMPLES = 40
    OML_TOPS = 5  # the CLI's default --oml-tops
    TOPS_STREAM = 0x746F7073  # the CLI draws segment tops from default_rng([seed, this])

    def __init__(self, so, root: Path, seed: int):
        self.so, self.seed = so, seed

    def prepare(self, r):
        s = round_seed(self.seed, r)
        rng = np.random.default_rng([s, self.TOPS_STREAM])
        tops = [self.so.sampling.random_spectrum_hermitian(rng, self.DIM) for _ in range(self.OML_TOPS)]
        # |[O, B]| = 2**rank(B): one member per subset of B's nonzero eigen-directions
        sizes = []
        for t in tops:
            w = np.abs(np.linalg.eigvalsh(np.asarray(t.entries)))
            sizes.append(2 ** int(np.count_nonzero(w > 1e-6 * max(w.max(), 1e-300))))
        argv = ["verify", "matrix", *self.SUITES, "--dim", str(self.DIM), "--samples", str(self.SAMPLES), "--seed", str(s)]
        return argv, sizes

    def run(self, prep) -> RoundResult:
        argv, sizes = prep
        res = RoundResult()
        doc, code = verify(res, self.so.cli, argv, "np")
        res.work = checks.sampled_tuples(doc)
        res.failed = checks.unexpected_failures(doc)
        res.problems = checks.check_matrix_report(doc, self.SUITES, self.SAMPLES, sizes)
        if code != 0:
            res.problems.append(f"verify matrix exited {code}")
        return res


class VerifyFinite:
    """Exhaustive `verify … all` on rv, pf and the Boolean cube 2⁴, plus the
    O6 hexagon as a negative control that must fail orthomodularity."""

    name = "verify_finite"

    def __init__(self, so, root: Path, seed: int):
        self.so, self.root, self.seed = so, root, seed

    def prepare(self, r):
        s = str(round_seed(self.seed, r))
        boolean4 = json.loads((self.root / "fixtures/boolean4.json").read_text())
        o6 = json.loads((self.root / "fixtures/o6.json").read_text())
        # carrier sizes: rv is all maps {0,1,2}^Ω with |Ω| = 3; pf is all
        # partial maps from a 3-set to a 2-set, i.e. (2 + 1)**3 of them
        lawful = [("rv", 3**3, ()), ("pf", (2 + 1) ** 3, ()),
                  ("fixtures/boolean4.json", len(boolean4["elements"]), ("bck",))]
        return s, lawful, checks.PosetOracle(o6)

    def run(self, prep) -> RoundResult:
        s, lawful, o6 = prep
        res = RoundResult()
        for target, size, skippable in lawful:
            doc, code = verify(res, self.so.cli, ["verify", target, "all", "--seed", s], "py")
            res.problems += checks.check_finite_report(doc, size, target, skippable)
            res.failed += checks.unexpected_failures(doc)
            if code != 0:
                res.problems.append(f"verify {target} exited {code}")
        doc, code = verify(res, self.so.cli, ["verify", "fixtures/o6.json", "all", "--seed", s], "py")
        res.problems += checks.check_negative_control(doc, o6)
        if code != 1:
            res.problems.append(f"verify o6 exited {code}, expected 1")
        res.work = res.ops
        return res


# ---------------------------------------------------------------------------


POOL = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)  # the program's own eigenvalue pool
OPS = ("le", "meet", "join", "skew", "bck")


class OpsDims:
    """Single order operations at dims 4, 16 and 64 and scales 1e-6, 1, 1e8.

    Operands are A = C·P_S, B = C·P_T built from a base operator C with
    spectrum drawn from POOL. Four kinds of pair, per dim and per scale:

    * `le`: S ⊆ T (true) and S ⊄ T on C's nonzero directions (false), alternately;
    * `sub`: random S and T; meet, join (bounded by C), skew and bck;
    * `rot`: a shared spectral part plus sub-projectors rotated inside one
      degenerate eigenspace, so A and B do not commute; all five operations
      at scales 1 and 1e8, checked against the order laws and against the
      unit-scale result;
    * `eq`: A = C·P_S as a matrix product and B as a spectral sum, equal
      under op_equal; all five operations. These come from a fixed stream,
      not from --seed: at scale 1e8 meet and bck are known to fail on them.

    Every operand object is used in exactly one timed call.
    """

    name = "ops_dims"
    DIMS = (4, 16, 64)
    SCALES = (1e-6, 1.0, 1e8)
    # pairs per scale and round; dim-64 calls take ~100x a dim-4 call, so
    # these give each dim a similar share of the round's time
    COUNTS = {4: {"le": 16, "sub": 12, "rot": 12, "eq": 6},
              16: {"le": 8, "sub": 6, "rot": 6, "eq": 2},
              64: {"le": 2, "sub": 1, "rot": 1, "eq": 1}}
    EQ_STREAM = 0xE9_0A1  # fixed stream of the equal pairs
    # Rotated pairs whose rotated parts happen to lie close together (‖A − B·P_A‖
    # below 1e-2·‖A‖) compare as A ⪯ B at scale 1e-6 but not at 1, because
    # logical_le tests against the absolute eq_abs_tol (see CHANGES.md). That
    # depends on the seed, so rotated pairs run at scales 1 and 1e8 only.
    ROT_SCALES = (1.0, 1e8)

    def __init__(self, so, root: Path, seed: int):
        self.so, self.seed = so, seed
        self.H = so.numerics.HermitianOperator
        self.obs = so.observables

    # -- inputs --------------------------------------------------------------

    @staticmethod
    def _base(rng, d, degenerate=False):
        w = rng.choice(POOL, size=d)
        if w[0] == 0.0:
            w[0] = 1.0  # at least one nonzero direction
        if degenerate:
            w[1] = w[0]  # a nonzero eigenspace of dimension >= 2
        return w, checks.unitary(rng, d)

    @staticmethod
    def _subset(rng, d):
        return np.flatnonzero(rng.random(d) < 0.5)

    def _recipes(self, rng, eq_rng, d):
        """Unit-scale operand arrays with their expected results."""
        n = self.COUNTS[d]
        out = []
        for k in range(n["le"]):
            w, v = self._base(rng, d)
            nz = np.flatnonzero(w != 0.0)
            s = np.union1d(self._subset(rng, d), nz[:1])
            t = np.union1d(s, self._subset(rng, d))
            if k % 2:  # drop one nonzero direction of S from T
                t = np.setdiff1d(t, [rng.choice(np.intersect1d(s, nz))])
            out.append(("le", {"a": checks.assemble(w, v, s), "b": checks.assemble(w, v, t),
                               "le": set(np.intersect1d(s, nz)) <= set(t)}))
        for _ in range(n["sub"]):
            w, v = self._base(rng, d)
            s, t = self._subset(rng, d), self._subset(rng, d)
            out.append(("sub", {
                "a": checks.assemble(w, v, s), "b": checks.assemble(w, v, t), "c": checks.assemble(w, v, range(d)),
                "meet": checks.assemble(w, v, np.intersect1d(s, t)),
                "join": checks.assemble(w, v, np.union1d(s, t)),
                "bck": checks.assemble(w, v, np.setdiff1d(t, s))}))
        for _ in range(n["rot"]):
            w, v = self._base(rng, d, degenerate=True)
            block = np.flatnonzero(w == w[0])
            rest = np.setdiff1d(np.arange(d), block)
            common = checks.assemble(w, v, rest[rng.random(rest.size) < 0.5])
            m = block.size
            r = int(rng.integers(1, m)) if m > 2 else 1

            def rotated():
                u = v[:, block] @ checks.unitary(rng, m)[:, :r]
                return w[0] * (u @ u.conj().T)

            out.append(("rot", {"a": common + rotated(), "b": common + rotated(),
                                "c": checks.assemble(w, v, range(d)), "low": common}))
        for _ in range(n["eq"]):
            w, v = self._base(eq_rng, d)
            s = np.union1d(self._subset(eq_rng, d), [0])
            c = checks.assemble(w, v, range(d))
            prod = c @ (v[:, s] @ v[:, s].conj().T)
            out.append(("eq", {"a": (prod + prod.conj().T) / 2, "b": checks.assemble(w, v, s), "c": c}))
        return out

    def prepare(self, r):
        rng = np.random.default_rng([self.seed, r, 0x0B5])
        eq_rng = np.random.default_rng(self.EQ_STREAM)
        H = self.H
        blocks = []
        for d in self.DIMS:
            recipes = self._recipes(rng, eq_rng, d)
            calls = []
            for c in self.SCALES:
                for i, (kind, rec) in enumerate(recipes):
                    if kind == "rot" and c not in self.ROT_SCALES:
                        continue
                    for op in (("le",) if kind == "le" else ("meet", "join", "skew", "bck") if kind == "sub" else OPS):
                        args = (H(c * rec["a"]), H(c * rec["b"])) + ((H(c * rec["c"]),) if op == "join" else ())
                        calls.append((op, args, c, i, kind))
            order = rng.permutation(len(calls))
            blocks.append((d, recipes, [calls[j] for j in order]))
        return blocks

    # -- timed calls and checks --------------------------------------------------

    def run(self, prep) -> RoundResult:
        res = RoundResult()
        obs = self.obs  # looked up now, so that a traced run sees the wrapped functions
        fns = {"le": obs.logical_le, "meet": obs.meet, "skew": obs.skew_meet,
               "bck": lambda a, b: obs.bck_subtract(b, a), "join": lambda a, b, c: obs.join_bounded([a, b], c)}
        errors = self.so.errors.StarOrderError
        clock = time.perf_counter
        for d, recipes, calls in prep:
            outs, lat = [], []
            with Block("np") as blk:
                for op, args, *_ in calls:
                    fn = fns[op]
                    paused, t = blk.paused, clock()
                    try:
                        out = fn(*args)
                    except (errors, ValueError) as exc:
                        out = exc
                    lat.append(clock() - t - (blk.paused - paused))
                    outs.append(out)
            res.seconds += blk.seconds
            res.raw_seconds += blk.raw
            res.ops += len(calls)
            for (op, *_), t in zip(calls, lat):
                res.latencies.setdefault((op, d), []).append(t * blk.factor)
            self._check(res, d, recipes, calls, outs)
        res.work = res.ops
        return res

    def _check(self, res, d, recipes, calls, outs):
        unit = {}
        for (op, _, c, i, kind), out in zip(calls, outs):
            if c == 1.0:
                unit[(op, i)] = out
        for (op, _, c, i, kind), out in zip(calls, outs):
            rec = recipes[i][1]
            ok = self._correct(op, kind, rec, c, out, unit.get((op, i)))
            if ok:
                continue
            res.failed += 1
            if not (kind == "eq" and c == 1e8 and op in ("meet", "bck")):
                res.problems.append(f"ops_dims {op} on a {kind} pair at dim {d}, scale {c:g}: wrong result")

    @staticmethod
    def _correct(op, kind, rec, c, out, unit_out) -> bool:
        if isinstance(out, Exception):
            return False
        scale = c * max(1.0, float(np.linalg.norm(rec.get("c", rec["b"]))))
        if op == "le":
            if kind == "le":
                want = rec["le"]
            elif kind == "eq":
                want = True
            else:
                want = checks.precedes(c * rec["a"], c * rec["b"], scale)
            return out is want
        x = np.asarray(out.entries)
        a, b = c * rec["a"], c * rec["b"]
        if kind == "sub":
            return checks.close(x, c * rec["meet" if op in ("meet", "skew") else op], scale)
        if kind == "eq":
            return checks.close(x, np.zeros_like(a) if op == "bck" else a, scale)
        # rotated pairs: order laws, plus homogeneity against the unit-scale result
        low, top = c * rec["low"], c * rec["c"]
        if op == "meet":
            laws = (checks.precedes(x, a, scale) and checks.precedes(x, b, scale)
                    and checks.precedes(low, x, scale))
        elif op == "join":
            laws = (checks.precedes(a, x, scale) and checks.precedes(b, x, scale)
                    and checks.precedes(x, top, scale))
        elif op == "skew":
            laws = (checks.precedes(x, b, scale) and checks.overridden_by(x, a, scale)
                    and checks.precedes(low, x, scale))
        else:  # bck(B, A) precedes B and is orthogonal to the common lower bound
            laws = checks.precedes(x, b, scale) and checks.close(x @ low, np.zeros_like(x), scale * scale)
        if unit_out is None or isinstance(unit_out, Exception):
            return False
        return laws and checks.close(x, c * np.asarray(unit_out.entries), scale)


WORKLOADS = {w.name: w for w in (VerifyMatrix, VerifyFinite, OpsDims)}
