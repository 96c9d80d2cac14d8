"""The traced run and its per-layer metrics.

The traced run makes a fixed number of rounds twice with the same inputs:
first untraced, then with every starorder layer wrapped (see tracing.py).
Counts therefore repeat exactly for a given seed, and the difference of
the two passes' wall times is the tracing overhead. Spans are written to
perfbench/out/ when the run ends.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from tracing import LAPACK, SpanTable, Tracer
from workloads import run_rounds

OUT = Path(__file__).resolve().parent / "out"
SUITES = ("nearsemilattice", "ortho", "qom", "goa", "riesz", "bck", "skew", "oml")
OBS_OPS = ("logical_le", "orthogonal", "meet", "join_bounded", "skew_meet", "bck_subtract",
           "overridden", "segment_complement", "join_hook")
# ops_dims operation -> the observables function it times
TIMED_OPS = {"le": "logical_le", "meet": "meet", "join": "join_bounded", "skew": "skew_meet", "bck": "bck_subtract"}
PERCENTILES = (("d4", "p50", 4, 50), ("d4", "p90", 4, 90), ("d16", "p50", 16, 50),
               ("d64", "p50", 64, 50), ("d64", "p90", 64, 90))


def traced_run(prog, wl, rounds):
    plain, _ = run_rounds(wl, 0, max_rounds=rounds)
    tracer = Tracer()
    traced, _ = run_rounds(wl, 0, max_rounds=rounds, tracer=(tracer, prog))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}-seed{wl.seed}.npz")
    metrics = layer_metrics(tracer, traced)
    metrics.update(latency_metrics(plain))
    overhead = (sum(r.seconds for r in traced) - sum(r.seconds for r in plain)) / rounds
    metrics["trace.overhead_s"] = overhead
    units = {"calls": "count", "bytes": "bytes", "tuples": "count"}
    out = {}
    for name, value in metrics.items():
        last = name.rsplit(".", 1)[1]
        unit = units.get(last, "us" if last.endswith("_us") else "ratio" if "_per_" in last else "s")
        out[name] = {"value": value, "unit": unit}
    return out, plain + traced


def layer_metrics(tracer: Tracer, traced) -> dict:
    t = SpanTable(tracer)
    m = {}
    construct = t.named("numerics.construct")
    m["numerics.construct.calls"] = t.calls(t.outermost(construct))
    m["numerics.construct.self_s"] = t.self_s(construct)
    for f in LAPACK:
        m[f"numerics.{f}.calls"] = t.calls(t.named(f"numerics.{f}"))
    m["numerics.lapack.self_s"] = t.self_s(t.mask(lambda n: n in {f"numerics.{f}" for f in LAPACK}))
    meets = t.named("observables.meet")
    eig = t.mask(lambda n: n in ("numerics.eigh", "numerics.eigvalsh"))
    m["numerics.eigensolves_per_meet"] = t.under(eig, meets) / t.calls(meets) if t.calls(meets) else 0.0
    for f in ("range_projector", "proj_meet", "proj_join", "largest_invariant_subspace"):
        m[f"numerics.{f}.self_s"] = t.self_s(t.named(f"numerics.{f}"))
    m["numerics.op_equal.calls"] = t.calls(t.named("numerics.op_equal"))

    for op in OBS_OPS:
        spans = t.named(f"observables.{op}")
        m[f"observables.{op}.calls"] = t.calls(spans)
        m[f"observables.{op}.self_s"] = t.self_s(spans)

    m["sampling.sample.calls"] = t.calls(t.named("hook.sample"))
    m["sampling.sample.self_s"] = t.self_s(t.mask(
        lambda n: n == "hook.sample" or (n.startswith("sampling.") and n != "sampling.spectral_segment")))
    m["sampling.spectral_segment.self_s"] = t.self_s(t.named("sampling.spectral_segment"))

    tuples = 0
    for suite in SUITES:
        m[f"axioms.{suite}.s"] = t.total_s(t.named(f"axioms.suite.{suite}"))
        m[f"axioms.{suite}.tuples"] = tracer.suite_tuples.get(suite, 0)
        tuples += m[f"axioms.{suite}.tuples"]
    m["axioms.harness.self_s"] = t.self_s(t.mask(lambda n: n.startswith("axioms.")))
    hooks = t.calls(t.mask(lambda n: n.startswith("hook.")))
    m["axioms.hook_calls_per_tuple"] = hooks / tuples if tuples else 0.0

    models = t.mask(lambda n: n.startswith("models."))
    m["models.hooks.calls"] = t.calls(models)
    m["models.hooks.self_s"] = t.self_s(models)
    m["poset.load.s"] = t.total_s(t.named("poset.load_poset"))
    m["poset.hooks.self_s"] = t.self_s(t.mask(lambda n: n.startswith("poset.hook.")))
    m["cli.emit.s"] = t.total_s(t.named("cli.emit"))
    m["cli.report.bytes"] = sum(r.report_bytes for r in traced)
    return m


def latency_metrics(results) -> dict:
    """Per-call latency percentiles of the untraced ops_dims calls, in µs at
    nominal host speed; 0 on workloads that make no such calls."""
    m = {}
    for op, fn in TIMED_OPS.items():
        for dname, pname, dim, pct in PERCENTILES:
            lat = [t for res in results for t in res.latencies.get((op, dim), [])]
            value = 0.0
            if len(lat) >= 2:
                value = statistics.quantiles(lat, n=100)[pct - 1] * 1e6 if pct != 50 else statistics.median(lat) * 1e6
            m[f"observables.{fn}.{dname}.{pname}_us"] = value
    return m
