"""Command-line entry point.

Three subcommands:

* ``compute <op> <input.json>...`` evaluates a single operation and prints
  the result plus a verification block;
* ``verify <model|poset.json> <suite>...`` runs axiom suites (exhaustively
  for the finite models, sampled for the operator model) and emits a
  deterministic report;
* ``poset validate <file>`` checks a poset file's laws.

Exit codes: 0 success, 1 bad input (or a failed verification), 2 when a
partial operation is mathematically undefined for the given operands. The
seed falls back to the LOL_SEED environment variable when the flag is
absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import models, observables as obs, poset as poset_mod, sampling
from .axioms import SUITE_NAMES, CheckConfig, _indexed, format_report_table, run_suite
from .errors import (
    Conflict,
    DimMismatch,
    NotLess,
    NotOrthogonal,
    NotUpperBound,
    ParseError,
    PosetInvalid,
    StarOrderError,
    UnknownElement,
)
from .numerics import DEFAULT_TOL, Tolerances, matrix_from_json, matrix_to_json, rank_sensitive

_UNDEFINED = (NotOrthogonal, NotUpperBound, NotLess, Conflict)
_BAD_INPUT = (ParseError, DimMismatch, PosetInvalid, UnknownElement, ValueError, OSError)

_MATRIX_OPS = ("le", "perp", "osum", "meet", "join", "bck", "complement", "overridden", "skew")
_PF_OPS = ("pf-union", "pf-intersect", "pf-perp", "pf-skew")
_RV_OPS = ("rv-le", "rv-meet", "rv-join", "rv-osum", "rv-perp", "rv-bck", "rv-skew")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _as_table(doc) -> str:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict,)) else lines.append(f"{prefix}{k}: {v}")
        else:
            lines.append(f"{prefix}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _emit(doc, args, as_table=_as_table):
    """Write the document, as JSON or as_table(doc), to --out or stdout."""
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    else:
        text = as_table(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerances(args) -> Tolerances:
    return Tolerances(rank_rel_tol=args.rank_tol, eq_abs_tol=args.eq_tol)


def _seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ParseError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("LOL_SEED")
    if not env:
        return 0
    try:
        seed = int(env)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParseError(f"LOL_SEED must be a non-negative integer, got {env!r}")
    return seed


def cmd_compute(args) -> int:
    op = args.op
    tol = _tolerances(args)
    doc = {"op": op, "inputs": list(args.inputs)}
    if op in _MATRIX_OPS:
        operands = [matrix_from_json(_load_json(p), tol) for p in args.inputs]
        doc.update(_compute_matrix(op, operands, tol))
    elif op in _PF_OPS:
        operands = [models.pf_from_json(_load_json(p)) for p in args.inputs]
        doc.update(_compute_pf(op, operands))
    elif op in _RV_OPS:
        operands = [models.rv_from_json(_load_json(p)) for p in args.inputs]
        doc.update(_compute_rv(op, operands))
    else:
        raise ParseError(f"unknown operation {op!r}")
    _emit(doc, args)
    return 0


def _need(operands, count, op):
    if len(operands) != count:
        raise ParseError(f"{op} takes exactly {count} inputs, got {len(operands)}")
    return operands


def _compute_matrix(op, operands, tol):
    if op == "join":
        if len(operands) < 2:
            raise ParseError("join needs at least two inputs: the family then the upper bound")
        *family, witness = operands
        result = obs.join_bounded(family, witness, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {
                "members_precede_result": [obs.logical_le(a, result, tol) for a in family],
                "result_precedes_witness": obs.logical_le(result, witness, tol),
                "tolerance_sensitive": rank_sensitive(family + [witness], tol),
            },
        }
    a, b = _need(operands, 2, op)
    if op == "le":
        return {"result": {"value": obs.logical_le(a, b, tol)}}
    if op == "perp":
        return {"result": {"value": obs.orthogonal(a, b, tol)}}
    if op == "overridden":
        return {"result": {"value": obs.overridden(a, b, tol)}}
    if op == "osum":
        result = obs.osum(a, b, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {
                "summands_precede_result": [
                    obs.logical_le(a, result, tol),
                    obs.logical_le(b, result, tol),
                ]
            },
        }
    if op == "meet":
        result = obs.meet(a, b, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {
                "lower_bound_of_first": obs.logical_le(result, a, tol),
                "lower_bound_of_second": obs.logical_le(result, b, tol),
                "tolerance_sensitive": rank_sensitive([a, b, a - b], tol),
            },
        }
    if op == "bck":
        result = obs.bck_subtract(a, b, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {"result_precedes_minuend": obs.logical_le(result, a, tol)},
        }
    if op == "complement":
        result = obs.segment_complement(a, b, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {
                "precedes_whole": obs.logical_le(result, b, tol),
                "orthogonal_to_part": obs.orthogonal(result, a, tol),
                "osum_restores_whole": obs.op_equal(obs.osum(a, result, tol), b, tol)
                if obs.orthogonal(result, a, tol)
                else False,
            },
        }
    if op == "skew":
        result = obs.skew_meet(a, b, tol)
        return {
            "result": matrix_to_json(result),
            "verification": {
                "result_precedes_second": obs.logical_le(result, b, tol),
                "result_overridden_by_first": obs.overridden(result, a, tol),
                "tolerance_sensitive": rank_sensitive([a, b], tol),
            },
        }
    raise ParseError(f"unknown matrix operation {op!r}")


def _compute_pf(op, operands):
    a, b = _need(operands, 2, op)
    if op == "pf-union":
        return {"result": models.pf_to_json(models.pf_union(a, b))}
    if op == "pf-intersect":
        return {"result": models.pf_to_json(models.pf_intersect(a, b))}
    if op == "pf-perp":
        return {"result": {"value": models.pf_perp(a, b)}}
    if op == "pf-skew":
        return {"result": models.pf_to_json(models.pf_skew_intersect(a, b))}
    raise ParseError(f"unknown partial-function operation {op!r}")


def _compute_rv(op, operands):
    if op == "rv-join":
        f, g, h = _need(operands, 3, op)
        return {"result": models.rv_to_json(models.rv_join_bounded(f, g, h))}
    a, b = _need(operands, 2, op)
    if op == "rv-le":
        return {"result": {"value": models.rv_le(a, b)}}
    if op == "rv-perp":
        return {"result": {"value": models.rv_perp(a, b)}}
    if op == "rv-meet":
        return {"result": models.rv_to_json(models.rv_meet(a, b))}
    if op == "rv-osum":
        return {"result": models.rv_to_json(models.rv_osum(a, b))}
    if op == "rv-bck":
        return {"result": models.rv_to_json(models.rv_bck(a, b))}
    if op == "rv-skew":
        return {"result": models.rv_to_json(models.rv_skew_meet(a, b))}
    raise ParseError(f"unknown random-variable operation {op!r}")


def _build_structure(target, args, tol):
    if target == "matrix":
        return sampling.matrix_structure(dim=args.dim, tol=tol)
    if target == "rv":
        return models.rv_structure()
    if target == "pf":
        return models.pf_structure()
    return poset_mod.load_poset(target).as_structure()


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    if args.dim < 1:
        raise ParseError(f"--dim must be a positive count, got {args.dim}")
    if args.dim > tol.max_dim:
        raise ParseError(f"dim {args.dim} exceeds max_dim {tol.max_dim}")
    if args.samples < 1:
        raise ParseError(f"--samples must be a positive count, got {args.samples}")
    if args.oml_tops < 1:
        raise ParseError(f"--oml-tops must be a positive count, got {args.oml_tops}")
    seed = _seed(args)
    config = CheckConfig(seed=seed, samples=args.samples)
    # a finite carrier is indexed once, so its hook tables serve every suite
    structure = _indexed(_build_structure(args.target, args, tol))
    suites = list(dict.fromkeys(SUITE_NAMES if "all" in args.suites else args.suites))
    tops = None
    if args.target == "matrix":
        rng = np.random.default_rng([seed, 0x746F7073])  # dedicated stream for segment tops
        tops = [sampling.random_spectrum_hermitian(rng, args.dim) for _ in range(args.oml_tops)]
    by_suite = {suite: run_suite(structure, suite, config, tops=tops if suite == "oml" else None) for suite in suites}
    entries = [{**r.to_dict(), "suite": suite} for suite, reports in by_suite.items() for r in reports]
    summary = {"pass": 0, "fail": 0, "informational": 0, "skipped": 0}
    for e in entries:
        summary[e["verdict"]] += 1
    doc = {
        "model": args.target,
        "suites": suites,
        "seed": seed,
        "samples": args.samples,
        "dim": args.dim if args.target == "matrix" else None,
        "tolerances": {"rank_rel_tol": tol.rank_rel_tol, "eq_abs_tol": tol.eq_abs_tol},
        "reports": entries,
        "summary": summary,
    }

    def as_table(_doc):
        lines = [f"model: {structure.name}   seed: {seed}   samples: {args.samples}"]
        for suite, reports in by_suite.items():
            lines += [f"--- {suite} ---", format_report_table(reports)]
        lines.append(f"summary: {summary}")
        return "\n".join(lines) + "\n"

    _emit(doc, args, as_table)
    return 0 if summary["fail"] == 0 else 1


def cmd_poset_validate(args) -> int:
    p = poset_mod.load_poset(args.path)
    ubp, witness = p.has_ubp()
    doc = {
        "valid": True,
        "elements": len(p.elements),
        "zero": p.zero,
        "has_orthogonality": p.ortho_pairs is not None,
        "has_upper_bound_property": ubp,
        "ubp_witness": list(witness) if witness else None,
    }
    _emit(doc, args)
    return 0


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: LOL_SEED or 0)")
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_rel_tol, dest="rank_tol")
    parser.add_argument("--eq-tol", type=float, default=DEFAULT_TOL.eq_abs_tol, dest="eq_tol")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starorder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate one operation on JSON inputs")
    c.add_argument("op", help="one of: " + ", ".join(_MATRIX_OPS + _PF_OPS + _RV_OPS))
    c.add_argument("inputs", nargs="+", help="JSON input files (for join: family then upper bound)")
    _add_common(c)
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="run axiom suites on a model or poset file")
    v.add_argument("target", help="matrix | rv | pf | path to a poset JSON file")
    v.add_argument("suites", nargs="+", choices=SUITE_NAMES + ("all",))
    v.add_argument("--dim", type=int, default=4)
    v.add_argument("--samples", type=int, default=500)
    v.add_argument("--oml-tops", type=int, default=5, dest="oml_tops")
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("poset", help="poset file utilities")
    psub = p.add_subparsers(dest="poset_command", required=True)
    pv = psub.add_parser("validate", help="validate a poset JSON file")
    pv.add_argument("path")
    _add_common(pv)
    pv.set_defaults(func=cmd_poset_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # entries near the float limit overflow intermediate norms and
        # products; the code decides such inputs on rescaled copies, so
        # numpy's warnings about them are not the user's concern
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _UNDEFINED as exc:
        print(f"undefined: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except _BAD_INPUT as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except StarOrderError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
