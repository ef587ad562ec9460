"""Command-line interface tying the toolkit together.

Subcommands: analyze, classify, pf, eqcheck, deform, modelcheck, corpus.
Reports are deterministic JSON on stdout (the timing field excepted);
diagnostics go to stderr.  Exit codes: 0 success (verdicts including
unknown), 2 parse error, 3 invalid ring, 4 internal assertion failure.
A report that restates a record (the classification, the predicates, the
six-term check) is the record's fields by name (``_fields``); tuples go
out as JSON lists, and ``sort_keys`` fixes the key order.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

# Every subcommand reads a ring and reports on its ideal chain, so only these
# three modules load with the CLI; each ``cmd_*`` imports the rest it runs.
from .groups import GroupError, Subgroup
from .rings import FdzRing, RingValidationError, characteristic_ideals, predicates, reduce_mod_n
from .ringfile import RingFileError, load_ring, serialize_ring

if TYPE_CHECKING:
    from .bilinear import ScalarRingAction

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_RING = 3
EXIT_INTERNAL = 4


class CliParseError(ValueError):
    pass


def _fields(record) -> dict:
    """A record's fields by name; ``json.dumps`` writes its tuples as lists."""
    return {name: getattr(record, name) for name in record.__match_args__}


def _subgroup_json(s: Subgroup) -> dict:
    return {"invariant_factors": s.invariant_factors, "generators": s.lift_basis}


def _input_summary(path: str, ring: FdzRing) -> dict:
    return {
        "file": os.path.basename(path),
        "rank": ring.rank,
        "orders": ring.orders,
        "order": ring.order,
    }


def _chain_json(ring: FdzRing) -> dict:
    chain = characteristic_ideals(ring)
    return {
        "ann": _subgroup_json(chain.ann),
        "square": _subgroup_json(chain.sq),
        "delta": _subgroup_json(chain.delta),
        "k": _subgroup_json(chain.k_ideal),
        "l": _subgroup_json(chain.l_ideal),
        "o": _subgroup_json(chain.o_ideal),
        "m": {"invariant_factors": chain.m_quot.invariant_factors},
        "n": {"invariant_factors": chain.n_quot.invariant_factors},
    }


def _action_json(action: ScalarRingAction) -> dict:
    out = {
        "ring_file": serialize_ring(action.ring),
        "unity": action.unity,
        "action_on_domain": [m.data for m in action.action_on_domain],
        "action_on_codomain": [m.data for m in action.action_on_codomain],
    }
    if action.in_parent is not None:
        out["inside_pf"] = action.in_parent.data
    return out


def cmd_analyze(args) -> dict:
    ring = load_ring(args.ring)
    return {
        "input": _input_summary(args.ring, ring),
        "ideal_chain": _chain_json(ring),
        "predicates": _fields(predicates(ring)),
    }


def cmd_classify(args) -> dict:
    from .classify import classify_ring

    ring = load_ring(args.ring)
    report = classify_ring(ring, use_pa_ring=args.use_pa)
    return {
        "input": _input_summary(args.ring, ring),
        "ideal_chain_invariants": {
            name: part["invariant_factors"] for name, part in _chain_json(ring).items()
        },
        "predicates": _fields(predicates(ring)),
        "classification": _fields(report),
    }


def cmd_pf(args) -> dict:
    from .bilinear import pa_ring

    ring = load_ring(args.ring)
    pa = pa_ring(ring)
    return {
        "input": _input_summary(args.ring, ring),
        "pf": _action_json(pa.parent),
        "pa": _action_json(pa),
    }


def cmd_eqcheck(args) -> dict:
    from .eqcheck import equivalence_verdict

    if args.bound < 1:
        raise CliParseError("--bound must be at least 1")
    ring_a = load_ring(args.ring_a)
    ring_b = load_ring(args.ring_b)
    verdict = equivalence_verdict(
        ring_a, ring_b, coeff_bound=args.bound, seed=args.seed
    )
    return {
        "input": {
            "a": _input_summary(args.ring_a, ring_a),
            "b": _input_summary(args.ring_b, ring_b),
            "bound": args.bound,
        },
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "witness": verdict.witness.matrix.data if verdict.witness else None,
    }


def _parse_deform_cocycle(text: str) -> tuple[int, list[int], int]:
    order = None
    value = None
    factor = 1
    try:
        for piece in text.split(","):
            key, _, raw = piece.partition("=")
            key = key.strip()
            if key == "e":
                order = int(raw)
            elif key == "d":
                value = [int(v) for v in raw.split(":")]
            elif key == "factor":
                factor = int(raw)
            else:
                raise CliParseError(f"unknown cocycle field {key!r}")
    except CliParseError:
        raise
    except ValueError as exc:
        raise CliParseError(f"bad cocycle syntax: {exc}") from exc
    if order is None or value is None:
        raise CliParseError("the cocycle needs both e=ORDER and d=C1:...:CR")
    return order, value, factor


def cmd_deform(args) -> dict:
    from .deform import DeformationContext, verify_sixterm
    from .eqcheck import invariant_profile

    ring = load_ring(args.ring)
    context = DeformationContext(ring)
    g = None
    if args.g:
        order, value, factor = _parse_deform_cocycle(args.g)
        index = factor - 1
        if not (0 <= index < len(context.n_orders)):
            raise CliParseError(
                f"factor {factor} out of range; the torsion quotient has "
                f"{len(context.n_orders)} cyclic factors"
            )
        if context.n_orders[index] != order:
            raise CliParseError(
                f"factor {factor} has order {context.n_orders[index]}, not {order}"
            )
        if len(value) != ring.rank:
            raise CliParseError("the cocycle value must be an ambient vector")
        g = context.ambient_annihilator_cocycle(index, value)
    deformed = context.build(g).ring
    profile_match = (
        invariant_profile(ring).first_mismatch(invariant_profile(deformed)) is None
    )
    payload = {
        "input": _input_summary(args.ring, ring),
        "ring_file": serialize_ring(deformed),
        "valid": True,
        "profile_match": profile_match,
    }
    if args.check_sixterm:
        payload["sixterm"] = _fields(verify_sixterm(ring, deformed))
    return payload


def _parse_builtin(text: str) -> tuple[str, int]:
    name, _, rest = text.partition(",")
    name = name.strip()
    k = None
    if rest:
        key, _, raw = rest.partition("=")
        if key.strip() != "k":
            raise CliParseError("expected --builtin NAME,k=N")
        try:
            k = int(raw)
        except ValueError as exc:
            raise CliParseError(f"bad builtin arity: {exc}") from exc
    if k is None:
        raise CliParseError("expected --builtin NAME,k=N")
    return name, k


def cmd_modelcheck(args) -> dict:
    from .fomc import builtin, defined_set, evaluate, exists_closure, free_variables, parse_formula

    ring = load_ring(args.ring)
    if args.mod is not None:
        if args.mod < 1:
            raise CliParseError("--mod must be at least 1")
        ring = reduce_mod_n(ring, args.mod)
    if ring.order is None:
        raise CliParseError("model checking requires a finite ring; pass --mod N")
    if args.builtin:
        name, k = _parse_builtin(args.builtin)
        formula = builtin(name, k)
        source = {"builtin": name, "k": k}
    else:
        with open(args.formula, "r", encoding="utf-8") as handle:
            formula = parse_formula(handle.read())
        source = {"formula_file": os.path.basename(args.formula)}
    free = free_variables(formula)
    payload: dict = {
        "input": _input_summary(args.ring, ring),
        "source": source,
    }
    if len(free) == 1:
        payload["kind"] = "defined_set"
        payload["elements"] = defined_set(ring, formula)
    elif not free:
        payload["kind"] = "truth"
        payload["value"] = evaluate(ring, formula)
    else:
        payload["kind"] = "truth_of_closure"
        payload["value"] = evaluate(ring, exists_closure(formula))
    return payload


def cmd_corpus(args) -> dict:
    from .classify import classify_ring

    entries = []
    names = sorted(
        name for name in os.listdir(args.directory) if name.endswith(".ring")
    )
    if not names:
        raise CliParseError(f"no .ring files in {args.directory!r}")
    for name in names:
        ring = load_ring(os.path.join(args.directory, name))
        entries.append(
            {"file": name, "orders": ring.orders, "classification": _fields(classify_ring(ring))}
        )
    return {"corpus": entries}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdzring",
        description="Exact invariants, classification verdicts, equivalence "
        "tests, and deformations for rings of finite rank over the integers.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="deterministic ordering seed for the bounded searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute the characteristic ideal chain")
    p.add_argument("ring")
    p.set_defaults(func=cmd_analyze, modules=())

    p = sub.add_parser("classify", help="render the classification verdicts")
    p.add_argument("ring")
    p.add_argument(
        "--use-pa",
        action="store_true",
        help="base the spectrum condition on the subring action instead",
    )
    p.set_defaults(func=cmd_classify, modules=("classify",))

    p = sub.add_parser("pf", help="compute the largest scalar ring and its actions")
    p.add_argument("ring")
    p.set_defaults(func=cmd_pf, modules=("bilinear",))

    p = sub.add_parser("eqcheck", help="test elementary equivalence of two rings")
    p.add_argument("ring_a")
    p.add_argument("ring_b")
    p.add_argument("--bound", type=int, default=5)
    p.set_defaults(func=cmd_eqcheck, modules=("eqcheck",))

    p = sub.add_parser("deform", help="build a cocycle deformation of a ring")
    p.add_argument("ring")
    p.add_argument(
        "--g",
        help="torsion-quotient cocycle, e.g. e=2,d=0:1:0[,factor=1] "
        "(value in ambient coordinates, inside the annihilator)",
    )
    p.add_argument("--check-sixterm", action="store_true")
    p.set_defaults(func=cmd_deform, modules=("deform", "eqcheck"))

    p = sub.add_parser("modelcheck", help="evaluate a formula on a finite quotient")
    p.add_argument("ring")
    p.add_argument("--mod", type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", help="NAME,k=N with NAME in theta|phi|psi")
    group.add_argument("--formula", help="path to a formula file")
    p.set_defaults(func=cmd_modelcheck, modules=("fomc",))

    p = sub.add_parser("corpus", help="classify every ring file in a directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_corpus, modules=("classify",))

    return parser


def _exit_code(exc: Exception) -> int:
    """The exit code for an exception raised by a subcommand.

    The error classes of ``fomc``, ``bilinear``, ``deform`` and ``eqcheck``
    are imported here, so that a successful run never loads those modules
    for them.  A seeded search refused by its pool guard is a usage error.
    """
    from .bilinear import BilinearMapError
    from .deform import DeformationError
    from .eqcheck import SearchPoolError
    from .fomc import FormulaError

    if isinstance(
        exc,
        (RingFileError, FormulaError, CliParseError, SearchPoolError, OSError, UnicodeDecodeError),
    ):
        return EXIT_PARSE
    if isinstance(exc, (RingValidationError, BilinearMapError, DeformationError, GroupError)):
        return EXIT_INVALID_RING
    return EXIT_INTERNAL


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the subcommand's modules (those its cmd_* imports from) load before the
    # clock starts, so that timing_ms covers the computation alone
    for name in args.modules:
        importlib.import_module(f"{__package__}.{name}")
    if argv is None:
        # run as the program, which owns the collector: the start-up objects
        # live until exit, so no later collection, at shutdown included, walks them
        gc.freeze()
    started = time.perf_counter()
    try:
        payload = args.func(args)
        payload["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
        print(json.dumps(payload, indent=2, sort_keys=True))
    except Exception as exc:
        code = _exit_code(exc)
        if code == EXIT_INTERNAL:
            # anything unexpected is an internal failure, per the exit contract
            print(f"internal assertion failure: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
