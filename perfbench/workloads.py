"""The four benchmark workloads.

A workload turns ``(seed, batch number)`` into a batch of ops.  An op has a
``run`` callable, which is what gets timed, and a ``check`` callable, which
turns the result into ``(ok, decided, summary)`` outside the timed region.
``ok`` false means a wrong output; ``decided`` false means an ``unknown``
caused by a search budget or a bound; ``summary`` is a JSON-able digest of
the output, used to compare traced and untraced runs.

In-process ops are cold: each one rebuilds its ``FdzRing`` from
``(orders, tensor)`` and clears the ``lru_cache`` of the ideal chain and of
the invariant profile first.  Library entry points are looked up on the
``fdzring`` package at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import fdzring as fz
from checks import (
    BRUTE_FORCE_LIMIT,
    brute_defined_set,
    brute_phi,
    cli_digest,
    is_ring_isomorphism,
    pad_with_null_line,
    verdicts_match,
)
from gen import base_change, random_ring_data, transport_data

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Captured before any tracing, so the caches can always be cleared.
_CHAIN_CACHE = fz.characteristic_ideals
_PROFILE_CACHE = fz.invariant_profile

# Catalogs are drawn once from fixed generator seeds; the run seed picks
# the presentations (lattice-preserving base changes) each batch sees.  Verdicts are invariant under base change, so a catalog
# entry's expected outputs hold for every presentation.
SCALAR_CATALOG_SEED = 1
SCALAR_RANKS = (2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5)
SEARCH_CATALOG_SEED = 2
SEARCH_RANKS = (3, 3, 4, 4, 5, 5, 6)
DEFORM_CATALOG_SEED = 3
DEFORM_RANKS = (3, 4, 4, 5)
SHARES = (0.25, 0.4, 0.6)
DENSITIES = (0.2, 0.3, 0.45)
COEFFS = (1, 2, 3)
BASE_CHANGE_STEPS = 2

SEARCH_NODES = 5_000
CORPUS_SEARCH_SEEDS = (0, 1, 2, 3)

# (ring file stem, modulus, builtin name, k)
MODELCHECK_OPS = (
    ("w", 2, "theta", 2),
    ("w", 4, "theta", 1),
    ("w", 4, "theta", 2),
    ("w", 4, "psi", 1),
    ("w", 8, "phi", 1),
    ("zx2", 8, "theta", 1),
    ("zx2", 6, "psi", 1),
    ("zx2", 16, "phi", 1),
    ("zxz0", 6, "theta", 2),
    ("zxz0", 6, "psi", 1),
    ("zxz0", 4, "phi", 1),
)

CLI_BATCH = 4
CLI_RUN_COMMANDS = 12
CLI_TIMEOUT_S = 50


def catalog(seed: int, ranks) -> list[tuple[tuple[int, ...], list]]:
    rng = random.Random(seed)
    return [
        random_ring_data(rng, rank, SHARES[i % 3], DENSITIES[(i // 3) % 3], COEFFS[i % 3])
        for i, rank in enumerate(ranks)
    ]


def presentation(rng: random.Random, data):
    orders, tensor = data
    t, tinv = base_change(rng, orders, BASE_CHANGE_STEPS)
    return orders, transport_data(orders, tensor, t, tinv)


def cold_ring(data) -> "fz.FdzRing":
    _CHAIN_CACHE.cache_clear()
    _PROFILE_CACHE.cache_clear()
    return fz.FdzRing(*data)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def corpus_data(stem: str):
    ring = fz.load_ring(os.path.join(CORPUS, f"{stem}.ring"))
    return ring.orders, [[list(v) for v in row] for row in ring.tensor]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool, Any]]


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = load_expected()

    def rng(self, batch: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{batch}")

    def batch(self, number: int) -> list[Op]:
        raise NotImplementedError


# -- scalar_suite ---------------------------------------------------------------


def classification_summary(report) -> dict:
    return {
        "infinite": report.infinite,
        "tame": report.tame,
        "regular": report.regular,
        "qfa": report.qfa,
        "first_order_rigid_hint": report.first_order_rigid_hint,
        "super_tame": report.super_tame,
        "bi_interpretable": report.bi_interpretable,
        "justifications": list(report.justifications),
    }


def classify_op(data):
    return fz.classify_ring(cold_ring(data))


def pa_op(data):
    try:
        return fz.pa_ring(cold_ring(data))
    except fz.BilinearMapError:
        return None


def pa_invariants(action):
    return None if action is None else list(action.ring.additive.invariant_factors)


class ScalarSuite(Workload):
    """classify_ring and pa_ring, as separate cold ops, on mixed-torsion
    rings of rank 2-5."""

    name = "scalar_suite"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.catalog = catalog(SCALAR_CATALOG_SEED, SCALAR_RANKS)

    def batch(self, number: int) -> list[Op]:
        rng = self.rng(number)
        ops = []
        for index, data in enumerate(self.catalog):
            view = presentation(rng, data)
            expected = self.expected["scalar_suite"][index]

            def check_classify(report, expected=expected["classification"]):
                summary = classification_summary(report)
                return summary == expected, report.super_tame != "unknown", summary

            def check_pa(action, expected=expected["pa_invariants"]):
                summary = pa_invariants(action)
                return summary == expected, True, summary

            rank = len(data[0])
            ops.append(Op(f"classify/{index}/rank{rank}", lambda d=view: classify_op(d), check_classify))
            ops.append(Op(f"pa/{index}/rank{rank}", lambda d=view: pa_op(d), check_pa))
        return ops


# -- search -------------------------------------------------------------------------


def _check_iso(a, b, result):
    """``yes`` needs a witness that passes the independent check."""
    if result.kind == "no":
        return False, True, {"kind": "no"}
    if result.kind == "unknown":
        return True, False, {"kind": "unknown", "reason": result.reason}
    h = result.witness.matrix.data
    return is_ring_isomorphism(*a, *b, h), True, {"kind": "yes", "witness": [list(r) for r in h]}


def _check_equivalence(a, b, result):
    if result.kind == "not_equivalent":
        return False, True, {"kind": result.kind, "reason": result.reason}
    if result.kind == "unknown":
        return True, False, {"kind": "unknown", "reason": result.reason}
    h = result.witness.matrix.data
    ok = is_ring_isomorphism(*pad_with_null_line(*a), *pad_with_null_line(*b), h)
    return ok, True, {"kind": result.kind, "witness": [list(r) for r in h]}


def _check_sixterm(report):
    summary = {"status": report.status, "detail": report.detail}
    return report.status != "no", report.status == "commutes", summary


def _iso_op(a, b):
    return fz.iso_search(cold_ring(a), fz.FdzRing(*b), max_nodes=SEARCH_NODES)


def _equivalence_op(a, b, seed=0):
    return fz.equivalence_verdict(cold_ring(a), fz.FdzRing(*b), max_nodes=SEARCH_NODES, seed=seed)


def _deform_op(data):
    base = cold_ring(data)
    deformed = fz.build_deformation(fz.DeformationSpec(base=base)).ring
    return fz.verify_sixterm(base, deformed, max_nodes=SEARCH_NODES)


class Search(Workload):
    """Budget-bound searches: transported pairs, corpus self-pairs under
    several search seeds, and trivial deformations with the six-term check."""

    name = "search"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pairs = catalog(SEARCH_CATALOG_SEED, SEARCH_RANKS)
        self.deform = catalog(DEFORM_CATALOG_SEED, DEFORM_RANKS)
        self.corpus = {
            name[:-5]: corpus_data(name[:-5])
            for name in sorted(os.listdir(CORPUS))
            if name.endswith(".ring")
        }

    def batch(self, number: int) -> list[Op]:
        rng = self.rng(number)
        ops = []
        for index, data in enumerate(self.pairs):
            a, b = presentation(rng, data), presentation(rng, data)
            ops.append(Op(
                f"iso/{index}", lambda a=a, b=b: _iso_op(a, b),
                lambda r, a=a, b=b: _check_iso(a, b, r),
            ))
            ops.append(Op(
                f"equiv/{index}", lambda a=a, b=b: _equivalence_op(a, b),
                lambda r, a=a, b=b: _check_equivalence(a, b, r),
            ))
        for stem, data in self.corpus.items():
            for seed in CORPUS_SEARCH_SEEDS:
                ops.append(Op(
                    f"self/{stem}/seed{seed}",
                    lambda d=data, s=seed: _equivalence_op(d, d, s),
                    lambda r, d=data: _check_equivalence(d, d, r),
                ))
        for index, data in enumerate(self.deform):
            d = presentation(rng, data)
            ops.append(Op(f"sixterm/{index}", lambda d=d: _deform_op(d), _check_sixterm))
        return ops


# -- modelcheck -------------------------------------------------------------------


def _modelcheck_op(data, modulus, name, k):
    quotient = fz.reduce_mod_n(cold_ring(data), modulus)
    formula = fz.builtin(name, k)
    if name == "phi":
        return quotient, fz.evaluate(quotient, formula)
    return quotient, fz.defined_set(quotient, formula)


class ModelCheck(Workload):
    """fomc on finite quotients of W, Z[x]/(x^2) and Z x Z0, mixing defined
    sets (theta, psi) with sentence evaluation (phi)."""

    name = "modelcheck"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rings = {stem: corpus_data(stem) for stem in {op[0] for op in MODELCHECK_OPS}}

    def batch(self, number: int) -> list[Op]:
        rng = self.rng(number)
        views = {stem: presentation(rng, self.rings[stem]) for stem in sorted(self.rings)}
        ops = []
        for stem, modulus, name, k in MODELCHECK_OPS:
            key = f"{stem}/{modulus}/{name}{k}"
            expected = self.expected["modelcheck"][key]

            def check(result, name=name, k=k, expected=expected):
                quotient, value = result
                orders = quotient.orders
                tensor = [[list(v) for v in row] for row in quotient.tensor]
                small = quotient.order <= BRUTE_FORCE_LIMIT
                if name == "phi":
                    ok = value == expected and (not small or brute_phi(orders, tensor, k) == value)
                    return ok, True, value
                elements = [tuple(e) for e in value]
                ok = len(elements) == expected and (
                    not small or brute_defined_set(orders, tensor, name, k) == elements
                )
                return ok, True, [list(e) for e in elements]

            ops.append(Op(
                key, lambda d=views[stem], m=modulus, n=name, k=k: _modelcheck_op(d, m, n, k), check
            ))
        return ops


# -- cli_corpus -----------------------------------------------------------------------


def cli_commands() -> list[list[str]]:
    """Every CLI invocation the workload draws from, as argv tails."""
    files = sorted(name for name in os.listdir(CORPUS) if name.endswith(".ring"))
    path = {name: f"corpus/{name}" for name in files}
    commands = [["analyze", path[n]] for n in files]
    commands += [["classify", path[n]] for n in files]
    commands += [["pf", path[n]] for n in ("w.ring", "zx2.ring", "z.ring", "twoz.ring", "zxz0.ring")]
    commands += [
        ["eqcheck", path["z.ring"], path["twoz.ring"]],
        ["eqcheck", path["w.ring"], path["w.ring"]],
        ["eqcheck", path["zx2.ring"], path["zx2.ring"]],
        ["eqcheck", path["zxz0.ring"], path["z.ring"]],
        ["--seed", "2", "eqcheck", path["w_mod2.ring"], path["w_mod2.ring"]],
        ["--seed", "3", "eqcheck", path["z4.ring"], path["z4.ring"]],
        ["deform", path["w.ring"], "--check-sixterm"],
        ["deform", path["w.ring"], "--g", "e=2,d=0:1:0", "--check-sixterm"],
        ["modelcheck", path["w.ring"], "--mod", "2", "--builtin", "theta,k=3"],
        ["modelcheck", path["z.ring"], "--mod", "3", "--builtin", "phi,k=1"],
        ["modelcheck", path["zx2.ring"], "--mod", "4", "--builtin", "psi,k=1"],
        ["corpus", "corpus"],
    ]
    return commands


@dataclass
class CliResult:
    code: int
    stdout: str
    rss_mb: float


def run_cli(argv: list[str]) -> CliResult:
    """One fresh ``python -m fdzring.cli`` process, with its exit code,
    stdout and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "fdzring.cli", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + CLI_TIMEOUT_S
    fd = proc.stdout.fileno()
    chunks = []
    finished = False
    try:
        while not finished:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"cli {' '.join(argv)} exceeded {CLI_TIMEOUT_S} s")
            if select.select([fd], [], [], remaining)[0]:
                data = os.read(fd, 1 << 16)
                chunks.append(data)
                finished = not data
    finally:
        if not finished:
            proc.kill()
        # reap the child here, so its own rusage is the one reported
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return CliResult(proc.returncode, b"".join(chunks).decode(), usage.ru_maxrss / 1024)


def cli_decided(payload: dict) -> bool:
    if payload.get("verdict") == "unknown":
        return False
    if payload.get("sixterm", {}).get("status") == "unknown":
        return False
    reports = [payload.get("classification")] + [e["classification"] for e in payload.get("corpus", [])]
    return all(r is None or r.get("super_tame") != "unknown" for r in reports)


def cli_verdicts_ok(argv: list[str], payload: dict) -> bool:
    if "classify" in argv:
        return verdicts_match(os.path.basename(argv[-1]), payload["classification"])
    if "corpus" in argv:
        return all(verdicts_match(e["file"], e["classification"]) for e in payload["corpus"])
    return True


class CliCorpus(Workload):
    """A fresh CLI process per subcommand over corpus/, one at a time."""

    name = "cli_corpus"
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        # each run cycles through its own seeded dozen of the commands, so
        # every command it uses is timed several times
        self.commands = random.Random(f"{self.name}/{seed}").sample(cli_commands(), CLI_RUN_COMMANDS)
        # the corpus is parsed and validated once, as a user's first step
        for name in sorted(os.listdir(CORPUS)):
            if name.endswith(".ring"):
                fz.load_ring(os.path.join(CORPUS, name))

    def batch(self, number: int) -> list[Op]:
        n = len(self.commands)
        ops = []
        for i in range(number * CLI_BATCH, (number + 1) * CLI_BATCH):
            argv = self.commands[i % n]
            key = " ".join(argv)
            digest = self.expected["cli_corpus"][key]

            def check(result, argv=argv, digest=digest):
                if result.code != 0:
                    return False, True, {"exit": result.code}
                payload = json.loads(result.stdout)
                ok = cli_digest(result.stdout) == digest and cli_verdicts_ok(argv, payload)
                return ok, cli_decided(payload), cli_digest(result.stdout)

            ops.append(Op(key, lambda a=argv: run_cli(a), check))
        return ops


WORKLOADS = {w.name: w for w in (CliCorpus, ScalarSuite, ModelCheck, Search)}
