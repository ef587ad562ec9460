"""fdzring benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  One process drives one closed
loop: ops run one at a time, CLI children one at a time.

A run executes batches of ops until ``--seconds`` is spent (at least
``MIN_BATCHES``), with the set-up probes spread between the batches.
Batch ``p`` of seed ``n`` always holds the same inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
batch twice, untraced and then traced, checks that both give identical
outputs and that the tracer restored every original, and prints the
per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also appends the full record (samples, percentiles, failures)
as a JSON line; ``perfbench/compare.py`` reads such files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_BATCHES = 3
SETUP_PROBES = 6
BARE_STARTS_PER_PROBE = 3
CLI_PROBES = 3
OP_TIMEOUT_S = 60
SPANS_DIR = os.path.join(ROOT, ".perfbench")


def import_library():
    """Import fdzring from this checkout's ``src``; exit non-zero if it is absent."""
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    try:
        import fdzring
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fdzring from {SRC}: {exc}")
    if not os.path.abspath(fdzring.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: fdzring resolved to {fdzring.__file__}, outside {SRC}")


# The kernel's fastest time on the 2-vCPU machine the benchmark was built
# on; in-process times are reported at that machine's quietest speed.
CALIBRATION_REFERENCE_S = 0.0024
# A bare interpreter start (``python -c pass``) on the same machine, median
# over the tuning runs; times of child processes (CLI commands, set-up
# probes) are reported at that speed.
BARE_START_REFERENCE_S = 0.075
SPEED_WINDOW = 4
_CAL_RNG = random.Random(20261017)
_CAL_MATRIX = [[_CAL_RNG.randint(-999, 999) for _ in range(12)] for _ in range(12)]


def calibration_kernel():
    """Fixed pure-Python work with the library's mix of big-integer
    elimination on fresh lists and tuples hashed into sets."""
    a = [list(row) for row in _CAL_MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            a[i] = [(a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev for j in range(n)]
        prev = a[k][k]
    seen = {tuple((x * v) % 101 for v in _CAL_MATRIX[x % n]) for x in range(1500)}
    return a[-1][-1], len(seen)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def bare_start_seconds() -> float:
    return timed_wall([sys.executable, "-c", "pass"])


def speed_gauge(workload):
    """What to time before each op to follow the machine's speed, and its
    time at the reference speed: the kernel for in-process ops, a bare
    interpreter start for ops that are child processes."""
    if workload.in_process:
        return kernel_seconds, CALIBRATION_REFERENCE_S
    return bare_start_seconds, BARE_START_REFERENCE_S


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def run_batch(ops, calibration, gauge):
    """Time each op, and the speed gauge before it (appended to
    ``calibration``, outside the batch wall); return
    (wall, [(label, seconds, result, error)])."""
    records = []
    wall = 0.0
    for op in ops:
        calibration.append(gauge())
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed op is counted, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        wall += seconds
        records.append((op.label, seconds, result, error))
    return wall, records


def check_batch(ops, records, outcome):
    """Fold one batch's results into ``outcome``; return the summaries."""
    summaries = []
    decided_ops = 0
    for op, (label, seconds, result, error) in zip(ops, records):
        outcome["labels"].append(label)
        outcome["latencies"].append(seconds)
        ok, decided, summary = False, False, None
        if error is None:
            try:
                ok, decided, summary = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and not ok:
            error = "wrong output"
        outcome["attempted"] += 1
        decided_ops += int(decided and error is None)
        if error is not None:
            outcome["failed"] += 1
            outcome["failures"].append({"op": label, "error": error})
        outcome["child_rss_mb"] = max(outcome["child_rss_mb"], getattr(result, "rss_mb", 0.0))
        summaries.append(summary)
    outcome["decided"].append(decided_ops / len(ops))
    return summaries


def tail(latencies):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_wall(command) -> float:
    t0 = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int):
    """A callable timing bare interpreter starts (their median) and then one
    fresh interpreter that imports fdzring and builds the first batch."""
    command = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)]
    return lambda: (
        statistics.median(bare_start_seconds() for _ in range(BARE_STARTS_PER_PROBE)),
        timed_wall(command),
    )


def cli_probes() -> dict[str, float]:
    """Interpreter start, ``import fdzring`` and its sympy share."""
    env_src = f"import sys; sys.path.insert(0, {SRC!r}); "
    interp = [timed_wall([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES)]
    imports, sympy = [], []
    for _ in range(CLI_PROBES):
        imports.append(timed_wall([sys.executable, "-c", env_src + "import fdzring"]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", env_src + "import fdzring"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        cumulative = [
            int(line.split("|")[1]) for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.split("|")[2].strip() == "sympy"
        ]
        sympy.append(sum(cumulative) / 1e6)
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.import_sympy_s": statistics.median(sympy),
    }


def new_outcome():
    return {
        "attempted": 0, "failed": 0, "decided": [], "labels": [], "latencies": [],
        "failures": [], "child_rss_mb": 0.0, "calibration": [],
    }


def op_medians(outcome, reference=None) -> list[float]:
    """Each op's median latency over its repetitions in the run.

    The machine this was built on shares its cores, and other tenants slow
    stretches of a run, or a whole run, by up to half.  The speed gauge
    timed before every op slows with them, so given the gauge's
    ``reference`` time each sample is first brought to the reference speed
    by the median gauge time of the ops around it.
    """
    calibration = outcome["calibration"]
    by_op: dict[str, list[float]] = {}
    for i, (label, seconds) in enumerate(zip(outcome["labels"], outcome["latencies"])):
        if reference:
            window = calibration[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
            seconds *= reference / statistics.median(window)
        by_op.setdefault(label, []).append(seconds)
    return [statistics.median(samples) for samples in by_op.values()]


def batch_estimate(outcome, ops_per_batch) -> float:
    """Wall time of one batch, rebuilt from the ops' unscaled medians."""
    return ops_per_batch * statistics.mean(op_medians(outcome))


def tail_mean(values, share=0.2) -> float:
    """Mean of the slowest ``share`` of the values: a tail figure that,
    unlike one percentile, does not hang on a single op."""
    ordered = sorted(values, reverse=True)
    return statistics.mean(ordered[: max(1, round(len(ordered) * share))])


def keep_going(started, walls, seconds, setups=()) -> bool:
    """Whether another batch, and the set-up probes still due, fit."""
    if len(walls) < MIN_BATCHES:
        return True
    probe_s = statistics.mean(BARE_STARTS_PER_PROBE * bare + probe for bare, probe in setups) if setups else 0.0
    probes_left = (SETUP_PROBES - len(setups)) * probe_s
    return time.perf_counter() - started + statistics.mean(walls) + probes_left <= seconds


def untraced(workload, seconds, gauge, probe):
    """Batches until ``seconds`` is spent; one set-up probe before each
    batch, and the probes still due after the last, so that ``setup_s``
    samples the whole run rather than one moment of it."""
    outcome, walls, setups = new_outcome(), [], []
    started = time.perf_counter()
    number = 0
    while keep_going(started, walls, seconds, setups):
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        ops = workload.batch(number)
        wall, records = run_batch(ops, outcome["calibration"], gauge)
        if number == 0:
            # Freed arenas stay mapped, so later batches only ratchet the
            # high-water mark; the first batch shows what one pass needs.
            outcome["first_batch_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_batch(ops, records, outcome)
        walls.append(wall)
        number += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    outcome["end_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcome, walls, setups


def traced(workload, seconds, gauge, spans_path):
    from tracer import Tracer, layer_totals

    tracer = Tracer()
    outcome, traced_outcome, walls, traced_walls, layers = new_outcome(), new_outcome(), [], [], []
    mismatches = 0
    restored = True
    started = time.perf_counter()
    number = 0
    first_spans = None
    while keep_going(started, walls, seconds):
        ops = workload.batch(number)
        wall, records = run_batch(ops, outcome["calibration"], gauge)
        plain = check_batch(ops, records, outcome)
        tracer.install()
        try:
            traced_wall, traced_records = run_batch(ops, traced_outcome["calibration"], gauge)
        finally:
            tracer.uninstall()
        restored = restored and tracer.restored()
        spans, counts, maxima = tracer.take()
        seen = check_batch(ops, traced_records, traced_outcome)
        mismatches += sum(a != b for a, b in zip(plain, seen))
        walls.append(wall)
        traced_walls.append(traced_wall)
        layers.append((layer_totals(spans), counts, maxima, records, traced_records))
        if first_spans is None:
            first_spans = spans
        number += 1
    # one batch's spans are enough to inspect; all of them run to tens of MB
    with open(spans_path, "w", encoding="utf-8") as spans_out:
        for name, start, end, parent in first_spans:
            spans_out.write(f"{name}\t{start:.7f}\t{end:.7f}\t{parent}\n")
    overhead = batch_estimate(traced_outcome, len(ops)) - batch_estimate(outcome, len(ops))
    return outcome, walls, traced_walls, layers, mismatches, restored, overhead


def per_layer_metrics(layers, overhead, workload) -> dict[str, float]:
    """Medians over traced batches of each layer's counts and self times."""

    def med(fn):
        return statistics.median(fn(*entry) for entry in layers)

    def total(name, field):
        return lambda totals, *_: totals.get(name, {}).get(field, 0.0)

    def count(key):
        return lambda totals, counts, *_: counts.get(key, 0.0)

    def maximum(key):
        return max(entry[2].get(key, 0.0) for entry in layers)

    metrics = {}
    for name in ("intlinalg.smith", "intlinalg.hermite_rows", "intlinalg.solve_congruences",
                 "groups.subgroup", "rings.characteristic_ideals", "rings.fdzring_init",
                 "bilinear.pf_ring", "bilinear.pa_ring", "eqcheck.iso_search"):
        metrics[f"{name}.calls"] = med(total(name, "calls"))
        metrics[f"{name}.self_s"] = med(total(name, "self_s"))
    for name in ("bilinear.induced_bilinear_map", "classify.indecomposable_factors",
                 "eqcheck.invariant_profile", "deform.build_deformation",
                 "deform.verify_sixterm", "fomc.defined_set", "fomc.evaluate"):
        metrics[f"{name}.self_s"] = med(total(name, "self_s"))
    metrics["eqcheck.verify_iso_witness.calls"] = med(total("eqcheck.verify_iso_witness", "calls"))
    for key in ("rings.characteristic_ideals.cache_hits", "rings.characteristic_ideals.cache_misses",
                "eqcheck.invariant_profile.cache_hits", "rings.mul.calls",
                "classify.factorization_incomplete.count", "eqcheck.iso_search.budget_exhausted",
                "deform.verify_sixterm.unknown"):
        metrics[key] = med(count(key))
    for key in ("intlinalg.smith.max_cells", "intlinalg.smith.max_bits",
                "intlinalg.solve_congruences.max_rows", "fomc.carrier_max"):
        metrics[key] = maximum(key)
    metrics.update(cli_probes())
    timings = [
        json.loads(result.stdout)["timing_ms"]
        for *_, records, _ in layers for _, _, result, error in records
        if error is None and not workload.in_process and result.code == 0
    ]
    metrics["cli.compute_ms"] = statistics.median(timings) if timings else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = statistics.median(
        sum(t["calls"] for t in entry[0].values()) for entry in layers)
    return metrics


def metric_units(kind: str, values: dict) -> dict[str, str]:
    """Units from BENCHMARK.json, which must name exactly these metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    if set(units) != set(values):
        sys.exit(f"perfbench: {kind} metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe:
        workload.batch(0)
        return 0
    signal.signal(signal.SIGALRM, _alarm)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    gauge, reference = speed_gauge(workload)
    if args.trace == 0:
        outcome, walls, setups = untraced(workload, args.seconds, gauge, setup_probe(args.workload, args.seed))
        correct = outcome["failed"] == 0
        raw_tail, tail_pct = tail(outcome["latencies"])
        medians = op_medians(outcome, reference)
        bare_starts, probes = zip(*setups)  # the unscaled samples, for the record
        rss = outcome["first_batch_rss_mb"] if workload.in_process else outcome["child_rss_mb"]
        values = {
            "wall_s": len(workload.batch(0)) * statistics.mean(medians),
            "op_p50_ms": statistics.median(medians) * 1000,
            "op_tail_ms": tail_mean(medians) * 1000,
            "setup_s": statistics.median(p * BARE_START_REFERENCE_S / b for b, p in setups),
            "peak_rss_mb": rss,
            "ok_ratio": 1 - outcome["failed"] / outcome["attempted"],
            # over the batches every run completes, so it does not depend on speed
            "decided_ratio": statistics.mean(outcome["decided"][:MIN_BATCHES]),
        }
        units = metric_units("end_to_end", values)
        record.update(
            batch_walls=walls, setup_samples=probes, setup_bare_starts=bare_starts, op_kinds=len(medians),
            op_samples=len(outcome["latencies"]), raw_p50_ms=statistics.median(outcome["latencies"]) * 1000,
            raw_tail_ms=raw_tail * 1000, raw_tail_percentile=tail_pct,
            failed_ratio=outcome["failed"] / outcome["attempted"],
            end_rss_mb=outcome["end_rss_mb"] if workload.in_process else outcome["child_rss_mb"],
        )
        print(f"# {args.workload} seed={args.seed}: {len(walls)} batches, {len(outcome['latencies'])} ops "
              f"of {len(medians)} kinds, {SETUP_PROBES} setup probes; "
              f"failed_ratio = {record['failed_ratio']:.4f}; peak RSS at the end {record['end_rss_mb']:.1f} MiB; "
              f"unscaled: setup {statistics.median(probes):.3f} s, op samples p50 = {record['raw_p50_ms']:.3f} ms, "
              f"tail p{tail_pct:.1f} = {raw_tail * 1000:.3f} ms")
    else:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        outcome, walls, traced_walls, layers, mismatches, restored, overhead = traced(
            workload, args.seconds, gauge, spans_path)
        values = per_layer_metrics(layers, overhead, workload)
        units = metric_units("per_layer", values)
        correct = outcome["failed"] == 0 and mismatches == 0 and restored
        record.update(batch_walls=walls, traced_batch_walls=traced_walls,
                      output_mismatches=mismatches, originals_restored=restored, spans_file=spans_path)
        print(f"# {args.workload} seed={args.seed}: {len(walls)} batch pairs, "
              f"traced/untraced output mismatches = {mismatches}, originals restored = {restored}")
    for failure in outcome["failures"]:
        print(f"failed op {failure['op']}: {failure['error']}", file=sys.stderr)
    for name, value in values.items():
        print(f"#   {name:45s} {value:14.6f} {units[name]}")
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if args.out:
        record.update(result, failures=outcome["failures"], labels=outcome["labels"], latencies_s=outcome["latencies"],
                      calibration_s=outcome["calibration"])
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
