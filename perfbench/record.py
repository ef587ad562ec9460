"""Record the expected outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the scalar-suite verdicts and pa-ring
invariants of each catalog ring, the size (or truth value) of each
model-checking op, and the digest of each CLI report with ``timing_ms``
blanked.  Catalog outputs are computed in the catalog's own presentation;
the benchmark checks them against fresh presentations of the same rings.
Run it only on a commit whose outputs are trusted; the committed file was
recorded on the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as w  # noqa: E402
from checks import cli_digest  # noqa: E402


def main() -> int:
    scalar = [
        {
            "classification": w.classification_summary(w.classify_op(data)),
            "pa_invariants": w.pa_invariants(w.pa_op(data)),
        }
        for data in w.catalog(w.SCALAR_CATALOG_SEED, w.SCALAR_RANKS)
    ]
    modelcheck = {}
    for stem, modulus, name, k in w.MODELCHECK_OPS:
        _, value = w._modelcheck_op(w.corpus_data(stem), modulus, name, k)
        modelcheck[f"{stem}/{modulus}/{name}{k}"] = value if name == "phi" else len(value)
    cli = {}
    for argv in w.cli_commands():
        result = w.run_cli(argv)
        if result.code != 0:
            print(f"cli {' '.join(argv)} exited {result.code}", file=sys.stderr)
            return 1
        cli[" ".join(argv)] = cli_digest(result.stdout)
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"scalar_suite": scalar, "modelcheck": modelcheck, "cli_corpus": cli}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
