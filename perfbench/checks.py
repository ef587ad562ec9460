"""Output checks written independently of the library.

Every check here works from orders and structure constants with plain
integer arithmetic or by enumerating the carrier, so a fast but wrong
library change is caught and counted as a failed op.
"""

from __future__ import annotations

import hashlib
import itertools
import re

from gen import mul_vec, reduce_vec, row_times

# The verdict table that tests/test_classify.py asserts for the corpus.
CORPUS_VERDICTS = {
    "z.ring": {"tame": True, "qfa": "yes", "super_tame": "yes", "bi_interpretable": "yes"},
    "twoz.ring": {"tame": True, "qfa": "yes", "super_tame": "yes", "bi_interpretable": "yes"},
    "z0.ring": {"tame": False, "qfa": "no", "bi_interpretable": "no"},
    "zxz0.ring": {"bi_interpretable": "no"},
    "w.ring": {"tame": False, "qfa": "no", "regular": False},
    "zx2.ring": {"tame": True, "qfa": "yes"},
}

BRUTE_FORCE_LIMIT = 64

_TIMING = re.compile(r'"timing_ms": [^,\n]*')


def cli_digest(stdout: str) -> str:
    """sha256 of a CLI report with the timing field blanked out."""
    return hashlib.sha256(_TIMING.sub('"timing_ms": null', stdout).encode()).hexdigest()


def verdicts_match(file_name: str, classification: dict) -> bool:
    expected = CORPUS_VERDICTS.get(file_name, {})
    return all(classification.get(k) == v for k, v in expected.items())


# -- isomorphism witnesses ----------------------------------------------------


def spans_unit_lattice(rows, width: int) -> bool:
    """True when the integer rows generate all of Z^width."""
    rows = [list(r) for r in rows if any(r)]
    for col in range(width):
        while True:
            live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
            if len(live) <= 1:
                break
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for k in range(width):
                    r[k] -= q * pivot[k]
        live = [r for r in rows if r[col]]
        if not live or abs(live[0][col]) != 1:
            return False
        rows = [r for r in rows if r is not live[0] and any(r)]
    return True


def is_ring_isomorphism(orders_a, tensor_a, orders_b, tensor_b, h) -> bool:
    """Check that the rows of ``h`` (images of A's generators in B's
    coordinates) define a ring isomorphism A -> B.

    Both presentations are diagonal, so equal sorted orders mean equal
    additive groups, and a surjective endomorphism of a finitely generated
    abelian group is bijective.
    """
    ra, rb = len(orders_a), len(orders_b)
    h = [list(row) for row in h]
    if len(h) != ra or any(len(row) != rb for row in h):
        return False
    if sorted(orders_a) != sorted(orders_b):
        return False
    for i, d in enumerate(orders_a):
        if d and any(reduce_vec([d * x for x in h[i]], orders_b)):
            return False
    for i in range(ra):
        for j in range(ra):
            image = reduce_vec(row_times(tensor_a[i][j], h), orders_b)
            if image != mul_vec(tensor_b, orders_b, h[i], h[j]):
                return False
    relations = [[d if k == i else 0 for k in range(rb)] for i, d in enumerate(orders_b) if d]
    return spans_unit_lattice(h + relations, rb)


def pad_with_null_line(orders, tensor):
    """Z0 × A: a new first generator whose products are all zero."""
    r = len(orders) + 1
    padded = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(1, r):
        for j in range(1, r):
            padded[i][j][1:] = list(tensor[i - 1][j - 1])
    return (0,) + tuple(orders), padded


# -- first-order model checking by enumeration ---------------------------------


def carrier(orders):
    return [list(x) for x in itertools.product(*(range(d) for d in orders))]


def _sumsets(orders, tensor, elements, n):
    """S_1..S_n, where S_k is the set of sums of k products."""
    products = {tuple(mul_vec(tensor, orders, a, b)) for a in elements for b in elements}
    sets = [products]
    for _ in range(n - 1):
        sets.append({
            tuple(reduce_vec([x + y for x, y in zip(s, p)], orders))
            for s in sets[-1]
            for p in products
        })
    return sets


def brute_defined_set(orders, tensor, name: str, k: int) -> list[tuple[int, ...]]:
    """The set defined by theta(k) or psi(1), by enumeration."""
    elements = carrier(orders)
    zero = [0] * len(orders)
    if name == "theta":
        return sorted(_sumsets(orders, tensor, elements, k)[-1])
    if name == "psi" and k == 1:
        def kills(y, x):
            return mul_vec(tensor, orders, y, x) == zero and mul_vec(tensor, orders, x, y) == zero

        ann = [y for y in elements if all(kills(y, z) for z in elements)]
        ann_set = {tuple(y) for y in ann}
        return sorted(
            tuple(x)
            for x in elements
            if all(tuple(y) in ann_set for y in elements if kills(y, x))
        )
    raise ValueError(f"no enumeration oracle for {name}({k})")


def brute_phi(orders, tensor, k: int) -> bool:
    """phi(k): every sum of k+1 products is a sum of k products."""
    sets = _sumsets(orders, tensor, carrier(orders), k + 1)
    return sets[k] <= sets[k - 1]
