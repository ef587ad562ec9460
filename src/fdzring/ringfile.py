"""The line-oriented ring-file format.

    # optional comments
    rank: 3
    orders: 0 0 2
    mult 1 1 : 0 0 1

Indices are 1-based; absent generator pairs default to the zero product,
and each pair may appear at most once; integers are decimal and
whitespace-separated.  Serialization is canonical (header, then nonzero
products in row-major order), so parse ∘ serialize is the identity on
canonicalized files.
"""

from __future__ import annotations

from .rings import FdzRing, validate_ring

# above every corpus, test and benchmark rank; the tensor has rank^3 cells
RANK_LIMIT = 64


class RingFileError(ValueError):
    pass


def parse_ring_text(text: str) -> FdzRing:
    rank: int | None = None
    orders: list[int] | None = None
    products: dict[tuple[int, int], list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("rank:"):
                rank = int(line.split(":", 1)[1])
                if rank > RANK_LIMIT:
                    raise ValueError(f"rank {rank} exceeds the limit of {RANK_LIMIT}")
            elif line.startswith("orders:"):
                orders = [int(v) for v in line.split(":", 1)[1].split()]
            elif line.startswith("mult"):
                head, _, tail = line.partition(":")
                parts = head.split()
                if len(parts) != 3:
                    raise ValueError("expected 'mult i j : c1 ... cr'")
                i, j = int(parts[1]), int(parts[2])
                if (i, j) in products:
                    raise ValueError(f"duplicate product ({i}, {j})")
                products[(i, j)] = [int(v) for v in tail.split()]
            else:
                raise ValueError(f"unrecognized line: {line!r}")
        except ValueError as exc:
            raise RingFileError(f"line {lineno}: {exc}") from exc
    if rank is None:
        raise RingFileError("missing 'rank:' header")
    if orders is None:
        raise RingFileError("missing 'orders:' header")
    if len(orders) != rank:
        raise RingFileError("orders count does not match the rank")
    tensor = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for (i, j), vec in products.items():
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise RingFileError(f"product indices ({i}, {j}) out of range")
        if len(vec) != rank:
            raise RingFileError(f"product vector for ({i}, {j}) has wrong length")
        tensor[i - 1][j - 1] = vec
    return validate_ring(orders, tensor)


def serialize_ring(ring: FdzRing, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"rank: {ring.rank}")
    lines.append("orders: " + " ".join(str(d) for d in ring.orders))
    for i in range(ring.rank):
        for j in range(ring.rank):
            vec = ring.tensor[i][j]
            if any(vec):
                lines.append(
                    f"mult {i + 1} {j + 1} : " + " ".join(str(v) for v in vec)
                )
    return "\n".join(lines) + "\n"


def load_ring(path: str) -> FdzRing:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ring_text(handle.read())
