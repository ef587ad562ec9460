"""Seeded generator of benchmark inputs.

Rings are mixed-torsion presentations: each generator is free (order 0)
or torsion of order 2, 3, 4 or 6, and every structure constant satisfies
the well-definedness congruences, so ``FdzRing`` accepts every ring made
here.  Base changes are products of transvections that preserve the
diagonal relation lattice in both directions.  Everything is drawn from a
``random.Random`` the caller seeds, so one seed always gives one input set.
"""

from __future__ import annotations

import random
from math import gcd

TORSION_ORDERS = (2, 3, 4, 6)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def random_orders(rng: random.Random, rank: int, torsion_share: float) -> tuple[int, ...]:
    """Free generators first, then torsion ones; at least one of each kind
    when the rank allows it."""
    torsion = round(rank * torsion_share)
    if rank >= 2:
        torsion = min(max(torsion, 1), rank - 1)
    free = rank - torsion
    return tuple([0] * free + sorted(rng.choice(TORSION_ORDERS) for _ in range(torsion)))


def random_tensor(
    rng: random.Random, orders: tuple[int, ...], density: float, coeff: int
) -> list[list[list[int]]]:
    """Structure constants c[i][j][k] valid for the given orders.

    A free target coordinate only takes products of two free generators; a
    torsion target of order d takes multiples of the step that makes
    d_i·c and d_j·c vanish mod d.
    """
    r = len(orders)
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if rng.random() >= density:
                    continue
                dk = orders[k]
                if dk == 0:
                    if orders[i] == 0 and orders[j] == 0:
                        tensor[i][j][k] = rng.randint(-coeff, coeff)
                    continue
                step = _lcm(
                    dk // gcd(dk, orders[i]) if orders[i] else 1,
                    dk // gcd(dk, orders[j]) if orders[j] else 1,
                )
                tensor[i][j][k] = rng.randrange(dk // step) * step
    return tensor


def random_ring_data(
    rng: random.Random,
    rank: int,
    torsion_share: float = 0.4,
    density: float = 0.3,
    coeff: int = 2,
) -> tuple[tuple[int, ...], list[list[list[int]]]]:
    """``(orders, tensor)`` of a random mixed-torsion ring of the given rank."""
    orders = random_orders(rng, rank, torsion_share)
    return orders, random_tensor(rng, orders, density, coeff)


def base_change(
    rng: random.Random, orders: tuple[int, ...], steps: int = 6
) -> tuple[list[list[int]], list[list[int]]]:
    """A unimodular ``t`` with inverse ``tinv``, both preserving the relation
    lattice of the diagonal orders.

    Each step is a transvection e_i -> e_i + q·e_j.  A free line never
    receives a torsion generator, and for two torsion lines q is a multiple
    of d_j / gcd(d_i, d_j), so d_i·e_i still maps into the relations.
    """
    r = len(orders)
    t = [[int(i == j) for j in range(r)] for i in range(r)]
    tinv = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        di, dj = orders[i], orders[j]
        if dj == 0 and di != 0:
            continue
        step = 1 if dj == 0 or di == 0 else dj // gcd(di, dj)
        q = step * rng.choice((-2, -1, 1, 2))
        for k in range(r):
            t[k][j] += q * t[k][i]
            tinv[i][k] -= q * tinv[j][k]
    return t, tinv


def reduce_vec(vec, orders) -> list[int]:
    return [x % d if d else x for x, d in zip(vec, orders)]


def mul_vec(tensor, orders, a, b) -> list[int]:
    """The product a·b from the structure constants, reduced."""
    r = len(orders)
    acc = [0] * r
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c = tensor[i][j]
                    for k in range(r):
                        acc[k] += ai * bj * c[k]
    return reduce_vec(acc, orders)


def row_times(v, m) -> list[int]:
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def transport_data(orders, tensor, t, tinv) -> list[list[list[int]]]:
    """The tensor of the same ring in the coordinates x -> x·t."""
    r = len(orders)
    return [
        [reduce_vec(row_times(mul_vec(tensor, orders, tinv[i], tinv[j]), t), orders) for j in range(r)]
        for i in range(r)
    ]
