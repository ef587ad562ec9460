"""Independent brute-force oracles shared by the test modules.

Everything here works by exhaustive element enumeration on finite rings,
deliberately avoiding the lattice machinery it is used to check.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

from fdzring.bilinear import BilinearMap, BilinearMapError, _pair_conditions, induced_bilinear_map
from fdzring.groups import FgAbelianGroup
from fdzring.intlinalg import (
    IntMatrix,
    Vec,
    hermite_rows,
    row_times_matrix,
    smith,
    solve_congruences,
)
from fdzring.rings import FdzRing


def subgroup_closure(ring: FdzRing, seed) -> frozenset:
    """The additive subgroup generated by the seed elements, as a set.

    Walks from zero by adding generators; in a finite group the sums of
    generators already form the subgroup.
    """
    gens = {ring.reduce(s) for s in seed}
    current = {ring.zero()}
    frontier = list(current)
    while frontier:
        a = frontier.pop()
        for b in gens:
            c = ring.add(a, b)
            if c not in current:
                current.add(c)
                frontier.append(c)
    return frozenset(current)


def brute_force_chain(ring: FdzRing) -> dict[str, frozenset]:
    """Characteristic ideals of a finite ring by pure set computation."""
    elements = list(ring.elements())
    zero = ring.zero()
    order = ring.order
    assert order is not None

    ann = frozenset(
        x
        for x in elements
        if all(ring.mul(x, y) == zero and ring.mul(y, x) == zero for y in elements)
    )
    products = {ring.mul(x, y) for x in elements for y in elements}
    sq = subgroup_closure(ring, products)

    def isolator(subset: frozenset) -> frozenset:
        return frozenset(
            x
            for x in elements
            if any(ring.scale(n, x) in subset for n in range(1, order + 1))
        )

    delta = isolator(sq)
    k = frozenset(ring.add(a, d) for a in ann for d in delta)
    ann_plus_sq = frozenset(ring.add(a, s) for a in ann for s in sq)
    l = isolator(ann_plus_sq)
    o = ann & delta
    return {"ann": ann, "sq": sq, "delta": delta, "k": k, "l": l, "o": o}


def sums_of_products(ring: FdzRing, n: int) -> frozenset:
    """Every sum of n products x·y of a finite ring, by enumeration."""
    elements = list(ring.elements())
    products = {ring.mul(x, y) for x in elements for y in elements}
    sums = products
    for _ in range(n - 1):
        sums = {ring.add(s, p) for s in sums for p in products}
    return frozenset(sums)


def complete_singletons(ring: FdzRing) -> frozenset:
    """The x that form a complete system on their own: whatever multiplies x
    to zero from both sides multiplies everything to zero."""
    elements = list(ring.elements())
    zero = ring.zero()

    def kills(y, x):
        return ring.mul(y, x) == zero and ring.mul(x, y) == zero

    ann = {y for y in elements if all(kills(y, z) for z in elements)}
    return frozenset(x for x in elements if all(y in ann for y in elements if kills(y, x)))


def subgroup_elements(ring: FdzRing, sub) -> frozenset:
    """The element set of a lattice-presented subgroup of a finite ring."""
    group, basis = sub.as_group()
    out = set()
    for coords in group.elements():
        out.add(ring.reduce(row_times_matrix(coords, basis)))
    return frozenset(out)


FINITE_ORDER_SHAPES = [
    (2,),
    (3,),
    (4,),
    (5,),
    (7,),
    (8,),
    (9,),
    (16,),
    (2, 2),
    (2, 4),
    (2, 6),
    (2, 8),
    (3, 3),
    (4, 4),
    (2, 2, 2),
    (2, 2, 4),
    (2, 2, 3),
    (6,),
    (12,),
    (2, 3),
]


def random_finite_ring(rng: random.Random, max_order: int = 16) -> FdzRing:
    """A random valid structure tensor over a random finite diagonal group."""
    shapes = [s for s in FINITE_ORDER_SHAPES if _prod(s) <= max_order]
    orders = rng.choice(shapes)
    r = len(orders)
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                dk = orders[k]
                step = _lcm(dk // gcd(dk, orders[i]), dk // gcd(dk, orders[j]))
                choices = dk // step
                tensor[i][j][k] = rng.randrange(choices) * step
    return FdzRing(orders, tensor)


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


MIXED_ORDER_SHAPES = [
    (0,),
    (0, 2),
    (0, 0),
    (0, 4),
    (0, 0, 2),
    (0, 2, 2),
    (0, 0, 3),
    (2, 0),
    (0, 6),
]


def random_mixed_ring(rng: random.Random, max_entry: int = 2) -> FdzRing:
    """A random valid ring over a mixed free/torsion diagonal group."""
    orders = rng.choice(MIXED_ORDER_SHAPES)
    r = len(orders)
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                dk = orders[k]
                if dk == 0:
                    # free target coordinates only take products of free
                    # generators
                    if orders[i] == 0 and orders[j] == 0:
                        tensor[i][j][k] = rng.randint(-max_entry, max_entry)
                else:
                    step = _lcm(
                        dk // gcd(dk, orders[i]) if orders[i] else 1,
                        dk // gcd(dk, orders[j]) if orders[j] else 1,
                    )
                    choices = dk // step
                    tensor[i][j][k] = rng.randrange(choices) * step
    return FdzRing(orders, tensor)


def random_lattice_preserving_unimodular(
    rng: random.Random, orders, steps: int = 6
) -> tuple[IntMatrix, IntMatrix]:
    """A unimodular base change preserving the diagonal relation lattice.

    Built from transvections e_i -> e_i + q·e_j with q chosen so both the
    map and its inverse respect the orders.
    """
    r = len(orders)
    t = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    tinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        di, dj = orders[i], orders[j]
        if dj == 0:
            step = 1 if di == 0 else 0  # cannot send torsion into a free line
        elif di == 0:
            step = 1
        else:
            step = dj // gcd(di, dj)
        if step == 0:
            continue
        q = step * rng.randint(-2, 2)
        if q == 0:
            continue
        # t := t * E and tinv := E^-1 * tinv, with E = I + q e_{ij}
        for k in range(r):
            t[k][j] += q * t[k][i]
        for k in range(r):
            tinv[i][k] -= q * tinv[j][k]
    return IntMatrix(t), IntMatrix(tinv)


def smith_left_kernel(a: IntMatrix) -> tuple[Vec, ...]:
    """Basis rows for {y : y·A = 0}, read off a full Smith decomposition.

    The rows of U past the nonzero diagonal of U·A·V = D span the left
    kernel.  This is the kernel the library computed before it switched to
    one-sided Hermite reduction, kept as the reference for that rewrite.
    """
    dec = smith(a)
    diag = dec.diagonal
    return tuple(
        dec.u.row(i) for i in range(a.rows) if i >= len(diag) or diag[i] == 0
    )


def brute_force_complement_exists(g: FgAbelianGroup, s_gens, kill_gens=()) -> bool:
    """Whether G = S ⊕ C for a subgroup C containing ``kill``, by search.

    Builds the addition table of the finite group g on its canonical
    representatives, lists every subgroup as a closure of generators, and
    asks for one C with S ∩ C = 0, |S|·|C| = |G| and kill ⊆ C.
    """
    elements = sorted(subgroup_closure(g, IntMatrix.identity(g.rank).data))
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[g.add(x, y)] for y in elements] for x in elements]
    zero = index[g.zero()]

    def closure(gens) -> frozenset:
        members, frontier = {zero}, [zero]
        while frontier:
            a = frontier.pop()
            for b in gens:
                c = table[a][b]
                if c not in members:
                    members.add(c)
                    frontier.append(c)
        return frozenset(members)

    subgroups = {closure(()): ()}
    frontier = list(subgroups.items())
    while frontier:
        h, gens = frontier.pop()
        for x in range(len(elements)):
            if x not in h:
                bigger = closure(gens + (x,))
                if bigger not in subgroups:
                    subgroups[bigger] = gens + (x,)
                    frontier.append((bigger, gens + (x,)))
    s = closure([index[g.reduce(v)] for v in s_gens])
    kill = closure([index[g.reduce(v)] for v in kill_gens])
    return any(
        len(s) * len(c) == len(elements) and s & c == {zero} and kill <= c
        for c in subgroups
    )


def brute_force_pairs(f: BilinearMap) -> set[tuple[Vec, ...]]:
    """All compatible endomorphism pairs of a finite map, canonicalized.

    Oracle for the lattice construction: enumerates every pair of matrices
    respecting the relation lattices and keeps those satisfying the three-way
    compatibility on generator pairs.  Pairs are canonicalized entrywise
    (column k reduced modulo the order of generator k).
    """
    m, n = f.domain_rank, f.codomain_rank
    if any(d == 0 for d in f.domain_orders) or any(d == 0 for d in f.codomain_orders):
        raise BilinearMapError("brute force requires finite domain and codomain")

    def endo_candidates(orders: Vec) -> list[IntMatrix]:
        size = len(orders)
        choices_per_entry = []
        for i in range(size):
            for k in range(size):
                valid = [
                    v
                    for v in range(orders[k])
                    if (orders[i] * v) % orders[k] == 0
                ]
                choices_per_entry.append(valid)
        out = []
        for flat in itertools.product(*choices_per_entry):
            out.append(
                IntMatrix(
                    [[flat[i * size + k] for k in range(size)] for i in range(size)],
                    cols=size,
                )
            )
        return out

    result = set()
    gens = [tuple(1 if t == i else 0 for t in range(m)) for i in range(m)]
    for phi in endo_candidates(f.domain_orders):
        phi_rows = [phi.row(i) for i in range(m)]
        for psi in endo_candidates(f.codomain_orders):
            ok = True
            for i in range(m):
                for j in range(m):
                    target = f.reduce_codomain(
                        row_times_matrix(f.values[i][j], psi)
                    )
                    if f.evaluate(phi_rows[i], gens[j]) != target:
                        ok = False
                        break
                    if f.evaluate(gens[i], phi_rows[j]) != target:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                result.add((tuple(phi.entries), tuple(psi.entries)))
    return result


def brute_force_isomorphic(a: FdzRing, b: FdzRing) -> bool:
    """Oracle: enumerate every additive bijection given by generator images."""
    if a.order is None or b.order is None:
        raise ValueError("brute force requires finite rings")
    if a.order != b.order:
        return False
    b_elements = list(b.elements())

    def candidates(d: int) -> list[Vec]:
        return [e for e in b_elements if b.scale(d, e) == b.zero()]

    per_gen = [candidates(d) for d in a.orders]
    for choice in itertools.product(*per_gen):
        h = IntMatrix(list(choice), cols=b.rank) if choice else IntMatrix([], cols=b.rank)
        # bijectivity: the images generate all of B
        generated = hermite_rows(
            list(choice) + [list(r) for r in b.additive.relation_basis], b.rank
        )
        if FgAbelianGroup(b.rank, generated).order != 1:
            continue
        ok = True
        for i in range(a.rank):
            for j in range(a.rank):
                image = row_times_matrix(a.tensor[i][j], h)
                if b.reduce(image) != b.mul(choice[i], choice[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def joint_pa_basis(ring: FdzRing) -> tuple[Vec, ...]:
    """Hermite basis of the pa pair lattice, solved as one system.

    Appends the linearity conditions of sq -> A/ann to the pair conditions
    and solves both together in the pair unknowns (phi flattened, then psi);
    the library instead solves the linearity conditions over the
    coordinates of the pf pair basis.  The pair ψ on sq and φ on A/ann must
    satisfy pi(ψ(s_k)) = φ(pi(s_k)) for every square generator s_k, where
    pi is the projection sq -> A/ann.
    """
    induced = induced_bilinear_map(ring)
    f = induced.map
    m, n = f.domain_rank, f.codomain_rank
    nunk = m * m + n * n
    pi = [
        row_times_matrix(induced.codomain_embed.row(k), induced.domain_project)
        for k in range(n)
    ]
    eqs, moduli = _pair_conditions(f)
    for k in range(n):
        for c in range(m):
            row = [0] * nunk
            for s in range(n):
                row[m * m + k * n + s] += pi[s][c]
            for t in range(m):
                row[t * m + c] -= pi[k][t]
            eqs.append(row)
            moduli.append(f.domain_orders[c])
    res = solve_congruences(eqs, moduli, unknowns=nunk)
    assert res is not None
    return res[1]


def _leibniz_det(m) -> int:
    """Determinant by the permutation expansion (small square matrices)."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def maximal_minors_gcd(rows, width: int) -> int:
    """gcd of the k x k minors of a k x width matrix; 0 when k > width.

    The k rows extend to a basis of Z^width exactly when this is 1.
    """
    k = len(rows)
    out = 0
    for cols in itertools.combinations(range(width), k):
        out = gcd(out, _leibniz_det([[row[c] for c in cols] for row in rows]))
    return out


def dense_mul(ring: FdzRing, a, b) -> Vec:
    """a·b summed over every (i, j, k) of the structure tensor, reduced."""
    r = ring.rank
    acc = [0] * r
    for i in range(r):
        for j in range(r):
            for k in range(r):
                acc[k] += a[i] * b[j] * ring.tensor[i][j][k]
    return tuple(x % d if d else x for x, d in zip(acc, ring.orders))
