"""Independent brute-force oracles shared by the test modules.

Most of these work by exhaustive element enumeration on finite rings,
deliberately avoiding the lattice machinery they are used to check.  The
rest keep a recipe the library used before a rewrite, as its reference.
The Tarskian evaluator and the cocycle value tables at the end are the
references for the model checker and for the cyclic normal form of
cocycles; the library holds neither.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import contextmanager
from functools import cached_property
from math import gcd

from fdzring.bilinear import BilinearMap, BilinearMapError, ScalarRingAction, induced_bilinear_map
from fdzring.deform import DeformationContext, DeformationError
from fdzring.fomc import Add, And, Eq, Exists, Forall, Implies, Mul, Neg, Not, Or, Var, Zero
from fdzring.groups import FgAbelianGroup, Subgroup, split_complement
from fdzring.intlinalg import (
    DiagonalPresentation,
    IntMatrix,
    Vec,
    affine_preimage,
    diagonal_presentation,
    hermite_reduce,
    hermite_rows,
    preimage_lattice,
    record,
    reduce_mod_orders,
    row_times_matrix,
    smith_diagonal,
    solve_congruences,
)
from fdzring.ringfile import load_ring
from fdzring.rings import (
    FdzRing,
    IdealChain,
    annihilator,
    characteristic_ideals,
    quotient_ring,
    reduce_mod_n,
    square_ideal,
    subring_presentation,
)

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "corpus")

# the corpus rings the tests name, in the order they iterate over them
NAMED_RINGS = ("z", "twoz", "z0", "zxz0", "w", "zx2")


def corpus_ring(stem: str) -> FdzRing:
    """The ring of ``corpus/<stem>.ring``."""
    return load_ring(os.path.join(CORPUS, f"{stem}.ring"))


def corpus_rings() -> list[FdzRing]:
    """Every ring under ``corpus/``, in file-name order."""
    return [corpus_ring(name.removesuffix(".ring")) for name in sorted(os.listdir(CORPUS))]


def z_mod(n: int) -> FdzRing:
    """Z/n with the usual product."""
    return reduce_mod_n(corpus_ring("z"), n)


# -- small helpers only the tests use --------------------------------------------


def lattice_contains(basis, vec) -> bool:
    """Whether ``vec`` lies in the lattice spanned by Hermite basis rows."""
    return not any(hermite_reduce(basis, vec))


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)


def quotient_of_subgroups(big: Subgroup, small: Subgroup) -> FgAbelianGroup:
    """big/small as an abstract group (small must lie inside big)."""
    return big.as_group_with(small)[2].quotient()


def element_order(g: FgAbelianGroup, vec) -> int | None:
    """Additive order of the coset of ``vec`` in g (None = infinite): the
    index of {n : n·vec in the relations} in Z."""
    pre = preimage_lattice(IntMatrix([list(vec)], cols=g.rank), g.relation_basis)
    return (abs(pre[0][0]) if pre else 0) or None


def reference_from_orders(orders) -> FgAbelianGroup:
    """``FgAbelianGroup.from_orders`` as it was: the rows d_i·e_i reduced
    to Hermite form again."""
    r = len(orders)
    return FgAbelianGroup(r, [[d if j == i else 0 for j in range(r)] for i, d in enumerate(orders) if d])


def reference_quotient(s: Subgroup) -> FgAbelianGroup:
    """``Subgroup.quotient`` as it was: the lift basis reduced again."""
    return FgAbelianGroup(s.parent.rank, s.lift_basis)


def reference_as_group(s: Subgroup) -> tuple[FgAbelianGroup, IntMatrix]:
    """``Subgroup.as_group`` as it was: the relations are the preimage
    lattice of the parent's relations under the lift basis."""
    basis = IntMatrix(s.lift_basis, cols=s.parent.rank)
    return FgAbelianGroup(basis.rows, preimage_lattice(basis, s.parent.relation_basis)), basis


def transport(a: FdzRing, t: IntMatrix, tinv: IntMatrix) -> FdzRing:
    """Rewrite A along the additive base change x -> x·t.

    ``t`` must be unimodular with both t and tinv preserving the relation
    lattice; the result is the identical ring presented in new coordinates.
    """
    if t.mul(tinv) != IntMatrix.identity(a.rank):
        raise ValueError("base change must be unimodular with the given inverse")
    tensor = [
        [row_times_matrix(a.mul(tinv.row(i), tinv.row(j)), t) for j in range(a.rank)]
        for i in range(a.rank)
    ]
    return FdzRing(a.orders, tensor)


def k_to_ambient(ctx, kvec) -> Vec:
    """The element of a deformation context's base ring with k-space
    coordinates ``kvec`` (delta, then the addition)."""
    return ctx.base.reduce(row_times_matrix(kvec, ctx.k_basis))


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


def eager_chain(a: FdzRing) -> dict[str, object]:
    """Every ideal and quotient of the chain of ``a``, all built at once in
    the order ``characteristic_ideals`` built them before its chain became
    lazy, keyed by the chain's member names."""
    ann = annihilator(a)
    sq = square_ideal(a)
    delta = sq.saturate()
    k_ideal = ann.sum(delta)
    l_ideal = ann.sum(sq).saturate()
    return {
        "ann": ann,
        "sq": sq,
        "delta": delta,
        "k_ideal": k_ideal,
        "l_ideal": l_ideal,
        "o_ideal": ann.intersect(delta),
        "m_quot": l_ideal.quotient(),
        "n_quot": FgAbelianGroup.from_orders(
            [d for d in k_ideal.quotient().invariant_factors if d]
        ),
    }


def ill_defined_reference(domain_orders, codomain_orders, values):
    """The first (i, j, k) at which d_i·c or d_j·c, for c = values[i][j][k],
    fails to vanish modulo the k-th codomain order: both sides tested
    separately, as ``ill_defined_product`` did before it tested their gcd."""
    for i, di in enumerate(domain_orders):
        for j, dj in enumerate(domain_orders):
            for k, dk in enumerate(codomain_orders):
                c = values[i][j][k]
                for d_side in (di, dj):
                    v = d_side * c
                    if (dk == 0 and v != 0) or (dk != 0 and v % dk):
                        return i, j, k
    return None


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
    return random_ring_over(rng, rng.choice(MIXED_ORDER_SHAPES), max_entry)


RANKED_ORDERS = (0, 0, 1, 2, 3, 4, 6, 12)


def random_ring_of_rank(rng: random.Random, rank: int, max_entry: int = 2) -> FdzRing:
    """A random valid ring on ``rank`` generators of mixed orders.

    Orders come from 0 (free), 1 (a trivial generator) and 2, 3, 4, 6, 12,
    so coprime orders merge into larger invariant factors.
    """
    orders = tuple(rng.choice(RANKED_ORDERS) for _ in range(rank))
    return random_ring_over(rng, orders, max_entry)


def random_ring_over(rng: random.Random, orders, max_entry: int = 2) -> FdzRing:
    """Random structure constants that are well defined over ``orders``."""
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


@record
class SmithDecomposition:
    """U·A·V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    The inverses of the transforms are tracked alongside the elimination,
    where unimodular inversion is cheapest.
    """

    u: IntMatrix
    v: IntMatrix
    d: IntMatrix
    uinv: IntMatrix
    vinv: IntMatrix

    @property
    def diagonal(self) -> Vec:
        return self.d.diagonal()


def smith(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary operations with minimal-pivot choice.

    The four-transform elimination the library ran before it kept only V
    and V⁻¹: every step updates whole rows and columns of D, U, U⁻¹, V and
    V⁻¹, scans the whole block for its pivot and, after every pivot, for
    an entry the pivot does not divide.  ``intlinalg._smith_columns`` must
    make the same choices, so ``reference_diagonal_presentation`` on it is
    the reference for ``diagonal_presentation``.
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= q * r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        vinv[j] = [x - q * y for x, y in zip(vinv[j], vinv[i])]

    for t in range(min(m, n)):
        while True:
            # minimal nonzero pivot in the remaining block
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    val = abs(d[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // p
                    row_addmul(i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // p
                    col_addmul(j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)

    return SmithDecomposition(
        u=IntMatrix(u, cols=m),
        v=IntMatrix(v, cols=n),
        d=IntMatrix(d, cols=n),
        uinv=IntMatrix(uinv, cols=m),
        vinv=IntMatrix(vinv, cols=n),
    )


def reference_diagonal_presentation(relations, rank: int) -> DiagonalPresentation:
    """``diagonal_presentation`` read off the four-transform ``smith``: the
    diagonal padded with zeros to ``rank``, the columns of V and the rows of
    V⁻¹ at its non-unit entries."""
    dec = smith(IntMatrix(relations, cols=rank))
    diag = list(dec.diagonal) + [0] * (rank - len(dec.diagonal))
    keep = [i for i, d in enumerate(diag) if d != 1]
    return DiagonalPresentation(
        orders=tuple(diag[i] for i in keep),
        project=IntMatrix([[row[j] for j in keep] for row in dec.v.data], cols=len(keep)),
        lift=IntMatrix([dec.vinv.row(i) for i in keep], cols=rank),
    )


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


def reference_echelon(rows, width: int) -> list[list[int]]:
    """Row echelon basis of the lattice spanned by dense ``rows``.

    The dense elimination the library ran before it kept its rows sparse:
    Euclid on each column over all rows still live there, with no modulus
    bookkeeping.  Pivots are positive and strictly increasing; entries above
    a pivot are left as they fall.
    """
    work = [r for r in (list(map(int, r)) for r in rows) if any(r)]
    for r in work:
        if len(r) != width:
            raise ValueError("row width mismatch")
    basis: list[list[int]] = []
    for col in range(width):
        live = [r for r in work if r[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            p, tail = base[col], base[col:]
            for r in live[1:]:
                q = r[col] // p
                if q:
                    r[col:] = [x - q * y for x, y in zip(r[col:], tail)]
            live = [r for r in live if r[col]]
        row = live[0]
        work = [r for r in work if not r[col]]
        if row[col] < 0:
            row[col:] = [-x for x in row[col:]]
        basis.append(row)
    return basis


def reference_hermite_rows(rows, width: int) -> tuple[Vec, ...]:
    """Hermite basis by ``reference_echelon`` and reduction above the pivots."""
    basis = reference_echelon(rows, width)
    col = 0
    for j, row in enumerate(basis):
        while not row[col]:
            col += 1
        p, tail = row[col], row[col:]
        for prow in basis[:j]:
            q = prow[col] // p
            if q:
                prow[col:] = [x - q * y for x, y in zip(prow[col:], tail)]
    return tuple(tuple(r) for r in basis)


def reference_preimage_lattice(w: IntMatrix, target_basis) -> tuple[Vec, ...]:
    """{x : x·W in span(target_basis)} from a dense echelon of [W | I] over
    [T | 0], its kernel rows echeloned a second time."""
    width, tags = w.cols, w.rows
    rows = [list(r) + [1 if j == i else 0 for j in range(tags)] for i, r in enumerate(w.data)]
    rows += [list(t) + [0] * tags for t in target_basis]
    kernel = [r[width:] for r in reference_echelon(rows, width + tags) if not any(r[:width])]
    return reference_hermite_rows(kernel, tags)


def reference_affine_preimage(w: IntMatrix, target_basis, rhs):
    """``affine_preimage`` on ``reference_preimage_lattice``."""
    if len(rhs) != w.cols:
        raise ValueError("right-hand side length mismatch")
    tagged = IntMatrix([[-int(x) for x in rhs], *w.data], cols=w.cols)
    basis = reference_preimage_lattice(tagged, target_basis)
    if not basis or basis[0][0] != 1:
        return None
    return basis[0][1:], tuple(row[1:] for row in basis[1:])


def sparse_rows(rows) -> list[dict[int, int]]:
    """Dense rows as the {column: coefficient} maps ``solve_congruences`` takes."""
    return [{j: int(x) for j, x in enumerate(r) if x} for r in rows]


def reference_pair_conditions(f: BilinearMap) -> tuple[list[list[int]], list[int]]:
    """The pair conditions of f as dense rows over the flattened pair (phi
    on the domain, then psi on the codomain), in the library's order: the
    order rows d_i·phi_ik and d_i·psi_ik, then per generator pair (i, j) and
    codomain coordinate k the rows of f(phi·e_i, e_j) = psi(f(e_i, e_j)) and
    f(e_i, phi·e_j) = psi(f(e_i, e_j)).  The library built them this way
    before it wrote them sparse."""
    m, n = f.domain_rank, f.codomain_rank
    nunk = m * m + n * n

    def phi_idx(i, j):
        return i * m + j

    def psi_idx(i, j):
        return m * m + i * n + j

    eqs: list[list[int]] = []
    moduli: list[int] = []
    for i in range(m):
        if f.domain_orders[i] == 0:
            continue
        for k in range(m):
            row = [0] * nunk
            row[phi_idx(i, k)] = f.domain_orders[i]
            eqs.append(row)
            moduli.append(f.domain_orders[k])
    for i in range(n):
        if f.codomain_orders[i] == 0:
            continue
        for k in range(n):
            row = [0] * nunk
            row[psi_idx(i, k)] = f.codomain_orders[i]
            eqs.append(row)
            moduli.append(f.codomain_orders[k])
    for i in range(m):
        for j in range(m):
            base = f.values[i][j]
            for k in range(n):
                left = [0] * nunk
                for t in range(m):
                    left[phi_idx(i, t)] += f.values[t][j][k]
                for s in range(n):
                    left[psi_idx(s, k)] -= base[s]
                eqs.append(left)
                moduli.append(f.codomain_orders[k])
                right = [0] * nunk
                for t in range(m):
                    right[phi_idx(j, t)] += f.values[i][t][k]
                for s in range(n):
                    right[psi_idx(s, k)] -= base[s]
                eqs.append(right)
                moduli.append(f.codomain_orders[k])
    return eqs, moduli


def reference_pairing_equations(values, codomain_orders, rank, indices):
    """Dense rows of the congruences in x for coordinate k of x·e_j, then of
    e_j·x, for j in ``indices``: the library's pairing equations as it built
    them before it wrote them sparse."""
    eqs, moduli = [], []
    for j in indices:
        for k, dk in enumerate(codomain_orders):
            eqs.append([values[i][j][k] for i in range(rank)])
            moduli.append(dk)
            eqs.append([values[j][i][k] for i in range(rank)])
            moduli.append(dk)
    return eqs, moduli


def reference_solve_congruences(equations, moduli, rhs=None, unknowns=None):
    """``solve_congruences`` on the system exactly as written: no equation
    reduced or dropped, one modulus row per nonzero modulus, the dense
    reference echelon underneath."""
    eqs = [list(map(int, e)) for e in equations]
    nunk = len(eqs[0]) if eqs else unknowns
    columns = IntMatrix(list(zip(*eqs)) if eqs else [()] * nunk, cols=len(eqs))
    modulus_rows = [
        [int(m) if i == r else 0 for i in range(len(eqs))]
        for r, m in enumerate(moduli)
        if m
    ]
    if rhs is None:
        return tuple([0] * nunk), reference_preimage_lattice(columns, modulus_rows)
    return reference_affine_preimage(columns, modulus_rows, rhs)


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


def pair_of(action: ScalarRingAction, coords) -> tuple[IntMatrix, IntMatrix]:
    """The endomorphism pair (phi, psi) of the scalar ring element with these
    coordinates: the same combination of the generators' pairs."""

    def combine(mats, size: int) -> IntMatrix:
        entries = [
            [sum(c * mat[(i, j)] for c, mat in zip(coords, mats)) for j in range(size)]
            for i in range(size)
        ]
        return IntMatrix(entries, cols=size)

    f = action.bilinear
    return (
        combine(action.action_on_domain, f.domain_rank),
        combine(action.action_on_codomain, f.codomain_rank),
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
                    target = reduce_mod_orders(
                        row_times_matrix(f.values[i][j], psi), f.codomain_orders
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


def profile_fingerprints_oracle(a: FdzRing) -> tuple:
    """The mod-n fingerprints of the full invariant profile, by subgroup
    algebra: (n, |A/nA|, A/nA, (sq + nA)/nA) for n = 2..16.

    For each n it builds nA as a subgroup of A, then takes A/nA and the
    image of the square as quotient groups, the way the library did before
    it computed them in closed form.
    """
    sq = characteristic_ideals(a).sq
    out = []
    for n in range(2, 17):
        scaled = a.additive.subgroup(
            [[n if j == i else 0 for j in range(a.rank)] for i in range(a.rank)]
        )
        quot = scaled.quotient()
        image = quotient_of_subgroups(sq.sum(scaled), scaled)
        out.append((n, quot.order, quot.invariant_factors, image.invariant_factors))
    return tuple(out)


def reference_fingerprints(a: FdzRing) -> tuple[tuple[int, Vec], ...]:
    """``InvariantProfile.fingerprints`` with one elimination mod n for
    every modulus, as before the moduli prime to the torsion came to share
    one Smith diagonal over Z."""
    from fdzring.eqcheck import FINGERPRINT_MODULI

    square = characteristic_ideals(a).sq.lift_basis
    out = []
    for n in FINGERPRINT_MODULI:
        steps = [n // gcd(n, d) for d in a.orders]
        diag = smith_diagonal([[x * s for x, s in zip(row, steps)] for row in square], a.rank, n)
        out.append((n, tuple(n // e for e in reversed(diag) if e != n)))
    return tuple(out)


def full_profile_oracle(a: FdzRing) -> tuple[tuple[str, object], ...]:
    """The invariant profile with every entry the library once compared, in
    its comparison order, as (name, value) pairs: the ideal-chain groups
    read off diagonal presentations (Smith with transforms), then the
    fingerprints of ``profile_fingerprints_oracle``, named mod_n."""
    chain = characteristic_ideals(a)
    groups = [
        ("additive", a.additive),
        ("ann", chain.ann.as_group()[0]),
        ("square", chain.sq.as_group()[0]),
        ("delta", chain.delta.as_group()[0]),
        ("k_ideal", chain.k_ideal.as_group()[0]),
        ("l_ideal", chain.l_ideal.as_group()[0]),
        ("m_quot", chain.m_quot),
        ("n_quot", chain.n_quot),
        ("mod_square", chain.sq.quotient()),
    ]
    fields = [(name, group.diagonal.orders) for name, group in groups]
    fields += [(f"mod_{n}", entry) for n, *entry in profile_fingerprints_oracle(a)]
    return tuple(fields)


def full_profile_first_mismatch(mine, theirs) -> str | None:
    """The first entry where two ``full_profile_oracle`` profiles differ."""
    return next((name for (name, x), (_, y) in zip(mine, theirs) if x != y), None)


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
    f = induced_bilinear_map(ring)
    pres = ChainPresentations(ring)
    m, n = f.domain_rank, f.codomain_rank
    nunk = m * m + n * n
    pi = [
        row_times_matrix(pres.square_pres.lift.row(k), pres.hat.project)
        for k in range(n)
    ]
    eqs, moduli = reference_pair_conditions(f)
    for k in range(n):
        for c in range(m):
            row = [0] * nunk
            for s in range(n):
                row[m * m + k * n + s] += pi[s][c]
            for t in range(m):
                row[t * m + c] -= pi[k][t]
            eqs.append(row)
            moduli.append(f.domain_orders[c])
    res = solve_congruences(sparse_rows(eqs), moduli, unknowns=nunk)
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


def extends_to_basis(rows, width: int) -> bool:
    """Whether the k rows of width f extend to a basis of Z^f.

    That holds iff the gcd of the k x k minors is 1, i.e. iff the f columns
    span Z^k: the Hermite basis of the transposed rows is the k x k
    identity (Cohen, GTM 138, 2.4).  It implies the rows are independent.
    """
    k = len(rows)
    columns = [[row[t] for row in rows] for t in range(width)]
    identity = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return hermite_rows(columns, k) == identity


def dense_mul(ring: FdzRing, a, b) -> Vec:
    """a·b summed over every (i, j, k) of the structure tensor, reduced."""
    r = ring.rank
    acc = [0] * r
    for i in range(r):
        for j in range(r):
            for k in range(r):
                acc[k] += a[i] * b[j] * ring.tensor[i][j][k]
    return tuple(x % d if d else x for x, d in zip(acc, ring.orders))


def pair_checks_at(a: FdzRing, gen_order) -> list[list[tuple[int, int, tuple]]]:
    """Each product x_p·x_q = sum c_k x_k of A, at the first search position
    where its factors and the support of its value are all assigned."""
    position = {idx: pos for pos, idx in enumerate(gen_order)}
    checks_at: list[list[tuple[int, int, tuple]]] = [[] for _ in gen_order]
    for p in range(a.rank):
        for q in range(a.rank):
            terms = tuple((k, c) for k, c in enumerate(a.tensor[p][q]) if c)
            needed = {p, q} | {k for k, _ in terms}
            checks_at[max(position[i] for i in needed)].append((p, q, terms))
    return checks_at


def pair_checks_ok(b: FdzRing, checks, images) -> bool:
    """Every product check holds: sum c_k x_k and x_p·x_q agree in B."""
    for p, q, terms in checks:
        acc = [0] * b.rank
        for k, c in terms:
            acc = [x + c * y for x, y in zip(acc, images[k])]
        if b.reduce(acc) != b.mul(images[p], images[q]):
            return False
    return True


def candidate_images(b: FdzRing, order: int, bound: int):
    """The images the search tries for a generator of the given additive
    order (0 = infinite), in its pool order, one product tuple at a time.

    Free coordinates run over 0, 1, -1, ..., bound, -bound (only 0 for a
    torsion order), a Z/d coordinate over the x in [0, d) with order·x = 0
    (all of them for order 0); a tuple is kept when its additive order,
    the lcm of its coordinates' orders (0 once a free one is nonzero), is
    exactly ``order``.
    """
    coefficients = [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]
    ranges = [
        ([0] if order else coefficients) if d == 0
        else [x for x in range(d) if order * x % d == 0] if order else range(d)
        for d in b.orders
    ]
    for cand in itertools.product(*ranges):
        got = 1
        for x, d in zip(cand, b.orders):
            if d == 0 and x:
                got = 0
                break
            if d:
                e = d // gcd(d, x)
                got = got * e // gcd(got, e)
        if got == order:
            yield cand


class LazyPool:
    """Re-iterable view of an iterator that stores only what was consumed.

    The reference search charges one node per candidate it takes, so a pool
    never holds more than the node budget, however large the full candidate
    set.
    """

    def __init__(self, source):
        self._source = source
        self._seen: list = []

    def __iter__(self):
        seen = self._seen
        i = 0
        while True:
            if i == len(seen):
                item = next(self._source, None)
                if item is None:
                    return
                seen.append(item)
            yield seen[i]
            i += 1


def reference_iso_witnesses(a: FdzRing, b: FdzRing, coeff_bound: int, max_nodes: int, seed: int = 0):
    """The isomorphism search checking each product pair per candidate.

    The search the library ran before it folded each level's checks into
    one affine test: same candidate order, one node per candidate taken,
    the same basis-extension prune, tested on the Hermite basis of the whole
    free prefix, and the same witness verification.  The annihilator prune
    is tested on the whole prefix too: every relation c among the assigned
    generators with sum c_j e_j in ann A, a basis of them from
    ``reference_preimage_lattice``, must have its image in ann B.
    Seeded pools are built whole, with no size guard.
    """
    from fdzring.eqcheck import verify_iso_witness

    order_of = list(a.orders)
    gen_order = sorted(range(a.rank), key=lambda i: (order_of[i] == 0, order_of[i]))
    if seed:
        candidates = {d: list(candidate_images(b, d, coeff_bound)) for d in set(order_of)}
        rng = random.Random(seed)
        for pool in candidates.values():
            rng.shuffle(pool)
    else:
        candidates = {
            d: LazyPool(candidate_images(b, d, coeff_bound)) for d in set(order_of)
        }
    checks_at = pair_checks_at(a, gen_order)
    images: dict[int, Vec] = {}
    budget = [max_nodes]
    free_gens = [i for i in gen_order if order_of[i] == 0]
    free_coords = [t for t in range(b.rank) if b.orders[t] == 0]
    ann_a, ann_b = characteristic_ideals(a).ann, characteristic_ideals(b).ann
    units = IntMatrix.identity(a.rank).data
    # per level, a basis of the relations among the assigned generators
    # whose sum lies in ann A
    ann_relations = [
        reference_preimage_lattice(IntMatrix([units[i] for i in gen_order[: pos + 1]]), ann_a.lift_basis)
        for pos in range(a.rank)
    ]

    def maps_ann(pos: int) -> bool:
        assigned = [images[i] for i in gen_order[: pos + 1]]
        return all(
            ann_b.contains([sum(c * x[t] for c, x in zip(row, assigned)) for t in range(b.rank)])
            for row in ann_relations[pos]
        )

    def partial_ok(pos: int, idx: int) -> bool:
        if not pair_checks_ok(b, checks_at[pos], images) or not maps_ann(pos):
            return False
        if order_of[idx] == 0:
            rows = [[images[i][t] for t in free_coords] for i in free_gens if i in images]
            return extends_to_basis(rows, len(free_coords))
        return True

    def dfs(pos: int):
        if budget[0] <= 0:
            return
        if pos == len(gen_order):
            h = IntMatrix([images[i] for i in range(a.rank)], cols=b.rank)
            if verify_iso_witness(a, b, h):
                yield h
            return
        idx = gen_order[pos]
        for cand in candidates[order_of[idx]]:
            budget[0] -= 1
            if budget[0] <= 0:
                return
            images[idx] = cand
            if partial_ok(pos, idx):
                yield from dfs(pos + 1)
            del images[idx]

    yield from dfs(0)
    if budget[0] <= 0:
        yield None



def reference_sixterm(
    a: FdzRing, b: FdzRing, coeff_bound: int = 5, max_nodes: int = 200_000
):
    """``deform.verify_sixterm`` as it was before it derived the maps on
    A/k and on o: it re-checks mu on A/k and eta on o as ring isomorphisms
    and compares psi's image of o(A) with o(B), three checks that cannot
    fail once phi carries k into k and the middle square commutes.  It
    reads every ring and transport off its own ``ChainPresentations``.
    """
    from fdzring.deform import SixTermReport
    from fdzring.eqcheck import _check_bound, _iso_witnesses, verify_iso_witness

    _check_bound(coeff_bound)
    chain_a, chain_b = ChainPresentations(a), ChainPresentations(b)
    for name, field in (
        ("o_ring", "o_pres"),
        ("delta_ring", "delta_pres"),
        ("hat_ring", "hat"),
        ("ak_ring", "ak"),
    ):
        inv_a = getattr(chain_a, field).ring.additive.invariant_factors
        inv_b = getattr(chain_b, field).ring.additive.invariant_factors
        if inv_a != inv_b:
            return SixTermReport("no", f"{name} invariants differ: {inv_a} vs {inv_b}")

    delta_to_hat_a, delta_to_hat_b = (
        c.delta_pres.lift.mul(c.hat.project) for c in (chain_a, chain_b)
    )
    k_in_hat_a, k_in_hat_b = (
        [row_times_matrix(row, c.hat.project) for row in c.chain.k_ideal.lift_basis]
        for c in (chain_a, chain_b)
    )
    k_image_b = chain_b.hat.ring.additive.subgroup(k_in_hat_b)
    # A/k -> A/ann and B/ann -> B/k on coordinates
    ak_to_hat_a = chain_a.ak.lift.mul(chain_a.hat.project)
    hat_to_ak_b = chain_b.hat.lift.mul(chain_b.ak.project)

    delta_b, hat_b = chain_b.delta_pres, chain_b.hat.ring
    o_image_b = delta_b.ring.additive.subgroup(chain_b.o_in_delta.data)
    budget_hit = False
    for phi in _iso_witnesses(chain_a.hat.ring, hat_b, coeff_bound, max_nodes):
        if phi is None:
            budget_hit = True
            break
        # phi must carry the image of k(A) into that of k(B) and induce an
        # isomorphism A/k -> B/k
        if not all(k_image_b.contains(row_times_matrix(row, phi)) for row in k_in_hat_a):
            continue
        mu = ak_to_hat_a.mul(phi).mul(hat_to_ak_b)
        if not verify_iso_witness(chain_a.ak.ring, chain_b.ak.ring, mu):
            continue
        # the images under phi of the generators of delta(A), in B/ann
        restricted = [hat_b.reduce(row) for row in delta_to_hat_a.mul(phi).data]
        for psi in _iso_witnesses(chain_a.delta_pres.ring, delta_b.ring, coeff_bound, max_nodes):
            if psi is None:
                budget_hit = True
                break
            # middle square: restriction to the annihilator quotient commutes
            if [hat_b.reduce(row) for row in psi.mul(delta_to_hat_b).data] != restricted:
                continue
            # left square: psi must carry o(A) onto o(B), by an isomorphism eta
            image_rows = [row_times_matrix(row, psi) for row in chain_a.o_in_delta.data]
            if delta_b.ring.additive.subgroup(image_rows) != o_image_b:
                continue
            eta = IntMatrix(
                [chain_b.o_pres.express(row_times_matrix(row, delta_b.lift)) for row in image_rows],
                cols=chain_b.o_pres.ring.rank,
            )
            if image_rows and not verify_iso_witness(chain_a.o_pres.ring, chain_b.o_pres.ring, eta):
                continue
            return SixTermReport("commutes", "all three squares commute")
    if budget_hit:
        return SixTermReport("unknown", "search budget exhausted")
    return SixTermReport(
        "unknown", "no compatible isomorphism found within the coefficient bound"
    )


# -- first-order semantics ------------------------------------------------------


def _formula_free(f) -> frozenset:
    """Free variable names of a term or formula."""
    match f:
        case Var(name):
            return frozenset((name,))
        case Zero():
            return frozenset()
        case Neg(x) | Not(x):
            return _formula_free(x)
        case Add(l, r) | Mul(l, r) | Eq(l, r) | And(l, r) | Or(l, r) | Implies(l, r):
            return _formula_free(l) | _formula_free(r)
        case Exists(v, body) | Forall(v, body):
            return _formula_free(body) - {v}
    raise TypeError(f"not a term or formula: {f!r}")


def _tarski_term(ring: FdzRing, t, env) -> Vec:
    match t:
        case Var(name):
            return env[name]
        case Zero():
            return ring.zero()
        case Add(l, r):
            return ring.add(_tarski_term(ring, l, env), _tarski_term(ring, r, env))
        case Neg(x):
            return ring.neg(_tarski_term(ring, x, env))
        case Mul(l, r):
            return ring.mul(_tarski_term(ring, l, env), _tarski_term(ring, r, env))
    raise TypeError(f"not a term: {t!r}")


def _tarski(ring: FdzRing, elements, f, env) -> bool:
    match f:
        case Eq(l, r):
            return _tarski_term(ring, l, env) == _tarski_term(ring, r, env)
        case Not(x):
            return not _tarski(ring, elements, x, env)
        case And(l, r):
            return _tarski(ring, elements, l, env) and _tarski(ring, elements, r, env)
        case Or(l, r):
            return _tarski(ring, elements, l, env) or _tarski(ring, elements, r, env)
        case Implies(l, r):
            return not _tarski(ring, elements, l, env) or _tarski(ring, elements, r, env)
        case Exists(v, body):
            return any(_tarski(ring, elements, body, {**env, v: e}) for e in elements)
        case Forall(v, body):
            return all(_tarski(ring, elements, body, {**env, v: e}) for e in elements)
    raise TypeError(f"not a formula: {f!r}")


def tarski_evaluate(ring: FdzRing, formula, assignment=None) -> bool:
    """Tarskian truth on a finite ring by plain recursion.

    Elements are reduced coordinate tuples and every operation is the
    ring's own ``add``/``neg``/``mul``: no index tables, no value sets and
    no memo, and nothing from the model checker but its formula classes.
    """
    env = {name: ring.reduce(value) for name, value in (assignment or {}).items()}
    assert _formula_free(formula) <= set(env), "unassigned free variables"
    return _tarski(ring, list(ring.elements()), formula, env)


def tarski_defined_set(ring: FdzRing, formula) -> list[Vec]:
    """The sorted elements satisfying a formula in one free variable."""
    (name,) = _formula_free(formula)
    elements = list(ring.elements())
    return sorted(e for e in elements if _tarski(ring, elements, formula, {name: e}))


# -- cocycles as value tables -----------------------------------------------------


def _reduce_mod(vec, orders) -> Vec:
    return tuple(int(x) % d if d else int(x) for x, d in zip(vec, orders))


class TableCocycle:
    """A map G x G -> D on a finite diagonal group G, given by its values on
    canonical representatives, with no claim that it is a cocycle."""

    def __init__(self, source_orders, target_orders, table):
        self.source_orders = tuple(int(d) for d in source_orders)
        self.target_orders = tuple(int(d) for d in target_orders)
        if any(d == 0 for d in self.source_orders):
            raise ValueError("table representation requires a finite source")
        self.table = {
            (_reduce_mod(x, self.source_orders), _reduce_mod(y, self.source_orders)):
                _reduce_mod(v, self.target_orders)
            for (x, y), v in table.items()
        }

    @classmethod
    def of(cls, c) -> "TableCocycle":
        """The value table of a cocycle with a finite source."""
        elements = source_elements(c)
        table = {(x, y): c.evaluate(x, y) for x in elements for y in elements}
        return cls(c.source_orders, c.target_orders, table)

    def evaluate(self, x, y) -> Vec:
        key = (_reduce_mod(x, self.source_orders), _reduce_mod(y, self.source_orders))
        value = self.table.get(key)
        if value is None:
            raise ValueError("value table is incomplete")
        return value


def source_elements(c) -> list[Vec]:
    """The canonical representatives of a cocycle's finite source."""
    return [tuple(v) for v in FgAbelianGroup.from_orders(c.source_orders).elements()]


def table_cocycle_defect(c) -> str | None:
    """Why the table is not a symmetric normalized 2-cocycle, or None.

    Checks c(0, x) = c(x, 0) = 0, c(x, y) = c(y, x) and the three-term
    identity c(x, y) + c(x + y, z) = c(y, z) + c(x, y + z) on every triple.
    """
    src = FgAbelianGroup.from_orders(c.source_orders)
    target = FgAbelianGroup.from_orders(c.target_orders)
    elements = source_elements(c)
    zero = src.zero()
    for x in elements:
        if any(c.evaluate(zero, x)) or any(c.evaluate(x, zero)):
            return "not normalized"
        for y in elements:
            if c.evaluate(x, y) != c.evaluate(y, x):
                return "not symmetric"
            for z in elements:
                lhs = [p + q for p, q in zip(c.evaluate(x, y), c.evaluate(src.add(x, y), z))]
                rhs = [p + q for p, q in zip(c.evaluate(y, z), c.evaluate(x, src.add(y, z)))]
                if target.reduce(lhs) != target.reduce(rhs):
                    return "three-term identity fails"
    return None


def table_is_coboundary(c) -> bool:
    """Whether c(x, y) = t(x) + t(y) - t(x + y) for some t with t(0) = 0,
    solved as one congruence system in the values of t."""
    src = FgAbelianGroup.from_orders(c.source_orders)
    elements = source_elements(c)
    nonzero = [x for x in elements if any(x)]
    index = {x: i for i, x in enumerate(nonzero)}
    tdim = len(c.target_orders)
    nunk = len(nonzero) * tdim
    eqs, moduli, rhs = [], [], []
    for x in elements:
        for y in elements:
            value = c.evaluate(x, y)
            s = src.add(x, y)
            for k in range(tdim):
                row = [0] * nunk
                for point, sign in ((x, 1), (y, 1), (s, -1)):
                    if any(point):
                        row[index[point] * tdim + k] += sign
                eqs.append(row)
                moduli.append(c.target_orders[k])
                rhs.append(value[k])
    return solve_congruences(sparse_rows(eqs), moduli, rhs=rhs, unknowns=nunk) is not None


def table_ext_classes(c) -> tuple[Vec, ...]:
    """Per cyclic source factor of order e, the sum of c(g, i·g) for
    i = 0..e-1 along its generator g, reduced modulo e·D."""
    src = FgAbelianGroup.from_orders(c.source_orders)
    classes = []
    for i, e in enumerate(c.source_orders):
        gen = tuple(1 if j == i else 0 for j in range(len(c.source_orders)))
        total = [0] * len(c.target_orders)
        point = src.zero()
        for _ in range(e):
            total = [p + q for p, q in zip(total, c.evaluate(gen, point))]
            point = src.add(point, gen)
        classes.append(hermite_class(e, c.target_orders, total))
    return tuple(classes)


def hermite_class(e: int, target_orders, vec) -> Vec:
    """``vec`` reduced modulo e·D, for D the diagonal group of the target
    orders, by Hermite reduction against e·I stacked on D's relations."""
    tdim = len(target_orders)
    relations = [list(r) for r in FgAbelianGroup.from_orders(target_orders).relation_basis]
    scaled = [[e if j == k else 0 for j in range(tdim)] for k in range(tdim)]
    return hermite_reduce(hermite_rows(scaled + relations, tdim), vec)


def hermite_cocycle_classes(c) -> tuple[Vec, ...]:
    """The extension classes of a normal-form cocycle as ``cocycle_analyze``
    computed them before it read them in closed form."""
    return tuple(
        hermite_class(e, c.target_orders, d)
        for e, d in zip(c.source_orders, c.cyclic_values)
        if e
    )


def cocycle_pair_add(c, a: tuple[Vec, Vec], b: tuple[Vec, Vec]) -> tuple[Vec, Vec]:
    """The twisted addition (g1, d1) + (g2, d2) = (g1 + g2, d1 + d2 + c(g1, g2))
    on source x target pairs."""
    g = _reduce_mod([x + y for x, y in zip(a[0], b[0])], c.source_orders)
    twist = c.evaluate(a[0], b[0])
    d = _reduce_mod([x + y + t for x, y, t in zip(a[1], b[1], twist)], c.target_orders)
    return g, d


# -- the chain pieces by general lattice recipes ----------------------------------
#
# The library reads these off diagonal presentations it already holds; each
# reference keeps the recipe it used before.


def smith_saturation(s: Subgroup) -> Subgroup:
    """The isolator of ``s``, spanned by the rows of Smith's V⁻¹ at the
    nonzero diagonal entries of its lift lattice."""
    if not s.lift_basis:
        return Subgroup(s.parent, ())
    dec = smith(IntMatrix(s.lift_basis, cols=s.parent.rank))
    diag = dec.diagonal
    return Subgroup(s.parent, [dec.vinv.row(i) for i in range(len(diag)) if diag[i]])


def rows_and_relations_quotient(a: FdzRing, ideal: Subgroup) -> DiagonalPresentation:
    """The presentation of A/ideal from Smith on the ideal's Hermite rows
    followed by the ring's relation rows, which the lift rows already span."""
    return diagonal_presentation(ideal.lift_basis + a.additive.relation_basis, a.rank)


def reference_cyclic(s: Subgroup) -> tuple[DiagonalPresentation, tuple[Vec, ...], IntMatrix]:
    """``Subgroup.cyclic``'s diagonal, Hermite lift basis and generator
    lifts by the recipe it replaced, on an abstract group built anew: the
    abstract group's diagonal, and its lifts times the lift basis."""
    abstract, basis = reference_as_group(s)
    diagonal = abstract.diagonal
    return diagonal, s.lift_basis, diagonal.lift.mul(basis)


def split_complement_carrier(chain: IdealChain) -> tuple[IntMatrix, Vec, IntMatrix]:
    """The deformation carrier's ``free_section``, ``n_orders`` and
    ``n_lift_ambient``: the torsion of A/k as the image of l, and a free
    complement of it split off by ``split_complement``."""
    ak = quotient_ring(chain.ring, chain.k_ideal)
    group = ak.ring.additive
    torsion = group.subgroup(
        [row_times_matrix(row, ak.project) for row in chain.l_ideal.lift_basis]
    )
    splitting = split_complement(group, torsion)
    assert splitting is not None
    free, _, free_lift = reference_cyclic(splitting.complement)
    assert not any(free.orders)
    n_diagonal, _, n_lift = reference_cyclic(torsion)
    n_lift_ambient = IntMatrix(
        [hermite_reduce(chain.k_ideal.lift_basis, row) for row in n_lift.mul(ak.lift).data],
        cols=chain.ring.rank,
    )
    return free_lift.mul(ak.lift), n_diagonal.orders, n_lift_ambient


# -- the chain's presentations, each built as a ring ------------------------------


class ChainPresentations:
    """Every presentation the ideal chain of ``ring`` built when it also
    presented A/k, sq, o and the addition A0 as rings, each built on first
    access through ``quotient_ring`` or ``subring_presentation`` and kept
    apart from the library's chain, whose ideals they read."""

    def __init__(self, ring: FdzRing):
        self.ring = ring
        self.chain = characteristic_ideals(ring)

    @cached_property
    def hat(self):
        return quotient_ring(self.ring, self.chain.ann)

    @cached_property
    def ak(self):
        return quotient_ring(self.ring, self.chain.k_ideal)

    @cached_property
    def square_pres(self):
        return subring_presentation(self.ring, self.chain.sq)

    @cached_property
    def delta_pres(self):
        return subring_presentation(self.ring, self.chain.delta)

    @cached_property
    def o_pres(self):
        return subring_presentation(self.ring, self.chain.o_ideal)

    @cached_property
    def o_in_delta(self) -> IntMatrix:
        """Rows: the generators of ``o_pres`` in ``delta_pres`` coordinates."""
        delta = self.delta_pres
        return IntMatrix(
            [delta.express(row) for row in self.o_pres.lift.data], cols=delta.ring.rank
        )

    @cached_property
    def addition_pres(self):
        """The addition as a subring; it lies in ann, so all its products vanish."""
        return subring_presentation(self.ring, self.chain.addition)


class ReferenceDeformationContext(DeformationContext):
    """``DeformationContext`` on the presentations of ``ChainPresentations``:
    it reads A0 and o off their subring presentations and A/k off its
    quotient ring, and carries d-coordinates into k through o in delta
    coordinates; ``build`` and ``extension_betas`` are the library's."""

    def __init__(self, base: FdzRing):
        self.base = base
        self.chain = characteristic_ideals(base)
        self.presentations = pres = ChainPresentations(base)
        add_pres = pres.addition_pres
        assert not any(add_pres.ring.orders), "an addition must be free"
        self.addition_basis = add_pres.lift
        n = add_pres.ring.rank
        delta = pres.delta_pres
        self.o_pres = pres.o_pres
        self.k_basis = IntMatrix(delta.lift.data + self.addition_basis.data, cols=base.rank)
        self.d_orders = tuple([0] * n) + self.o_pres.ring.orders
        self.k_orders = delta.ring.orders + tuple([0] * n)
        self._init_carrier()

    def ambient_to_d(self, vec) -> Vec:
        if not self.chain.ann.contains(vec):
            raise DeformationError("value must lie in the annihilator")
        rows = IntMatrix(self.addition_basis.data + self.o_pres.lift.data, cols=self.base.rank)
        coords = affine_preimage(rows, self.base.additive.relation_basis, vec)
        assert coords is not None
        return _reduce_mod(coords[0], self.d_orders)

    def d_to_k(self, dvec) -> Vec:
        n = self.addition_basis.rows
        delta_part = row_times_matrix(dvec[n:], self.presentations.o_in_delta)
        return _reduce_mod(tuple(delta_part) + tuple(dvec[:n]), self.k_orders)

    def _init_carrier(self):
        ak = self.presentations.ak
        lifts = list(zip(ak.ring.orders, ak.lift.data))
        self.free_section = IntMatrix([row for d, row in lifts if not d], cols=self.base.rank)
        self.n_orders = tuple(d for d, _ in lifts if d)
        torsion = [row for d, row in lifts if d]
        if not all(map(self.chain.l_ideal.contains, torsion)):
            raise DeformationError("torsion representative must lie in the l-ideal")
        reps = [hermite_reduce(self.chain.k_ideal.lift_basis, row) for row in torsion]
        self.n_lift_ambient = IntMatrix(reps, cols=self.base.rank)
        self.source_orders = (0,) * self.free_section.rows + self.n_orders


@contextmanager
def built_rings():
    """The ``FdzRing``s constructed inside the block, in order."""
    built = []
    original = FdzRing.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    FdzRing.__init__ = init
    try:
        yield built
    finally:
        FdzRing.__init__ = original


# -- deformation relations by the e-step loop -------------------------------------


def reference_deformation_closing(ctx, g) -> list[Vec]:
    """The k-coordinates beta_i of e_i·g_i for each torsion factor of a
    deformation, found by adding the i-th generator to itself e_i times.

    Each step adds the defect T(x) + T(u) - T(x + u) of the torsion
    transversal T of l over k, in k-coordinates, plus g(x, u) carried into
    k.  ``ctx`` is a ``DeformationContext`` and ``g`` a cocycle on its
    torsion quotient.
    """
    base = ctx.base

    def transversal(ncoords) -> Vec:
        coords = _reduce_mod(ncoords, ctx.n_orders)
        acc = base.reduce(row_times_matrix(coords, ctx.n_lift_ambient))
        return hermite_reduce(ctx.chain.k_ideal.lift_basis, acc)

    closing = []
    for i, e in enumerate(ctx.n_orders):
        gen = _reduce_mod([int(j == i) for j in range(len(ctx.n_orders))], ctx.n_orders)
        point, beta = (0,) * len(gen), (0,) * len(ctx.k_orders)
        for _ in range(e):
            after = _reduce_mod([x + y for x, y in zip(point, gen)], ctx.n_orders)
            defect = base.sub(base.add(transversal(point), transversal(gen)), transversal(after))
            twist = ctx.d_to_k(g.evaluate(point, gen))
            step = [a + b for a, b in zip(ctx.ambient_to_k(defect), twist)]
            beta = _reduce_mod([x + y for x, y in zip(beta, step)], ctx.k_orders)
            point = after
        assert not any(point), "the source relation must close"
        closing.append(beta)
    return closing


# -- idempotents by factoring over Q ------------------------------------------------


def sympy_free_idempotents(ring: FdzRing) -> list[Vec]:
    """All idempotents of a torsion-free scalar ring, via its Q-algebra A:
    the recipe ``classify._free_idempotents`` followed before it lifted
    idempotents 2-adically.

    The radical N of the trace form is the nilradical of A.  An element a
    generates A/N exactly when the squarefree part of its characteristic
    polynomial chi has degree dim A/N; then the CRT idempotents of
    Q[x]/(chi) = prod Q[x]/(f_i^m_i), evaluated at a, are the primitive
    idempotents of A, and the integral ones among their subset sums are the
    idempotents of the ring.  When dim A/N is 1, A/N is Q and A is local:
    its only idempotents are 0 and 1, and nothing needs factoring.
    """
    from fractions import Fraction

    from sympy import QQ, ZZ, Poly, Symbol
    from sympy.polys.matrices import DomainMatrix

    from fdzring.classify import DEGREE_BOUND, FactorizationIncomplete

    dim = ring.rank
    if dim == 0:
        return [()]
    if dim > DEGREE_BOUND:
        raise FactorizationIncomplete(f"free rank {dim} exceeds {DEGREE_BOUND}")
    unity = ring.unity()
    traces = [sum(ring.tensor[k][j][j] for j in range(dim)) for k in range(dim)]
    gram = [
        [sum(c * t for c, t in zip(ring.tensor[i][j], traces)) for j in range(dim)]
        for i in range(dim)
    ]
    sdim = len(hermite_rows(gram, dim))
    if sdim == 1:
        return sorted([ring.zero(), unity])
    x = Symbol("x")
    candidates = [ring.generator(i) for i in range(dim)]
    candidates += [tuple(t**i for i in range(dim)) for t in range(1, 64)]
    for a in candidates:
        mult = IntMatrix([ring.mul(a, ring.generator(i)) for i in range(dim)])
        chi = Poly(DomainMatrix.from_list(mult.data, ZZ).charpoly(), x, domain=QQ)
        if chi.sqf_part().degree() == sdim:
            break
    else:
        raise FactorizationIncomplete("no primitive element found for the semisimple part")
    powers = [unity]
    for _ in range(dim - 1):
        powers.append(row_times_matrix(powers[-1], mult))
    primitives = []
    for f, m in chi.factor_list()[1]:
        block = f**m
        rest = chi.exquo(block)
        s, _, _ = rest.gcdex(block)
        coeffs = (s * rest).rem(chi).all_coeffs()[::-1]
        primitives.append(
            [
                sum(Fraction(c.p, c.q) * power[j] for c, power in zip(coeffs, powers))
                for j in range(dim)
            ]
        )
    sums = [[Fraction(0)] * dim]
    for e in primitives:
        sums += [[a + b for a, b in zip(total, e)] for total in sums]
    return sorted(
        {tuple(int(v) for v in total) for total in sums if all(v.denominator == 1 for v in total)}
    )
