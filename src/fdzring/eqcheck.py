"""Elementary-equivalence and isomorphism testing between rings.

Equal invariant profiles (independent ideal-chain invariants and the image
of the square in each A/nA) are necessary for elementary equivalence; the
sufficient direction is a bounded isomorphism search on the rings padded
with a null line, after "A = B elementarily iff Z0 x A = Z0 x B".  For
finite rings that search is exhaustive, so running out of candidates
refutes equivalence.

Every isomorphism maps ann A onto ann B, so the search also asks of each
partial map that the relations among the assigned generators that lie in
ann A land in ann B; that prunes only subtrees without a witness.  The
padded rings' annihilator data comes from the chains of A and B, so a
verdict builds no chain of a padded ring.

Witnesses found by the search are always re-verified independently by a
full tensor comparison before being returned.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .intlinalg import (
    IntMatrix, Vec, hermite_rows, preimage_lattice, record, right_kernel, row_times_matrix,
    smith_diagonal,
)
from .rings import FdzRing, characteristic_ideals, direct_product, z0_ring


@record
class InvariantProfile:
    """Isomorphism-invariant fingerprint of a ring.

    Every field is preserved by ring isomorphism and definable without
    parameters, so a mismatch refutes elementary equivalence.  Entries that
    earlier fields determine are left out; ``invariant_profile`` says which.
    """

    additive: Vec
    ann: Vec
    square: Vec
    k_ideal: Vec
    n_quot: Vec
    mod_square: Vec
    fingerprints: tuple[tuple[int, Vec], ...]

    def first_mismatch(self, other: "InvariantProfile") -> str | None:
        for name in self.__match_args__[:-1]:
            if getattr(self, name) != getattr(other, name):
                return name
        for (n, mine), (_, theirs) in zip(self.fingerprints, other.fingerprints):
            if mine != theirs:
                return f"mod_{n}"
        return None


FINGERPRINT_MODULI = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@lru_cache(maxsize=512)
def invariant_profile(a: FdzRing) -> InvariantProfile:
    """The invariant profile of A, every field read off a Smith diagonal.

    No field needs the coordinate change of a Smith form, so each comes
    from ``smith_diagonal``, which builds no transform: the ideal and
    quotient fields through the ``invariant_factors`` of the chain's
    subgroups and of A/sq and A/k (l/k is the torsion of A/k), the
    fingerprints directly.  A fingerprint is the
    image (sq + nA)/nA for each prime power n <= 16.  A = Z^r / diag(d_i) with
    d_i = ``a.orders``, so nA lifts to the lattice diag(g_j), g_j =
    gcd(n, d_j) with gcd(n, 0) = n, and x -> (n/g_j)·x embeds Z/g_j into
    Z/n.  The image is then the row module in (Z/n)^r of S' with
    S'_ij = S_ij·(n/g_j), S the rows of the square's lift basis.  Row and
    column operations keep that module up to isomorphism, so with
    e_1 | e_2 | ... the diagonal of S' over Z/n (entries dividing n) it is
    the sum of the Z/(n/e_i): one elimination per modulus (Cohen, GTM 138,
    §2.4).  For n prime to every nonzero d_j, S' is S on the free columns
    and 0 mod n on the others, and a Smith form over Z is one over Z/n, so
    the e_i are gcd(e, n) over one integer Smith diagonal of S's free
    columns, shared by all such n.

    Each entry the profile leaves out is a function of fields compared
    before its place in the full list, so ``first_mismatch`` names the same
    field as a profile that holds them all:
    - delta and l, the saturations of sq and k, are T(A) + Z^rank(sq) and
      T(A) + Z^rank(k); A/l is Z^(rank A - rank k).
    - |A/nA| and A/nA are the gcd(n, e) over the invariant factors e of A.
    - For coprime a and b, A/abA = A/aA + A/bA, so the image of the square
      mod ab is the sum of its images mod a and mod b; each composite
      n <= 16 that is no prime power splits into two earlier moduli.
    """
    chain = characteristic_ideals(a)
    square = chain.sq.lift_basis
    torsion, shared = prod(d for d in a.orders if d), None
    fingerprints = []
    for n in FINGERPRINT_MODULI:
        if gcd(n, torsion) > 1:
            steps = [n // gcd(n, d) for d in a.orders]
            diag = smith_diagonal([[x * s for x, s in zip(row, steps)] for row in square], a.rank, n)
        else:
            if shared is None:
                free = [[x for x, d in zip(row, a.orders) if not d] for row in square]
                shared = smith_diagonal(free, a.orders.count(0))
            diag = [gcd(e, n) for e in shared]
        fingerprints.append((n, tuple(n // e for e in reversed(diag) if e != n)))
    return InvariantProfile(
        additive=a.additive.invariant_factors,
        ann=chain.ann.invariant_factors,
        square=chain.sq.invariant_factors,
        k_ideal=chain.k_ideal.invariant_factors,
        n_quot=tuple(d for d in chain.k_ideal.quotient().invariant_factors if d),
        mod_square=chain.sq.quotient().invariant_factors,
        fingerprints=tuple(fingerprints),
    )


# -- isomorphism search --------------------------------------------------------


@record
class IsoWitness:
    matrix: IntMatrix


@record
class IsoResult:
    kind: str  # "yes" | "no" | "unknown"
    witness: IsoWitness | None = None
    reason: str | None = None


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[Vec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _homomorphism_checks(a: FdzRing, b: FdzRing, h: IntMatrix) -> Iterator[bool]:
    """For h: A -> B of shape rank(A) x rank(B), in order: the orders of A
    map to zero, h respects the structure tensor on generators, and its
    kernel is A's relation lattice.  Each is computed only when asked for,
    so ``all`` stops at the first that fails."""
    yield all(not any(b.reduce([d * x for x in h.row(i)])) for i, d in enumerate(a.orders) if d)
    yield all(
        b.reduce(row_times_matrix(a.tensor[i][j], h)) == b.mul(h.row(i), h.row(j))
        for i in range(a.rank)
        for j in range(a.rank)
    )
    kernel = preimage_lattice(h, b.additive.relation_basis)
    yield hermite_rows(kernel, a.rank) == a.additive.relation_basis


def verify_iso_witness(a: FdzRing, b: FdzRing, h: IntMatrix) -> bool:
    """Full independent check that h defines a ring isomorphism A -> B."""
    if h.rows != a.rank or h.cols != b.rank or not all(_homomorphism_checks(a, b, h)):
        return False
    full = hermite_rows(list(h.data) + list(b.additive.relation_basis), b.rank)
    return full == _identity_rows(b.rank)


def _additive_order(orders: Sequence[int], vec: Sequence[int]) -> int:
    """Additive order within a diagonal presentation; 0 encodes infinite."""
    order = 1
    for x, d in zip(vec, orders):
        if d == 0:
            if x:
                return 0
        elif x % d:
            order = lcm(order, d // gcd(d, x % d))
    return order


def _coordinate_ranges(b: FdzRing, order: int, bound: int) -> list[Sequence[int]]:
    """The values each coordinate of a candidate image runs over: a free one
    0, 1, -1, ..., bound, -bound in an order-0 pool (built only there) and 0
    otherwise, a Z/d one the x in [0, d) with order·x = 0, the multiples of
    d/gcd(order, d) (all of [0, d) for order 0, as gcd(0, d) = d)."""
    free = not order and 0 in b.orders
    values = [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)] if free else [0]
    return [values if d == 0 else range(0, d, d // gcd(order, d)) for d in b.orders]


def _range_sizes(b: FdzRing, order: int, bound: int) -> list[int]:
    """The ``_coordinate_ranges``' lengths; ``len`` refuses 2^63 or more."""
    return [(1 if order else 2 * bound + 1) if d == 0 else gcd(order, d) for d in b.orders]


def _walk(ranges: Sequence[Sequence[int]], orders: Sequence[int], need_free: bool):
    """The tuples of ``itertools.product(*ranges)`` in its order, built
    lazily: the product would copy every range whole, and a Z/d coordinate
    ranges over up to d values.  With ``need_free`` the tuples whose free
    coordinates (order 0, their range starting at 0) are all 0 are left out,
    and the walk never visits them."""
    if not ranges:
        return iter(() if need_free else ((),))
    *rest, last = ranges
    if need_free and orders[len(rest)] == 0:
        frees = [i for i, d in enumerate(orders[: len(rest)]) if d == 0]
        return (
            h + (x,)
            for h in _walk(rest, orders, False)
            for x in (last if any(h[i] for i in frees) else itertools.islice(last, 1, None))
        )
    return (h + (x,) for h in _walk(rest, orders, need_free) for x in last)


# A seeded search shuffles its whole candidate pool, so it holds every
# candidate at once; a pool has (2·bound+1)^(free rank) entries before the
# order filter.  The largest seeded pool the corpus searches at the default
# bound is padded W's, 2 · 11^3 = 2,662.
SEEDED_POOL_LIMIT = 50_000


class SearchPoolError(ValueError):
    """A seeded search would have to hold more candidates than the guard."""


def _check_seeded_pool(b: FdzRing, order: int, bound: int) -> None:
    size = prod(_range_sizes(b, order, bound))
    if size > SEEDED_POOL_LIMIT:
        raise SearchPoolError(
            f"a seeded search would shuffle {size} candidate images, above "
            f"SEEDED_POOL_LIMIT = {SEEDED_POOL_LIMIT}; lower the coefficient "
            "bound or search with seed 0"
        )


def _completes_basis(kernel: Sequence[Vec], row: Sequence[int]) -> bool:
    """Whether a prefix that extends to a basis of Z^f still does with
    ``row`` appended, given W = ``right_kernel`` of the prefix.

    Rows extend to a basis exactly when the gcd of their maximal minors is
    1 (Cohen, GTM 138, §2.4).  The prefix R extends to one, so some
    unimodular V has R·V = [U | 0] with U unimodular, and the tail columns
    of V are a basis of the kernel of R.  Every maximal minor of
    [R; row]·V that is not 0 holds U's columns, so the gcd of the minors is
    gcd(row·V_tail), up to the unit det U; any other kernel basis is
    V_tail times a unimodular matrix, which leaves that gcd alone.  So the
    test is gcd(row·w for w in W) = 1.  With W empty (no room left in Z^f)
    the gcd is 0 and the row is refused.
    """
    return gcd(*[sum(map(mul, row, w)) for w in kernel]) == 1


def _square_forms(b: FdzRing) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per coordinate k of B, the terms (i, j, c), i <= j, of the quadratic
    form (x·x)_k = sum c·x_i·x_j: c = T[i][j][k] + T[j][i][k] for i < j and
    T[i][i][k] for i = j, reduced modulo the k-th order, zeros dropped."""
    r, t = b.rank, b.tensor
    forms = []
    for k, d in enumerate(b.orders):
        form = []
        for i in range(r):
            for j in range(i, r):
                c = t[i][j][k] + t[j][i][k] if i < j else t[i][i][k]
                if d:
                    c %= d
                if c:
                    form.append((i, j, c))
        forms.append(tuple(form))
    return tuple(forms)


class _FoldedLevel:
    """The product checks of one search level, as tests on its candidate.

    With every earlier generator image fixed, the check x_p·x_q = sum c_k x_k
    is affine in the candidate x = x_idx unless p = q = idx: with both
    factors earlier the product is a constant, with one of them x it is x
    times the fixed factor's left or right multiplication matrix, and a
    support term on idx adds c·I.  Each coordinate k of each check is a
    column (n, v, d) demanding x·n + v = 0 modulo d, the order of the k-th
    generator of B (0: exactly), so ``linear`` is the single affine test
    x·N + v = 0 of the level, its trivial columns dropped and the rest
    deduplicated.  The check x·x adds, on coordinate k, the quadratic form
    (x·x)_k of ``_square_forms``; where that form is 0 the column is affine
    too and joins ``linear``, and ``square`` holds the others as
    (n, form, v, d), tested against the form's value with no product taken.
    ``forms`` are B's square forms, which a search builds once.  Every
    coordinate is compared modulo its order, as ``reduce`` does, so a
    candidate passes exactly when it passes each product check.  The
    annihilator columns ``ann`` of the level (``_ann_columns``) join
    ``linear`` as they are.
    """

    __slots__ = ("linear", "square")

    def __init__(self, b: FdzRing, idx: int, checks, images: dict[int, Vec], forms, ann=()):
        rank = b.rank
        units = _identity_rows(rank)
        linear: dict[tuple[Vec, int, int], None] = {}
        square = []
        for p, q, terms in checks:
            scalar = 0
            offset = [0] * rank
            for k, c in terms:
                if k == idx:
                    scalar = c
                else:
                    offset = [x + c * y for x, y in zip(offset, images[k])]
            if p == idx and q != idx:
                rows = [b.mul(e, images[q]) for e in units]
            elif q == idx and p != idx:
                rows = [b.mul(images[p], e) for e in units]
            else:
                rows = [(0,) * rank] * rank
                if p != idx:
                    offset = [x - y for x, y in zip(offset, b.mul(images[p], images[q]))]
            for k, d in enumerate(b.orders):
                column = [(scalar if i == k else 0) - rows[i][k] for i in range(rank)]
                v = offset[k]
                if d:
                    column = [x % d for x in column]
                    v %= d
                if p == q == idx and forms[k]:
                    square.append((tuple(column), forms[k], v, d))
                elif v or any(column):
                    linear[tuple(column), v, d] = None
        for column, v, d in ann:
            if v or any(column):
                linear[column, v, d] = None
        self.linear = tuple(linear)
        self.square = tuple(square)

    def square_ok(self, cand: Vec) -> bool:
        for column, form, v, d in self.square:
            x = v + sum(map(mul, cand, column)) - sum([c * cand[i] * cand[j] for i, j, c in form])
            if x % d if d else x:
                return False
        return True


def _linear_ok(linear, cand: Vec) -> bool:
    """Whether cand passes every column (n, v, d) of a level's affine test."""
    for column, v, d in linear:
        x = v + sum(map(mul, cand, column))
        if x % d if d else x:
            return False
    return True


# The most tail tuples a level keys in one table (see ``_ProductPool``).
_BLOCK_CAP = 64


class _ProductPool:
    """The candidate images of one order, in product order, scanned by block.

    An isomorphism preserves element orders exactly, so a torsion generator
    ranges over the elements of equal order and a free one over bounded
    coefficient vectors of infinite order (``_coordinate_ranges``, kept by
    their additive order).  B's coordinates split into a head and a tail, the longest run of
    trailing coordinates whose value ranges multiply to at most
    ``_BLOCK_CAP``; a block is the candidates sharing one head prefix.  A
    scan keys each tail tuple by its share of every column of the level's
    affine test and, per head prefix, looks up the tails that complete it.
    Whether head + tail has exactly the pool's order depends on the tail
    only through its own order, so for each head order the valid tails get
    a count and a rank: the rank gives an accepted candidate its position
    in the pool, and the count closes the block.

    ``scan(linear)`` is the interface the search reads every pool through:
    it yields (n, x) for each candidate x that passes the columns, x the
    n-th candidate of the pool, and (n, None) at the end of a block, the
    first n candidates behind it; no table it builds exceeds the cap.
    """

    __slots__ = ("order", "split", "head", "head_orders", "tails", "tail_values", "tail_orders", "_valid")

    def __init__(self, b: FdzRing, order: int, bound: int):
        ranges, sizes = _coordinate_ranges(b, order, bound), _range_sizes(b, order, bound)
        split, size = len(ranges), 1
        while split and size * sizes[split - 1] <= _BLOCK_CAP:
            split -= 1
            size *= sizes[split]
        self.order, self.split = order, split
        self.head, self.head_orders = ranges[:split], b.orders[:split]
        self.tails = list(itertools.product(*ranges[split:]))
        self.tail_values = list(zip(*self.tails))
        self.tail_orders = [_additive_order(b.orders[split:], t) for t in self.tails]
        self._valid: dict[int, tuple[int, list[int]]] = {}

    def valid_tails(self, head_order: int) -> tuple[int, list[int]]:
        """How many tails complete a head of this order, and each tail's
        rank among them (-1 for a tail that gives another order)."""
        got = self._valid.get(head_order)
        if got is None:
            ranks, count = [], 0
            for t in self.tail_orders:
                ok = lcm(head_order, t) == self.order
                ranks.append(count if ok else -1)
                count += ok
            got = self._valid[head_order] = count, ranks
        return got

    def scan(self, linear) -> Iterator[tuple[int, Vec | None]]:
        split, tails = self.split, self.tails
        columns = [(n[:split], n[split:], -v, d) for n, v, d in linear]
        shares = []
        for _, right, _, d in columns:
            share = [0] * len(tails)
            for r, values in zip(right, self.tail_values):
                if r:
                    share = [s + r * x for s, x in zip(share, values)]
            shares.append([s % d for s in share] if d else share)
        table: dict[Vec, list[int]] = {}
        for j, key in enumerate(zip(*shares) if shares else [()] * len(tails)):
            table.setdefault(key, []).append(j)
        seen = 0
        # in an order-0 pool whose tails are all of finite order, a head
        # without a nonzero free coordinate completes to no candidate
        need_free = not self.order and 0 not in self.tail_orders
        for head in _walk(self.head, self.head_orders, need_free):
            count, ranks = self.valid_tails(_additive_order(self.head_orders, head))
            if count:
                target = tuple([
                    (u - sum(map(mul, head, left))) % d if d else u - sum(map(mul, head, left))
                    for left, _, u, d in columns
                ])
                for j in table.get(target, ()):
                    if ranks[j] >= 0:
                        yield seen + ranks[j] + 1, head + tails[j]
                seen += count
                yield seen, None


class _ShuffledPool(list):
    """A seeded pool, held whole and tested one candidate at a time; its
    blocks are runs of ``_BLOCK_CAP`` candidates."""

    def scan(self, linear) -> Iterator[tuple[int, Vec | None]]:
        return self._scan(linear) if linear else enumerate(self, 1)

    def _scan(self, linear) -> Iterator[tuple[int, Vec | None]]:
        for n, cand in enumerate(self, 1):
            if _linear_ok(linear, cand):
                yield n, cand
            elif not n % _BLOCK_CAP:
                yield n, None
        yield len(self), None


@record
class _AnnPrune:
    """What the search reads of the annihilators: the Hermite lift basis of
    ann A (``rows``), and B/ann B as cyclic factors of ``orders`` onto which
    ``project`` carries B's coordinates, so x lies in ann B exactly when
    x·project is 0 modulo ``orders``."""

    rows: tuple[Vec, ...]
    orders: Vec
    project: IntMatrix


def _ann_prune(a: FdzRing, b: FdzRing) -> _AnnPrune:
    """The annihilator data of A and B, read off their own chains.  With
    ann A zero no row can refuse a candidate, and B's side is not built."""
    rows = characteristic_ideals(a).ann.lift_basis
    if rows == a.additive.relation_basis:
        return _AnnPrune((), (), IntMatrix((), cols=0))
    return _AnnPrune(rows, *_ann_quotient(b))


def _ann_quotient(b: FdzRing) -> tuple[Vec, IntMatrix]:
    """The orders of B/ann B's cyclic factors and B's projection onto them."""
    quotient = characteristic_ideals(b).ann.quotient().diagonal
    return quotient.orders, quotient.project


def _ann_rows_at(a: FdzRing, rows: Sequence[Vec], gen_order: Sequence[int]) -> list[list[Vec]]:
    """The rows of ann A's lift lattice, echelonned with the latest-searched
    generator first and filed at the level of their last generator.

    In that echelon the rows whose pivot lies past a column span the
    lattice's part supported on the columns after it (the first nonzero
    coefficient of any other combination would survive there), so the rows
    filed up to a level span every relation among the generators assigned
    by then.  A row of A's own relation lattice is left out: its image is
    a sum of multiples d·x of images x of order dividing d, which is 0.
    """
    perm = gen_order[::-1]
    at: list[list[Vec]] = [[] for _ in gen_order]
    for echelon in hermite_rows([[row[g] for g in perm] for row in rows], a.rank):
        row = [0] * a.rank
        for g, x in zip(perm, echelon):
            row[g] = x
        if any(x % d if d else x for x, d in zip(row, a.orders)):
            pivot = next(m for m, x in enumerate(echelon) if x)
            at[len(gen_order) - 1 - pivot].append(tuple(row))
    return at


def _ann_columns(idx: int, rows: Sequence[Vec], images: dict[int, Vec], ann: _AnnPrune):
    """The columns (n, v, d) of the affine test h(c) in ann B for each row c
    filed at the level of ``idx``: per cyclic factor t of B/ann B, with P
    ``ann.project``, h(c)·P_t = c_idx·(x·P_t) + sum over j != idx of
    c_j·(h(e_j)·P_t) must be 0 modulo the factor's order."""
    project, orders = ann.project, ann.orders
    projected: dict[int, Vec] = {}
    for c in rows:
        constant = [0] * len(orders)
        for j, x in enumerate(c):
            if x and j != idx:
                if j not in projected:
                    projected[j] = row_times_matrix(images[j], project)
                constant = [s + x * y for s, y in zip(constant, projected[j])]
        for t, d in enumerate(orders):
            column = [c[idx] * p[t] for p in project.data]
            v = constant[t]
            if d:
                column = [x % d for x in column]
                v %= d
            yield tuple(column), v, d


def _iso_witnesses(
    a: FdzRing,
    b: FdzRing,
    coeff_bound: int,
    max_nodes: int,
    seed: int = 0,
    ann: _AnnPrune | None = None,
) -> Iterator[IntMatrix | None]:
    """Yields verified witnesses; a final ``None`` means the budget ran out.

    A depth-first search over generator images, torsion generators first,
    charging one node per candidate in pool order.  On entering a level the
    product checks that fire there are folded over the fixed earlier images
    into one ``_FoldedLevel``; it accepts exactly the candidates the checks
    accept.  The level scans its pool one block at a time: a product pool
    looks up the candidates that pass the affine test, and the skipped
    candidates before each one, or before a block's end, are charged in one
    subtraction, so the budget runs out at the same node and the witnesses
    and their order are those of checking each product pair per candidate.
    Each level's affine test also holds the annihilator columns of the
    rows of ann A filed there (``_ann_rows_at``, ``_ann_columns``): with the
    earlier images fixed, h(c) in ann B is affine in the candidate.  Every
    isomorphism h maps ann A into ann B, so no refused candidate completes
    to a witness, and the pruned search walks the same pools in the same
    order minus subtrees holding none.  So its witnesses, in order, are
    those of the search without the columns, each reached after no more
    nodes; the first witness, every exhaustive ``no`` and every decided
    verdict stay, and a budget that ran out can only end in a further
    verified witness.  ``ann`` defaults to the chains of A and B.
    Only x·x and the basis prune run per accepted candidate, and neither
    grows with the images already fixed: x·x evaluates B's square forms,
    built once per search, on the checked coordinates, and a free level
    builds the kernel W of its fixed free prefix once, so the prune is
    gcd(r·w for w in W) = 1 (``_completes_basis``).  Seed 0 builds
    no pool whole: a scan holds one tail table and walks the head lazily.
    With ``seed`` the pools are shuffled, which holds each whole, and each
    candidate is tested on its own; a pool above ``SEEDED_POOL_LIMIT``
    raises ``SearchPoolError``, judged from B's orders before any pool is
    built.

    Seed 0 clamps the bound to ``max_nodes``, which changes no witness,
    node count or closing None.  Only order-0 pools depend on the bound, and
    in one every candidate with a nonzero free coordinate is in the pool and
    charged.  A free coordinate at position i of the order 0, 1, -1, 2, ...
    follows the i - 1 candidates that differ from it only there, so the
    pools at both bounds agree on their first 2·max_nodes candidates, hold
    at least that many, and a scan past position max_nodes has spent the
    budget either way.  Seeded pools are not clamped: the shuffle of a
    smaller pool is another order.
    """
    order_of = list(a.orders)
    gen_order = sorted(
        range(a.rank), key=lambda i: (order_of[i] == 0, order_of[i])
    )
    position = {idx: pos for pos, idx in enumerate(gen_order)}
    pools: dict[int, _ProductPool | _ShuffledPool]
    if seed:
        import random

        for d in set(order_of):
            _check_seeded_pool(b, d, coeff_bound)
        # alternative deterministic orderings; 0 keeps smallest-first
        pools = {
            d: _ShuffledPool(x for _, x in _ProductPool(b, d, coeff_bound).scan(()) if x is not None)
            for d in set(order_of)
        }
        rng = random.Random(seed)
        for pool in pools.values():
            rng.shuffle(pool)
    else:
        bound = min(coeff_bound, max_nodes)
        pools = {d: _ProductPool(b, d, bound) for d in set(order_of)}

    # a product constraint becomes checkable once its factors and the
    # support of its value are all assigned; fire each at that moment
    checks_at: list[list[tuple[int, int, tuple]]] = [[] for _ in gen_order]
    for p in range(a.rank):
        for q in range(a.rank):
            terms = tuple((k, c) for k, c in enumerate(a.tensor[p][q]) if c)
            needed = {p, q} | {k for k, _ in terms}
            checks_at[max(position[i] for i in needed)].append((p, q, terms))

    if ann is None:
        ann = _ann_prune(a, b)
    ann_at = _ann_rows_at(a, ann.rows, gen_order)

    images: dict[int, Vec] = {}
    budget = [max_nodes]
    forms = _square_forms(b)
    free_gens = [i for i in gen_order if order_of[i] == 0]
    free_coords = [t for t in range(b.rank) if b.orders[t] == 0]

    def dfs(pos: int) -> Iterator[IntMatrix]:
        if budget[0] <= 0:
            return
        if pos == len(gen_order):
            h = IntMatrix([images[i] for i in range(a.rank)], cols=b.rank)
            if verify_iso_witness(a, b, h):
                yield h
            return
        idx = gen_order[pos]
        ann_columns = _ann_columns(idx, ann_at[pos], images, ann)
        level = _FoldedLevel(b, idx, checks_at[pos], images, forms, ann_columns)
        # the free images taken so far, modulo torsion, must extend to a
        # basis of B/T(B), since an isomorphism induces A/T(A) = B/T(B); the
        # kernel of the fixed prefix is built at the level's first test
        free, kernel = order_of[idx] == 0, None
        charged = 0
        for n, cand in pools[order_of[idx]].scan(level.linear):
            # every candidate up to the n-th costs a node, taken or skipped
            budget[0] -= n - charged
            charged = n
            if budget[0] <= 0:
                return
            if cand is None or not level.square_ok(cand):
                continue
            if free:
                if kernel is None:
                    prefix = [[images[i][t] for t in free_coords] for i in free_gens if i in images]
                    kernel = right_kernel(prefix, len(free_coords))
                if not _completes_basis(kernel, [cand[t] for t in free_coords]):
                    continue
            images[idx] = cand
            yield from dfs(pos + 1)
            del images[idx]

    yield from dfs(0)
    if budget[0] <= 0:
        yield None


def iso_search(
    a: FdzRing,
    b: FdzRing,
    coeff_bound: int = 5,
    max_nodes: int = 150_000,
    seed: int = 0,
) -> IsoResult:
    """Bounded search for a ring isomorphism A -> B.

    Profiles are compared first; a mismatch is a definitive ``no``.  The
    image search enumerates generator images with free coordinates bounded
    by ``coeff_bound`` (torsion coordinates always range over their full
    canonical span), smallest coefficients first.  A partial assignment is
    dropped as soon as its free generator images, read modulo torsion, no
    longer extend to a basis of B/T(B) (gcd of the maximal minors 1).  This
    cuts no witness: an isomorphism induces A/T(A) = B/T(B), so the free
    block of every witness is unimodular, and so is every prefix of it.
    Each free level tests that on its candidate r alone: with W a kernel
    basis of the fixed free prefix, built once per level, the test is
    gcd(r·W) = 1.  The product checks of each level are folded, once per
    prefix, into one affine test of the candidate and the quadratic forms
    of x·x (``_FoldedLevel``), and the level scans its pool one block at a
    time, looking up the candidates that pass the affine test.  That test
    also demands h(c) in ann B for the relations c among the assigned
    generators with sum c_j e_j in ann A, read off A's and B's own chains:
    an isomorphism maps ann A onto ann B, so this cuts only subtrees
    without a witness, and every witness is met in the same order after no
    more nodes.
    Nodes are still charged one per candidate in pool order, skipped ones
    included, so budgets, witnesses and verdicts are those of checking each
    product per candidate; seed 0 takes candidates lazily.  A nonzero
    ``seed`` shuffles the candidate pools and tests their candidates one at
    a time, and raises ``SearchPoolError`` when one would exceed
    ``SEEDED_POOL_LIMIT`` candidates.
    For finite rings the search is exhaustive, so running out of
    candidates is a definitive ``no``; with free generators it is only
    ``unknown``.
    """
    _check_bound(coeff_bound)
    mismatch = invariant_profile(a).first_mismatch(invariant_profile(b))
    if mismatch is not None:
        return IsoResult(kind="no", reason=f"invariant mismatch: {mismatch}")
    return _search(a, b, coeff_bound, max_nodes, seed)


def _check_bound(coeff_bound: int) -> None:
    # a bound below 1 leaves no image of infinite order, so a ring of
    # positive free rank would end ``unknown`` even against itself
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")


def _search(
    a: FdzRing, b: FdzRing, coeff_bound: int, max_nodes: int, seed: int, ann: _AnnPrune | None = None
) -> IsoResult:
    """The image search of ``iso_search``, run after the profiles agree."""
    for witness in _iso_witnesses(a, b, coeff_bound, max_nodes, seed, ann):
        if witness is None:
            return IsoResult(kind="unknown", reason="search budget exhausted")
        return IsoResult(kind="yes", witness=IsoWitness(matrix=witness))
    if all(d != 0 for d in a.orders):
        return IsoResult(kind="no", reason="exhaustive search found no isomorphism")
    return IsoResult(kind="unknown", reason="bounded search exhausted")


# -- embedding verification ----------------------------------------------------


@record
class EmbeddingReport:
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]
    index: int | None
    torsion_quotient_order: int | None


def verify_embedding(a: FdzRing, b: FdzRing, h: IntMatrix) -> EmbeddingReport:
    """Check the finite-index embedding criterion for h: A -> B.

    Runs, in order: well-definedness, ring homomorphism, injectivity,
    finite index, coprimality of the index with |l(B)/k(B)|, restriction to
    an isomorphism of the saturated squares, and inducing an isomorphism of
    the annihilator quotients.  All checks are evaluated (no short
    circuit); the report lists each.
    """
    if h.rows != a.rank or h.cols != b.rank:
        raise ValueError("embedding matrix shape must be rank(A) x rank(B)")
    chain_a = characteristic_ideals(a)
    chain_b = characteristic_ideals(b)

    well, hom, injective = _homomorphism_checks(a, b, h)
    checks: list[tuple[str, bool, str]] = [
        ("well_defined", well, "orders map to zero"),
        ("ring_homomorphism", hom, "tensor compatibility on generators"),
        ("injective", injective, "kernel lattice is trivial"),
    ]

    image = b.additive.subgroup(h.data)
    index = image.index()
    checks.append(("finite_index", index is not None, f"index {index}"))

    k = chain_b.n_quot.order
    assert k is not None
    coprime = index is not None and gcd(index, k) == 1
    checks.append(("index_coprime", coprime, f"gcd(index, {k}) == 1"))

    delta_image = b.additive.subgroup(
        [row_times_matrix(row, h) for row in chain_a.delta.lift_basis]
    )
    delta_iso = injective and delta_image == chain_b.delta
    checks.append(
        ("saturated_square_isomorphism", delta_iso, "image of delta equals delta")
    )

    maps_ann = all(
        chain_b.ann.contains(row_times_matrix(row, h))
        for row in chain_a.ann.lift_basis
    )
    ann_preimage = hermite_rows(
        preimage_lattice(h, chain_b.ann.lift_basis), a.rank
    )
    ann_injective = ann_preimage == chain_a.ann.lift_basis
    covering = hermite_rows(
        list(h.data) + [list(r) for r in chain_b.ann.lift_basis], b.rank
    )
    ann_surjective = covering == _identity_rows(b.rank)
    hat_iso = maps_ann and ann_injective and ann_surjective
    checks.append(
        (
            "annihilator_quotient_isomorphism",
            hat_iso,
            "induced map on the annihilator quotients is bijective",
        )
    )

    passed = all(ok for _, ok, _ in checks)
    return EmbeddingReport(
        passed=passed, checks=tuple(checks), index=index, torsion_quotient_order=k
    )


# -- equivalence verdict --------------------------------------------------------


def _padded_ann_prune(a: FdzRing, b: FdzRing) -> _AnnPrune:
    """``_ann_prune`` of Z0 x A and Z0 x B from the chains of A and B: the
    null line annihilates everything, so ann(Z0 x A) = Z0 + ann A, whose
    lift basis is the null line's unit row over ann A's rows shifted past
    it, and (Z0 x B)/ann = B/ann B, which reads no coordinate of the null
    line: its projection gains a zero row there."""
    rows = ((1,) + (0,) * a.rank,) + tuple((0,) + row for row in characteristic_ideals(a).ann.lift_basis)
    orders, project = _ann_quotient(b)
    return _AnnPrune(rows, orders, IntMatrix([(0,) * project.cols, *project.data], cols=project.cols))


@record
class EquivalenceResult:
    kind: str  # "equivalent" | "not_equivalent" | "unknown"
    witness: IsoWitness | None = None
    reason: str | None = None


def equivalence_verdict(
    a: FdzRing,
    b: FdzRing,
    coeff_bound: int = 5,
    max_nodes: int = 150_000,
    seed: int = 0,
) -> EquivalenceResult:
    """Decide elementary equivalence as far as the two criteria reach.

    A = B iff Z0 x A = Z0 x B.  A profile mismatch of A and B refutes it;
    otherwise the padded rings go straight to the search.  Z0 adds a free
    summand to the additive group, ann, k and A/sq, and keeps sq, n and
    each image of the square, so by cancellation the padded profiles agree
    iff those of A and B do.  The
    padded search finds a verified witness or ends ``unknown``, never ``no``.

    For finite A and B an exhausted padded search (one that ran out of
    candidates, not of budget) gives ``not_equivalent``.  Every isomorphism
    h: A -> B, its rows reduced into the torsion ranges, gives the padded
    witness diag(1, h): the null line goes to the unit vector of the null
    line, which has coefficient 1 <= ``coeff_bound`` and extends to a basis
    of the free part, and each generator of A to its image under h, an
    element of equal order inside the full torsion ranges.  That witness
    lies in the candidate space for every bound >= 1 and every seed, so
    exhaustion proves A and B not isomorphic, and finite rings are
    elementarily equivalent exactly when they are isomorphic.

    The padded search prunes by the annihilators as ``iso_search`` does,
    with data derived from the chains the profiles built: the null line
    annihilates everything, so ann(Z0 x A) = Z0 + ann A, and
    (Z0 x B)/ann = B/ann B, whose projection reads 0 off the null line
    (``_padded_ann_prune``).  No chain of a padded ring is built.  The
    padded witness diag(1, h) maps the null line into Z0 + ann B, so the
    prune keeps it and the exhaustion argument above stands.
    """
    _check_bound(coeff_bound)
    mismatch = invariant_profile(a).first_mismatch(invariant_profile(b))
    if mismatch is not None:
        return EquivalenceResult(
            kind="not_equivalent", reason=f"invariant mismatch: {mismatch}"
        )
    z0 = z0_ring()
    padded = _search(
        direct_product(z0, a), direct_product(z0, b), coeff_bound, max_nodes, seed, _padded_ann_prune(a, b)
    )
    if padded.kind == "yes":
        return EquivalenceResult(kind="equivalent", witness=padded.witness)
    if padded.reason == "bounded search exhausted" and all(a.orders) and all(b.orders):
        return EquivalenceResult(
            kind="not_equivalent",
            reason="finite rings are equivalent only if isomorphic, "
            "and the exhausted padded search found no isomorphism",
        )
    return EquivalenceResult(kind="unknown", reason=padded.reason)
