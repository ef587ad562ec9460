"""Elementary-equivalence and isomorphism testing between rings.

Equal invariant profiles (ideal-chain invariant factors and closed-form
fingerprints of each A/nA) are necessary for elementary equivalence; the
sufficient direction is a bounded isomorphism search on the rings padded
with a null line, after "A = B elementarily iff Z0 x A = Z0 x B".  For
finite rings that search is exhaustive, so running out of candidates
refutes equivalence.

Witnesses found by the search are always re-verified independently by a
full tensor comparison before being returned.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, prod
from operator import mul
from typing import Iterator, Sequence

from .intlinalg import (
    IntMatrix, Vec, hermite_rows, preimage_lattice, record, row_times_matrix, smith_diagonal
)
from .rings import FdzRing, characteristic_ideals, direct_product, z0_ring


@record
class InvariantProfile:
    """Isomorphism-invariant fingerprint of a ring.

    Every field is preserved by ring isomorphism and definable without
    parameters, so a mismatch refutes elementary equivalence.
    """

    additive: Vec
    ann: Vec
    square: Vec
    delta: Vec
    k_ideal: Vec
    l_ideal: Vec
    m_quot: Vec
    n_quot: Vec
    mod_square: Vec
    fingerprints: tuple[tuple[int, int, Vec, Vec], ...]

    def first_mismatch(self, other: "InvariantProfile") -> str | None:
        for name in self.__match_args__[:-1]:
            if getattr(self, name) != getattr(other, name):
                return name
        for mine, theirs in zip(self.fingerprints, other.fingerprints):
            if mine != theirs:
                return f"mod_{mine[0]}"
        return None


FINGERPRINT_RANGE = range(2, 17)


@lru_cache(maxsize=512)
def invariant_profile(a: FdzRing) -> InvariantProfile:
    """The invariant profile of A, every field read off a Smith diagonal.

    No field needs the coordinate change of a Smith form, so each comes
    from ``smith_diagonal``, which builds no transform: the ideal and
    quotient fields through ``FgAbelianGroup.invariant_factors`` of the
    chain's groups, the fingerprints directly.  A = Z^r / diag(d_i)
    with d_i = ``a.orders``, so nA lifts to the lattice L = diag(g_j),
    g_j = gcd(n, d_j) with gcd(n, 0) = n, and |A/nA| = prod g_j.  A/nA is
    the sum of the Z/gcd(n, e) over the invariant factors e of A; gcd(n, .)
    keeps e_i | e_j and each value divides n = gcd(n, 0), so without the 1s
    they are the invariant factors of A/nA (Cohen, GTM 138, §2.4).  For the
    image (sq + nA)/nA, x -> (n/g_j)·x embeds Z/g_j into Z/n, so the image
    is the row module in (Z/n)^r of S' with S'_ij = S_ij·(n/g_j), S the
    rows of the square's lift basis.  Row and column operations keep that
    module up to isomorphism, so with e_1 | e_2 | ... the diagonal of S'
    over Z/n (entries dividing n) it is the sum of the Z/(n/e_i): one
    elimination per modulus, with no preimage lattice.
    """
    chain = characteristic_ideals(a)
    additive = a.additive.invariant_factors
    square = chain.sq.lift_basis
    fingerprints = []
    for n in FINGERPRINT_RANGE:
        scaled = [gcd(n, d) for d in a.orders]
        steps = [n // g for g in scaled]
        diag = smith_diagonal([[x * s for x, s in zip(row, steps)] for row in square], a.rank, n)
        image = tuple(n // e for e in reversed(diag) if e != n)
        quotient = tuple(g for g in (gcd(n, e) for e in additive) if g != 1)
        fingerprints.append((n, prod(scaled), quotient, image))
    return InvariantProfile(
        additive=additive,
        ann=chain.ann.as_group()[0].invariant_factors,
        square=chain.sq.as_group()[0].invariant_factors,
        delta=chain.delta.as_group()[0].invariant_factors,
        k_ideal=chain.k_ideal.as_group()[0].invariant_factors,
        l_ideal=chain.l_ideal.as_group()[0].invariant_factors,
        m_quot=chain.m_quot.invariant_factors,
        n_quot=chain.n_quot.invariant_factors,
        mod_square=chain.sq.quotient().invariant_factors,
        fingerprints=tuple(fingerprints),
    )


# -- isomorphism search --------------------------------------------------------


@record
class IsoWitness:
    matrix: IntMatrix
    verified: bool


@record
class IsoResult:
    kind: str  # "yes" | "no" | "unknown"
    witness: IsoWitness | None = None
    reason: str | None = None


def _coefficient_order(bound: int) -> list[int]:
    out = [0]
    for v in range(1, bound + 1):
        out.extend((v, -v))
    return out


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[Vec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def verify_iso_witness(a: FdzRing, b: FdzRing, h: IntMatrix) -> bool:
    """Full independent check that h defines a ring isomorphism A -> B."""
    if h.rows != a.rank or h.cols != b.rank:
        return False
    for i in range(a.rank):
        d = a.orders[i]
        if d and any(v for v in b.reduce([d * x for x in h.row(i)])):
            return False
    for i in range(a.rank):
        for j in range(a.rank):
            image = row_times_matrix(a.tensor[i][j], h)
            if b.reduce(image) != b.mul(h.row(i), h.row(j)):
                return False
    full = hermite_rows(
        list(h.data) + [list(r) for r in b.additive.relation_basis], b.rank
    )
    if full != _identity_rows(b.rank):
        return False
    kernel = preimage_lattice(h, b.additive.relation_basis)
    return hermite_rows(kernel, a.rank) == a.additive.relation_basis


def _element_additive_order(b: FdzRing, vec: Sequence[int]) -> int:
    """Additive order within a diagonal presentation; 0 encodes infinite."""
    order = 1
    for x, d in zip(vec, b.orders):
        if d == 0:
            if x:
                return 0
        elif x % d:
            dd = d // gcd(d, x % d)
            order = order * dd // gcd(order, dd)
    return order


def _coordinate_ranges(b: FdzRing, order: int, bound: int) -> list[list[int]]:
    """The values each coordinate of a candidate image runs over."""
    values = _coefficient_order(bound)
    per_coord = []
    for d in b.orders:
        if d == 0:
            per_coord.append([0] if order else values)
        else:
            if order:
                per_coord.append([x for x in range(d) if (order * x) % d == 0])
            else:
                per_coord.append(list(range(d)))
    return per_coord


def _candidate_images(b: FdzRing, order: int, bound: int) -> Iterator[Vec]:
    """Images for a generator of the given additive order (0 = infinite).

    An isomorphism preserves element orders exactly, so torsion generators
    only range over elements of equal order; free generators range over
    bounded coefficient vectors of infinite order.
    """
    for cand in itertools.product(*_coordinate_ranges(b, order, bound)):
        if _element_additive_order(b, cand) == order:
            yield tuple(cand)


# A seeded search shuffles its whole candidate pool, so it holds every
# candidate at once; a pool has (2·bound+1)^(free rank) entries before the
# order filter.  The largest seeded pool the corpus searches at the default
# bound is padded W's, 2 · 11^3 = 2,662.
SEEDED_POOL_LIMIT = 50_000


class SearchPoolError(ValueError):
    """A seeded search would have to hold more candidates than the guard."""


def _check_seeded_pool(b: FdzRing, order: int, bound: int) -> None:
    size = prod(len(values) for values in _coordinate_ranges(b, order, bound))
    if size > SEEDED_POOL_LIMIT:
        raise SearchPoolError(
            f"a seeded search would shuffle {size} candidate images, above "
            f"SEEDED_POOL_LIMIT = {SEEDED_POOL_LIMIT}; lower the coefficient "
            "bound or search with seed 0"
        )


def _extends_to_basis(rows: Sequence[Sequence[int]], width: int) -> bool:
    """Whether the k rows of width f extend to a basis of Z^f.

    That holds iff the gcd of the k x k minors is 1, i.e. iff the f columns
    span Z^k: the Hermite basis of the transposed rows is the k x k
    identity (Cohen, GTM 138, 2.4).  It implies the rows are independent.
    """
    k = len(rows)
    columns = [[row[t] for row in rows] for t in range(width)]
    return hermite_rows(columns, k) == _identity_rows(k)


class _LazyPool:
    """Re-iterable view of an iterator that stores only what was consumed.

    The search charges one node per candidate it takes, so a pool never
    holds more than the node budget, however large the full candidate set.
    """

    def __init__(self, source: Iterator[Vec]):
        self._source = source
        self._seen: list[Vec] = []

    def __iter__(self) -> Iterator[Vec]:
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
    deduplicated.  Only the check x·x keeps a multiplication per candidate;
    ``square`` holds its columns as (k, n, v, d), tested against (x·x)_k.
    Every coordinate is compared modulo its order, as ``reduce`` does, so a
    candidate passes exactly when it passes each product check.
    """

    __slots__ = ("b", "linear", "square")

    def __init__(self, b: FdzRing, idx: int, checks, images: dict[int, Vec]):
        self.b = b
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
                if p == q == idx:
                    if d != 1:
                        square.append((k, tuple(column), v, d))
                elif v or any(column):
                    linear[tuple(column), v, d] = None
        self.linear = tuple(linear)
        self.square = tuple(square)

    def accepts(self, cand: Vec) -> bool:
        for column, v, d in self.linear:
            x = v + sum(map(mul, cand, column))
            if x % d if d else x:
                return False
        if self.square:
            sq = self.b.mul(cand, cand)
            for k, column, v, d in self.square:
                x = v + sum(map(mul, cand, column)) - sq[k]
                if x % d if d else x:
                    return False
        return True


def _iso_witnesses(
    a: FdzRing, b: FdzRing, coeff_bound: int, max_nodes: int, seed: int = 0
) -> Iterator[IntMatrix | None]:
    """Yields verified witnesses; a final ``None`` means the budget ran out.

    A depth-first search over generator images, torsion generators first,
    charging one node per candidate taken.  On entering a level, on its
    first candidate, the product checks that fire there are folded over the
    fixed earlier images into one ``_FoldedLevel``; it accepts exactly the
    candidates the checks accept, so the nodes charged, the witnesses and
    their order are those of checking each product pair per candidate.
    With ``seed`` the candidate pools are shuffled, which holds each pool
    whole; a pool above ``SEEDED_POOL_LIMIT`` raises ``SearchPoolError``.
    """
    order_of = list(a.orders)
    gen_order = sorted(
        range(a.rank), key=lambda i: (order_of[i] == 0, order_of[i])
    )
    position = {idx: pos for pos, idx in enumerate(gen_order)}
    candidates: dict[int, list[Vec] | _LazyPool]
    if seed:
        import random

        for d in set(order_of):
            _check_seeded_pool(b, d, coeff_bound)
        # alternative deterministic orderings; 0 keeps smallest-first
        candidates = {
            d: list(_candidate_images(b, d, coeff_bound)) for d in set(order_of)
        }
        rng = random.Random(seed)
        for pool in candidates.values():
            rng.shuffle(pool)
    else:
        candidates = {
            d: _LazyPool(_candidate_images(b, d, coeff_bound)) for d in set(order_of)
        }

    # a product constraint becomes checkable once its factors and the
    # support of its value are all assigned; fire each at that moment
    checks_at: list[list[tuple[int, int, tuple]]] = [[] for _ in gen_order]
    for p in range(a.rank):
        for q in range(a.rank):
            terms = tuple((k, c) for k, c in enumerate(a.tensor[p][q]) if c)
            needed = {p, q} | {k for k, _ in terms}
            checks_at[max(position[i] for i in needed)].append((p, q, terms))

    images: dict[int, Vec] = {}
    budget = [max_nodes]
    free_gens = [i for i in gen_order if order_of[i] == 0]
    free_coords = [t for t in range(b.rank) if b.orders[t] == 0]

    def basis_ok(idx: int) -> bool:
        if order_of[idx] == 0:
            # the free images taken so far, modulo torsion, must extend to a
            # basis of B/T(B): an isomorphism induces A/T(A) = B/T(B)
            rows = [
                [images[i][t] for t in free_coords]
                for i in free_gens
                if i in images
            ]
            return _extends_to_basis(rows, len(free_coords))
        return True

    def dfs(pos: int) -> Iterator[IntMatrix]:
        if budget[0] <= 0:
            return
        if pos == len(gen_order):
            h = IntMatrix([images[i] for i in range(a.rank)], cols=b.rank)
            if verify_iso_witness(a, b, h):
                yield h
            return
        idx = gen_order[pos]
        level = None
        for cand in candidates[order_of[idx]]:
            budget[0] -= 1
            if budget[0] <= 0:
                return
            if level is None:
                level = _FoldedLevel(b, idx, checks_at[pos], images)
            images[idx] = cand
            if level.accepts(cand) and basis_ok(idx):
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
    The product checks of each level are folded, once per prefix, into one
    affine test of the candidate (``_FoldedLevel``); it accepts exactly
    the candidates the checks accept, so nodes, witnesses and verdicts are
    those of checking each product per candidate.  A nonzero ``seed``
    shuffles the candidate pools, and raises ``SearchPoolError`` when one
    would exceed ``SEEDED_POOL_LIMIT`` candidates.
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


def _search(a: FdzRing, b: FdzRing, coeff_bound: int, max_nodes: int, seed: int) -> IsoResult:
    """The image search of ``iso_search``, run after the profiles agree."""
    for witness in _iso_witnesses(a, b, coeff_bound, max_nodes, seed):
        if witness is None:
            return IsoResult(kind="unknown", reason="search budget exhausted")
        return IsoResult(kind="yes", witness=IsoWitness(matrix=witness, verified=True))
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
    checks: list[tuple[str, bool, str]] = []
    chain_a = characteristic_ideals(a)
    chain_b = characteristic_ideals(b)

    well = all(
        not any(b.reduce([a.orders[i] * x for x in h.row(i)]))
        for i in range(a.rank)
        if a.orders[i]
    )
    checks.append(("well_defined", well, "orders map to zero"))

    hom = all(
        b.reduce(row_times_matrix(a.tensor[i][j], h)) == b.mul(h.row(i), h.row(j))
        for i in range(a.rank)
        for j in range(a.rank)
    )
    checks.append(("ring_homomorphism", hom, "tensor compatibility on generators"))

    kernel = hermite_rows(preimage_lattice(h, b.additive.relation_basis), a.rank)
    injective = kernel == a.additive.relation_basis
    checks.append(("injective", injective, "kernel lattice is trivial"))

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
    summand to the additive group, ann, k, l and A/sq, keeps sq, delta, m,
    n and each image of the square, and adds Z/n to each A/nA, so by
    cancellation the padded profiles agree iff those of A and B do.  The
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
    """
    _check_bound(coeff_bound)
    mismatch = invariant_profile(a).first_mismatch(invariant_profile(b))
    if mismatch is not None:
        return EquivalenceResult(
            kind="not_equivalent", reason=f"invariant mismatch: {mismatch}"
        )
    z0 = z0_ring()
    padded = _search(direct_product(z0, a), direct_product(z0, b), coeff_bound, max_nodes, seed)
    if padded.kind == "yes":
        return EquivalenceResult(kind="equivalent", witness=padded.witness)
    if padded.reason == "bounded search exhausted" and all(a.orders) and all(b.orders):
        return EquivalenceResult(
            kind="not_equivalent",
            reason="finite rings are equivalent only if isomorphic, "
            "and the exhausted padded search found no isomorphism",
        )
    return EquivalenceResult(kind="unknown", reason=padded.reason)
