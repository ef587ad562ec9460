"""Elementary-equivalence and isomorphism testing between rings.

Equal invariant profiles (ideal-chain invariant factors and closed-form
fingerprints of each A/nA) are necessary for elementary equivalence; the
sufficient direction is a bounded isomorphism search on the rings padded
with a null line, after "A = B elementarily iff Z0 x A = Z0 x B".

Witnesses found by the search are always re-verified independently by a
full tensor comparison before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import lru_cache
from math import gcd, prod
from typing import Iterator, Sequence

from .groups import Subgroup
from .intlinalg import (
    IntMatrix, Vec, diagonal_presentation, hermite_rows, preimage_lattice, row_times_matrix
)
from .rings import FdzRing, characteristic_ideals, direct_product, z0_ring


def _group_invariants(s: Subgroup) -> Vec:
    return s.as_group()[0].invariant_factors


@dataclass(frozen=True)
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
        for field in fields(self)[:-1]:
            if getattr(self, field.name) != getattr(other, field.name):
                return field.name
        for mine, theirs in zip(self.fingerprints, other.fingerprints):
            if mine != theirs:
                return f"mod_{mine[0]}"
        return None


FINGERPRINT_RANGE = range(2, 17)


@lru_cache(maxsize=512)
def invariant_profile(a: FdzRing) -> InvariantProfile:
    """The invariant profile of A; the mod-n fingerprints are closed forms.

    A = Z^r / diag(d_i) with d_i = ``a.orders``, so nA lifts to the lattice
    L = diag(gcd(n, d_i)), gcd(n, 0) = n, and |A/nA| = prod gcd(n, d_i).
    A/nA is the sum of the Z/gcd(n, e) over the invariant factors e of A;
    gcd(n, .) keeps e_i | e_j and each value divides n = gcd(n, 0), so without
    the 1s they are the invariant factors of A/nA, with no Smith run (Cohen,
    GTM 138, §2.4).  With S the k independent rows of the square's lift
    basis, (sq + nA)/nA = Z^k / {c : c·S in L}: one preimage, one Smith.
    """
    chain = characteristic_ideals(a)
    lift = IntMatrix(chain.sq.lift_basis, cols=a.rank)
    fingerprints = []
    for n in FINGERPRINT_RANGE:
        scaled = [gcd(n, d) for d in a.orders]
        lattice = [[g if j == i else 0 for j in range(a.rank)] for i, g in enumerate(scaled)]
        image = diagonal_presentation(preimage_lattice(lift, lattice), lift.rows).orders
        quotient = tuple(g for g in (gcd(n, e) for e in a.additive.invariant_factors) if g != 1)
        fingerprints.append((n, prod(scaled), quotient, image))
    return InvariantProfile(
        additive=a.additive.invariant_factors,
        ann=_group_invariants(chain.ann),
        square=_group_invariants(chain.sq),
        delta=_group_invariants(chain.delta),
        k_ideal=_group_invariants(chain.k_ideal),
        l_ideal=_group_invariants(chain.l_ideal),
        m_quot=chain.m_quot.invariant_factors,
        n_quot=chain.n_quot.invariant_factors,
        mod_square=chain.sq.quotient().invariant_factors,
        fingerprints=tuple(fingerprints),
    )


# -- isomorphism search --------------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    matrix: IntMatrix
    verified: bool


@dataclass(frozen=True)
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


def _candidate_images(b: FdzRing, order: int, bound: int) -> Iterator[Vec]:
    """Images for a generator of the given additive order (0 = infinite).

    An isomorphism preserves element orders exactly, so torsion generators
    only range over elements of equal order; free generators range over
    bounded coefficient vectors of infinite order.
    """
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
    for cand in itertools.product(*per_coord):
        if _element_additive_order(b, cand) == order:
            yield tuple(cand)


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


def _iso_witnesses(
    a: FdzRing, b: FdzRing, coeff_bound: int, max_nodes: int, seed: int = 0
) -> Iterator[IntMatrix | None]:
    """Yields verified witnesses; a final ``None`` means the budget ran out."""
    order_of = list(a.orders)
    gen_order = sorted(
        range(a.rank), key=lambda i: (order_of[i] == 0, order_of[i])
    )
    position = {idx: pos for pos, idx in enumerate(gen_order)}
    candidates: dict[int, list[Vec] | _LazyPool]
    if seed:
        import random

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

    def partial_ok(pos: int, idx: int) -> bool:
        for p, q, terms in checks_at[pos]:
            acc = [0] * b.rank
            for k, c in terms:
                acc = [x + c * y for x, y in zip(acc, images[k])]
            if b.reduce(acc) != b.mul(images[p], images[q]):
                return False
        if order_of[idx] == 0:
            # the free images taken so far, modulo torsion, must extend to a
            # basis of B/T(B): an isomorphism induces A/T(A) = B/T(B)
            rows = [
                [images[i][t] for t in free_coords]
                for i in free_gens
                if i in images
            ]
            if not _extends_to_basis(rows, len(free_coords)):
                return False
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    return EquivalenceResult(kind="unknown", reason=padded.reason)
