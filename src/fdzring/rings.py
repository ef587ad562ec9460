"""Rings of finite rank over the integers, presented by structure constants.

A ring here is an abelian group with a diagonal presentation (a vector of
generator orders, 0 meaning infinite) plus an integer tensor c with
e_i·e_j = sum_k c[i][j][k]·e_k.  Multiplication is bilinear by construction;
associativity, commutativity and unity are never assumed.  On top of that
sit the characteristic two-sided ideals

    ann   : everything that multiplies to zero from both sides
    sq    : the additive span of all products ("A squared")
    delta : the saturation of sq
    k     : ann + delta
    l     : the saturation of ann + sq
    o     : ann ∩ delta

and the derived quotients m = A/l (torsion-free) and n = l/k (finite);
l is the saturation of k, so n is the torsion of A/k.  The chain of a ring
is cached, and every member, each ideal and quotient as well as each
presentation, is built once, on first access, so a caller pays only for
what it reads.  It presents as rings only A/ann (``hat``) and delta
(``delta_pres``), the two rings multiplied in; sq, o and an addition A0
with ann = A0 ⊕ o are read as groups in cyclic coordinates
(``_cyclic_presentation``), and A/k as ``k_ideal.quotient().diagonal``.
Every presentation is plain data, compared and hashed by value.  The
module also holds the tame/regular predicates, foundations, and the
quotient, subring and product constructions.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd, prod
from typing import Iterable, Iterator, Sequence

from .groups import FgAbelianGroup, GroupError, Subgroup, split_complement
from .intlinalg import (
    DiagonalPresentation, IntMatrix, SparseRow, Vec, record, row_times_matrix, solve_congruences,
)

ELEMENT_LIMIT = 4096


class RingValidationError(ValueError):
    """A structure tensor violates the well-definedness congruences."""

    def __init__(self, i: int, j: int, k: int, message: str | None = None):
        self.violation = (i, j, k)
        super().__init__(
            message
            or f"product congruence violated at generators ({i + 1}, {j + 1}), "
            f"coordinate {k + 1}"
        )


Tensor = tuple[tuple[Vec, ...], ...]


def ill_defined_product(
    domain_orders: Sequence[int],
    codomain_orders: Sequence[int],
    values: Tensor,
) -> tuple[int, int, int] | None:
    """The first (i, j, k) at which a product table is not well defined.

    ``values[i][j]`` is the product of the i-th and j-th domain generators
    in codomain coordinates; d_i·c[i][j][k] and d_j·c[i][j][k] must vanish
    modulo the k-th codomain order (0 meaning exact equality).  Both do
    exactly when gcd(d_i, d_j)·c[i][j][k] does, since the gcd is
    u·d_i + v·d_j and divides both; two free generators impose nothing.
    """
    for i, di in enumerate(domain_orders):
        for j, dj in enumerate(domain_orders):
            g = gcd(di, dj)
            if not g:
                continue
            for k, dk in enumerate(codomain_orders):
                v = g * values[i][j][k]
                if v % dk if dk else v:
                    return i, j, k
    return None


class FdzRing:
    """A finitely generated ring presented by orders and structure constants."""

    __slots__ = ("orders", "tensor", "additive", "_hash", "_products")

    def __init__(self, orders: Sequence[int], tensor: Sequence[Sequence[Sequence[int]]]):
        self.orders = orders = tuple(map(int, orders))
        if any(d < 0 for d in orders):
            raise RingValidationError(0, 0, 0, "orders must be nonnegative")
        rank = len(orders)
        if len(tensor) != rank or any(len(row) != rank for row in tensor):
            raise RingValidationError(0, 0, 0, "tensor shape must be rank x rank x rank")
        # freeze and reduce in one pass; reducing c modulo d_k keeps
        # gcd(d_i, d_j)·c ≡ 0 (mod d_k) as it was, so the check reads the result
        frozen = []
        for row in tensor:
            vecs = []
            for v in row:
                if len(v) != rank:
                    raise RingValidationError(0, 0, 0, "tensor shape must be rank x rank x rank")
                vecs.append(tuple([x % d if d else x for x, d in zip(map(int, v), orders)]))
            frozen.append(tuple(vecs))
        self.tensor = tuple(frozen)
        bad = ill_defined_product(orders, orders, self.tensor)
        if bad is not None:
            raise RingValidationError(*bad)
        self.additive = FgAbelianGroup.from_orders(orders)
        self._hash = hash((orders, self.tensor))
        self._products = None

    @property
    def rank(self) -> int:
        return len(self.orders)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FdzRing)
            and self.orders == other.orders
            and self.tensor == other.tensor
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FdzRing(orders={list(self.orders)})"

    # -- element arithmetic ------------------------------------------------

    def reduce(self, vec: Sequence[int]) -> Vec:
        orders = self.orders
        if len(vec) != len(orders):
            raise GroupError("coordinate vector has wrong length")
        return tuple([int(x) % d if d else int(x) for x, d in zip(vec, orders)])

    def zero(self) -> Vec:
        return tuple([0] * self.rank)

    def add(self, a: Sequence[int], b: Sequence[int]) -> Vec:
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a: Sequence[int]) -> Vec:
        return self.reduce([-x for x in a])

    def sub(self, a: Sequence[int], b: Sequence[int]) -> Vec:
        return self.reduce([x - y for x, y in zip(a, b)])

    def scale(self, n: int, a: Sequence[int]) -> Vec:
        return self.reduce([n * x for x in a])

    def mul(self, a: Sequence[int], b: Sequence[int]) -> Vec:
        products = self._products
        if products is None:
            # per i, the pairs (j, ((k, c), ...)) of nonzero structure constants
            products = self._products = tuple(
                tuple(
                    (j, tuple((k, c) for k, c in enumerate(vec) if c))
                    for j, vec in enumerate(row)
                    if any(vec)
                )
                for row in self.tensor
            )
        acc = [0] * len(self.orders)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, terms in products[i]:
                bj = b[j]
                if not bj:
                    continue
                f = ai * bj
                for k, c in terms:
                    acc[k] += f * c
        return self.reduce(acc)

    @property
    def order(self) -> int | None:
        return None if 0 in self.orders else prod(self.orders) if self.orders else 1

    def elements(self) -> Iterator[Vec]:
        if self.order is None:
            raise GroupError("cannot enumerate an infinite ring")
        if self.order > ELEMENT_LIMIT:
            raise GroupError(f"ring of order {self.order} exceeds enumeration limit")
        yield from itertools.product(*(range(d) for d in self.orders))

    def generator(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def subgroup(self, gens) -> Subgroup:
        return self.additive.subgroup(gens)

    def is_commutative(self) -> bool:
        return all(
            self.tensor[i][j] == self.tensor[j][i]
            for i in range(self.rank)
            for j in range(i)
        )

    def is_associative(self) -> bool:
        for i in range(self.rank):
            for j in range(self.rank):
                for k in range(self.rank):
                    left = self.mul(self.tensor[i][j], self.generator(k))
                    right = self.mul(self.generator(i), self.tensor[j][k])
                    if left != right:
                        return False
        return True

    def unity(self) -> Vec | None:
        """The two-sided multiplicative identity, if one exists."""
        gens = range(self.rank)
        eqs, moduli = _pairing_equations(self.tensor, self.orders, self.rank, gens)
        # u·e_j and e_j·u must both have coordinate k equal to [j == k]
        rhs = [1 if j == k else 0 for j in gens for k in gens for _ in range(2)]
        res = solve_congruences(eqs, moduli, rhs=rhs, unknowns=self.rank)
        if res is None:
            return None
        return self.reduce(res[0])


def z0_ring() -> FdzRing:
    """The integers with identically zero multiplication."""
    return FdzRing((0,), (((0,),),))


def direct_product(a: FdzRing, b: FdzRing) -> FdzRing:
    ra, rb = a.rank, b.rank
    r = ra + rb
    orders = a.orders + b.orders
    tensor = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(ra):
        for j in range(ra):
            for k in range(ra):
                tensor[i][j][k] = a.tensor[i][j][k]
    for i in range(rb):
        for j in range(rb):
            for k in range(rb):
                tensor[ra + i][ra + j][ra + k] = b.tensor[i][j][k]
    return FdzRing(orders, tensor)


# -- characteristic ideals -------------------------------------------------


@record
class IdealChain:
    """The characteristic ideals of ``ring`` and the two rings built on them.

    Every member, the ideals and quotients included, is built on first
    access and then kept on the chain, which ``characteristic_ideals``
    caches per ring, so every caller shares one copy and builds only what
    it reads.  No caller multiplies in sq, o, A0 or A/k.
    """

    ring: FdzRing

    @cached_property
    def ann(self) -> Subgroup:
        return annihilator(self.ring)

    @cached_property
    def sq(self) -> Subgroup:
        return square_ideal(self.ring)

    @cached_property
    def delta(self) -> Subgroup:
        return self.sq.saturate()

    @cached_property
    def k_ideal(self) -> Subgroup:
        return self.ann.sum(self.delta)

    @cached_property
    def l_ideal(self) -> Subgroup:
        """sat(ann + sq), which is sat(ann + delta) = sat(k)."""
        return self.k_ideal.saturate()

    @cached_property
    def o_ideal(self) -> Subgroup:
        return self.ann.intersect(self.delta)

    @cached_property
    def m_quot(self) -> FgAbelianGroup:
        return self.l_ideal.quotient()

    @cached_property
    def n_quot(self) -> FgAbelianGroup:
        """l/k, the torsion of A/k, presented on its cyclic factors."""
        return FgAbelianGroup.from_orders(
            [d for d in self.k_ideal.quotient().invariant_factors if d]
        )

    @cached_property
    def hat(self) -> QuotientPresentation:
        """The annihilator quotient A/ann."""
        return _ideal_quotient(self.ring, self.ann)

    @cached_property
    def delta_pres(self) -> SubringPresentation:
        return subring_presentation(self.ring, self.delta)

    @cached_property
    def addition(self) -> Subgroup:
        """An addition A0 with ann = A0 ⊕ o.

        One always exists: ann/o = ann/(ann ∩ delta) embeds in A/delta,
        which is torsion-free because delta is saturated, so ann/o is free
        and o is a summand of ann.
        """
        abstract, basis, o_part = self.ann.as_group_with(self.o_ideal)
        split = split_complement(abstract, o_part)
        assert split is not None, "o is a summand of ann"
        gens = [row_times_matrix(row, basis) for row in split.complement.lift_basis]
        return self.ring.subgroup(gens)


def _pairing_equations(
    values: Tensor, codomain_orders: Sequence[int], rank: int, indices: Iterable[int]
) -> tuple[list[SparseRow], list[int]]:
    """Congruences in x, as sparse rows, for coordinate k of x·e_j, then of
    e_j·x, for each j in ``indices`` and each k, where ``values[i][j]`` is
    e_i·e_j in a codomain with the given orders."""
    eqs = []
    moduli = []
    for j in indices:
        for k, dk in enumerate(codomain_orders):
            eqs.append({i: x for i in range(rank) if (x := values[i][j][k])})
            eqs.append({i: x for i in range(rank) if (x := values[j][i][k])})
            moduli += (dk, dk)
    return eqs, moduli


def pairing_kernel(
    values: Tensor,
    codomain_orders: Sequence[int],
    group: FgAbelianGroup,
    indices: Iterable[int],
) -> Subgroup:
    """Elements x of ``group`` with x·e_j = e_j·x = 0 for every j in ``indices``."""
    eqs, moduli = _pairing_equations(values, codomain_orders, group.rank, indices)
    res = solve_congruences(eqs, moduli, unknowns=group.rank)
    assert res is not None
    return group.subgroup(res[1])


def annihilator(a: FdzRing) -> Subgroup:
    return pairing_kernel(a.tensor, a.orders, a.additive, range(a.rank))


def square_ideal(a: FdzRing) -> Subgroup:
    """A², the subgroup spanned by the products e_i·e_j.

    It is a two-sided ideal in every ring, associative or not: for s in A²
    and any z, s·z and z·s are themselves products of two elements.
    """
    return a.additive.subgroup(v for row in a.tensor for v in row)


@lru_cache(maxsize=256)
def characteristic_ideals(a: FdzRing) -> IdealChain:
    """The ideal chain of ``a``, one per ring; every member of it is built
    on first access."""
    return IdealChain(a)


@record
class RingPredicates:
    tame: bool
    regular: bool


def predicates(a: FdzRing) -> RingPredicates:
    chain = characteristic_ideals(a)
    return RingPredicates(
        tame=chain.delta.contains_subgroup(chain.ann),
        regular=chain.k_ideal == chain.l_ideal,
    )


# -- presentations derived from a ring --------------------------------------


@record
class QuotientPresentation:
    """A quotient ring together with coordinate transport.

    ``project`` maps ambient coordinates of the source to quotient
    coordinates; ``lift`` picks coordinates of a preimage.
    """

    ring: FdzRing
    project: IntMatrix
    lift: IntMatrix


def quotient_ring(a: FdzRing, ideal: Subgroup) -> QuotientPresentation:
    if ideal.parent != a.additive:
        raise GroupError("ideal does not live in the ring")
    for row in ideal.lift_basis:
        for i in range(a.rank):
            g = a.generator(i)
            if not ideal.contains(a.mul(row, g)) or not ideal.contains(a.mul(g, row)):
                raise GroupError("subgroup is not a two-sided ideal")
    return _ideal_quotient(a, ideal)


def _ideal_quotient(a: FdzRing, ideal: Subgroup) -> QuotientPresentation:
    """``quotient_ring`` without its checks, for a two-sided ideal of ``a``
    by construction: ann, nA, a subgroup of ann, the torsion, and the
    extension relations of a deformation in the free ring on its
    representatives.  Those are an ideal because e·t_i and its k-coordinates
    multiply alike in the base ring, and the cocycle twist lies in ann."""
    pres = ideal.quotient().diagonal
    lift = pres.lift.data
    tensor = [
        [row_times_matrix(a.mul(x, y), pres.project) for y in lift] for x in lift
    ]
    ring = FdzRing(pres.orders, tensor)
    return QuotientPresentation(ring=ring, project=pres.project, lift=pres.lift)


def reduce_mod_n(a: FdzRing, n: int) -> FdzRing:
    """The finite quotient ring A/nA."""
    if n < 1:
        raise ValueError("modulus must be at least 1")
    scaled = a.additive.subgroup(
        [[n if j == i else 0 for j in range(a.rank)] for i in range(a.rank)]
    )
    return _ideal_quotient(a, scaled).ring


@record
class SubringPresentation:
    """A multiplicatively closed subgroup presented as a ring of its own.

    ``lift`` rows are ambient coordinates of the presentation's generators;
    ``basis`` is the subgroup's Hermite lift basis, and ``diagonal`` presents
    the coefficients over it as the ring's cyclic factors.
    """

    ring: FdzRing
    lift: IntMatrix
    basis: tuple[Vec, ...]
    diagonal: DiagonalPresentation

    def express(self, vec: Sequence[int]) -> Vec:
        """The coordinates of an ambient element of the subgroup."""
        coords = self.diagonal.express_over(self.basis, vec)
        if coords is None:
            raise GroupError("element lies outside the subgroup")
        return coords


@record
class _CyclicPresentation:
    """A subgroup as a product of cyclic groups, with no ring built on it:
    ``diagonal`` presents the coefficients over the Hermite lift ``basis``,
    so its ``orders`` are the cyclic orders, and ``lift`` rows are the
    ambient lifts of the cyclic generators."""

    diagonal: DiagonalPresentation
    basis: tuple[Vec, ...]
    lift: IntMatrix

    def express(self, vec: Sequence[int]) -> Vec | None:
        """The cyclic coordinates of an ambient element, or ``None`` outside."""
        return self.diagonal.express_over(self.basis, vec)


def _cyclic_presentation(s: Subgroup) -> _CyclicPresentation:
    abstract, basis = s.as_group()
    diagonal = abstract.diagonal
    return _CyclicPresentation(diagonal, s.lift_basis, diagonal.lift.mul(basis))


def subring_presentation(a: FdzRing, s: Subgroup) -> SubringPresentation:
    if s.parent != a.additive:
        raise GroupError("subgroup does not live in the ring")
    cyclic = _cyclic_presentation(s)
    # the lift rows and the relations of A generate s, so s is closed under
    # multiplication iff every product of two lift rows lies in it
    lift = cyclic.lift.data
    tensor = [[cyclic.express(a.mul(x, y)) for y in lift] for x in lift]
    if any(None in row for row in tensor):
        raise GroupError("subgroup is not closed under multiplication")
    ring = FdzRing(cyclic.diagonal.orders, tensor)
    return SubringPresentation(ring, cyclic.lift, cyclic.basis, cyclic.diagonal)


# -- additions and foundations ----------------------------------------------


@record
class AdditionFoundation:
    """The chain's addition A0 (ann = A0 ⊕ o), plus the matching foundation.

    The foundation is a complementary subring containing delta when one
    exists, and the quotient ring A/A0 otherwise; exactly one of the two
    foundation fields is set.
    """

    addition: Subgroup
    foundation_subring: Subgroup | None
    foundation_quotient: QuotientPresentation | None


def addition_and_foundation(a: FdzRing) -> AdditionFoundation:
    chain = characteristic_ideals(a)
    addition = chain.addition
    split = split_complement(a.additive, addition, kill=chain.delta)
    if split is not None:
        foundation = split.complement
        # products land in sq ⊆ delta ⊆ foundation, so it is a subring
        assert foundation.contains_subgroup(chain.delta)
        return AdditionFoundation(addition, foundation, None)
    return AdditionFoundation(addition, None, _ideal_quotient(a, addition))
