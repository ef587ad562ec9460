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
is cached, and it carries the presentations that the induced map, the
deformations and the six-term check read: the quotient rings A/ann and A/k,
the subrings sq, delta and o, o in delta coordinates, and an addition A0
with ann = A0 ⊕ o, which always exists, as a null subring.  Each is built
once, on first use.  The module also holds the tame/regular predicates,
foundations, and the quotient, subring and product constructions.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .groups import FgAbelianGroup, GroupError, Subgroup, split_complement
from .intlinalg import IntMatrix, SparseRow, Vec, record, row_times_matrix, solve_congruences

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


def _freeze_tensor(tensor: Sequence[Sequence[Sequence[int]]], rank: int) -> Tensor:
    if len(tensor) != rank or any(len(row) != rank for row in tensor):
        raise RingValidationError(0, 0, 0, "tensor shape must be rank x rank x rank")
    out = []
    for row in tensor:
        vecs = []
        for v in row:
            if len(v) != rank:
                raise RingValidationError(0, 0, 0, "tensor shape must be rank x rank x rank")
            vecs.append(tuple(int(x) for x in v))
        out.append(tuple(vecs))
    return tuple(out)


def ill_defined_product(
    domain_orders: Sequence[int],
    codomain_orders: Sequence[int],
    values: Tensor,
) -> tuple[int, int, int] | None:
    """The first (i, j, k) at which a product table is not well defined.

    ``values[i][j]`` is the product of the i-th and j-th domain generators
    in codomain coordinates; d_i·c[i][j][k] and d_j·c[i][j][k] must vanish
    modulo the k-th codomain order (0 meaning exact equality).
    """
    for i, di in enumerate(domain_orders):
        for j, dj in enumerate(domain_orders):
            for k, dk in enumerate(codomain_orders):
                c = values[i][j][k]
                for d_side in (di, dj):
                    v = d_side * c
                    if (dk == 0 and v != 0) or (dk != 0 and v % dk):
                        return i, j, k
    return None


class FdzRing:
    """A finitely generated ring presented by orders and structure constants."""

    __slots__ = ("orders", "tensor", "additive", "_hash", "_products")

    def __init__(self, orders: Sequence[int], tensor: Sequence[Sequence[Sequence[int]]]):
        self.orders = tuple(int(d) for d in orders)
        if any(d < 0 for d in self.orders):
            raise RingValidationError(0, 0, 0, "orders must be nonnegative")
        raw = _freeze_tensor(tensor, self.rank)
        self.additive = FgAbelianGroup.from_orders(self.orders)
        bad = ill_defined_product(self.orders, self.orders, raw)
        if bad is not None:
            raise RingValidationError(*bad)
        self.tensor = tuple(
            tuple(self.reduce(v) for v in row) for row in raw
        )
        self._hash = hash((self.orders, self.tensor))
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

    @property
    def is_finite(self) -> bool:
        return self.order is not None

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


def validate_ring(orders: Sequence[int], tensor) -> FdzRing:
    """Build a ring, raising RingValidationError on the first bad congruence."""
    return FdzRing(orders, tensor)


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
    """The characteristic ideals of ``ring`` and the presentations built on them.

    Each presentation is built on first access and then kept on the chain,
    which ``characteristic_ideals`` caches per ring, so every caller shares
    one copy.
    """

    ring: FdzRing
    ann: Subgroup
    sq: Subgroup
    delta: Subgroup
    k_ideal: Subgroup
    l_ideal: Subgroup
    o_ideal: Subgroup
    m_quot: FgAbelianGroup
    n_quot: FgAbelianGroup

    @cached_property
    def hat(self) -> QuotientPresentation:
        """The annihilator quotient A/ann."""
        return _ideal_quotient(self.ring, self.ann)

    @cached_property
    def ak(self) -> QuotientPresentation:
        """The quotient A/k."""
        return _ideal_quotient(self.ring, self.k_ideal)

    @cached_property
    def square_pres(self) -> SubringPresentation:
        return subring_presentation(self.ring, self.sq)

    @cached_property
    def delta_pres(self) -> SubringPresentation:
        return subring_presentation(self.ring, self.delta)

    @cached_property
    def o_pres(self) -> SubringPresentation:
        return subring_presentation(self.ring, self.o_ideal)

    @cached_property
    def o_in_delta(self) -> IntMatrix:
        """Rows: the generators of ``o_pres`` in ``delta_pres`` coordinates."""
        delta = self.delta_pres
        return IntMatrix(
            [delta.express(row) for row in self.o_pres.lift.data], cols=delta.ring.rank
        )

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

    @cached_property
    def addition_pres(self) -> SubringPresentation:
        """The addition as a subring; it lies in ann, so all its products vanish."""
        return subring_presentation(self.ring, self.addition)


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
    ann = annihilator(a)
    sq = square_ideal(a)
    delta = sq.saturate()
    k_ideal = ann.sum(delta)
    l_ideal = ann.sum(sq).saturate()
    o_ideal = ann.intersect(delta)
    m_quot = l_ideal.quotient()
    # l = sat(k), so l/k is the torsion of A/k, presented on its cyclic factors
    n_quot = FgAbelianGroup.from_orders([d for d in k_ideal.quotient().invariant_factors if d])
    return IdealChain(
        ring=a,
        ann=ann,
        sq=sq,
        delta=delta,
        k_ideal=k_ideal,
        l_ideal=l_ideal,
        o_ideal=o_ideal,
        m_quot=m_quot,
        n_quot=n_quot,
    )


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
    by construction: ann, k, nA, a subgroup of ann, the torsion, and the
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
    ``express`` sends an ambient element of the subgroup to its coordinates.
    """

    ring: FdzRing
    lift: IntMatrix
    express: Callable[[Sequence[int]], Vec]


def subring_presentation(a: FdzRing, s: Subgroup) -> SubringPresentation:
    if s.parent != a.additive:
        raise GroupError("subgroup does not live in the ring")
    for x in s.lift_basis:
        for y in s.lift_basis:
            if not s.contains(a.mul(x, y)):
                raise GroupError("subgroup is not closed under multiplication")
    abstract, basis = s.as_group()
    diagonal = abstract.diagonal
    lift = diagonal.lift.mul(basis)

    def express(vec: Sequence[int]) -> Vec:
        coeffs = s.express(vec)
        if coeffs is None:
            raise GroupError("element lies outside the subgroup")
        return diagonal.coordinates(coeffs)

    tensor = [[express(a.mul(x, y)) for y in lift.data] for x in lift.data]
    ring = FdzRing(diagonal.orders, tensor)
    return SubringPresentation(ring=ring, lift=lift, express=express)


def transport(a: FdzRing, t: IntMatrix, tinv: IntMatrix) -> FdzRing:
    """Rewrite A along the additive base change x -> x·t.

    ``t`` must be unimodular with both t and tinv preserving the relation
    lattice; the result is the identical ring presented in new coordinates.
    """
    if t.mul(tinv) != IntMatrix.identity(a.rank):
        raise ValueError("base change must be unimodular with the given inverse")
    tensor = []
    for i in range(a.rank):
        row = []
        for j in range(a.rank):
            prod_old = a.mul(tinv.row(i), tinv.row(j))
            row.append(row_times_matrix(prod_old, t))
        tensor.append(row)
    return FdzRing(a.orders, tensor)


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
