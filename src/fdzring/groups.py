"""Finitely generated abelian groups presented as Z^r modulo a relation lattice.

A group is the ambient free group Z^r divided by the row span of a relation
matrix; a subgroup is carried by the lattice of its lifts, canonicalized by
its Hermite basis (so subgroup equality is syntactic equality of canonical
forms).  Saturation, sums, intersections, quotients, invariant factors, and
direct-summand complements all reduce to exact lattice computations.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, Sequence

from .intlinalg import (
    DiagonalPresentation,
    IntMatrix,
    Vec,
    affine_preimage,
    diagonal_presentation,
    hermite_coordinates,
    hermite_reduce,
    hermite_rows,
    left_kernel,
    preimage_lattice,
    record,
    row_times_matrix,
    smith_diagonal,
    vec_add,
    vec_scale,
)

# the largest group ``FgAbelianGroup.elements`` enumerates
ENUMERATION_LIMIT = 65536


class GroupError(ValueError):
    pass


class FgAbelianGroup:
    """Z^rank modulo the lattice spanned by the relation rows."""

    def __init__(self, rank: int, relations: Iterable[Sequence[int]] = ()):
        self.rank = int(rank)
        self.relation_basis = hermite_rows(relations, self.rank)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FgAbelianGroup)
            and self.rank == other.rank
            and self.relation_basis == other.relation_basis
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.relation_basis))

    def __repr__(self) -> str:
        return f"FgAbelianGroup(rank={self.rank}, invariants={list(self.invariant_factors)})"

    @classmethod
    def from_orders(cls, orders: Sequence[int]) -> "FgAbelianGroup":
        """Diagonal presentation: one generator per order, 0 meaning infinite."""
        r = len(orders)
        rels = []
        for i, d in enumerate(orders):
            if d < 0:
                raise GroupError("orders must be nonnegative")
            if d:
                rels.append([d if j == i else 0 for j in range(r)])
        return cls(r, rels)

    @cached_property
    def diagonal(self) -> DiagonalPresentation:
        """This group as a product of cyclic groups, with coordinate maps."""
        return diagonal_presentation(self.relation_basis, self.rank)

    @cached_property
    def invariant_factors(self) -> Vec:
        """d1 | d2 | ... then zeros for free rank; unit factors dropped.

        Read off ``smith_diagonal``, which builds no coordinate change, so
        the group's invariants never pay for ``diagonal``'s transforms.
        """
        diag = smith_diagonal(self.relation_basis, self.rank)
        return tuple(d for d in diag + (0,) * (self.rank - len(diag)) if d != 1)

    @cached_property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        inv = self.invariant_factors
        if any(d == 0 for d in inv):
            return None
        return prod(inv) if inv else 1

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    def exponent(self) -> int | None:
        """Least n >= 1 with n·x = 0 for all x, or None when unbounded."""
        if not self.is_finite:
            return None
        inv = self.invariant_factors
        return inv[-1] if inv else 1

    def reduce(self, vec: Sequence[int]) -> Vec:
        """Canonical coset representative of an ambient vector."""
        if len(vec) != self.rank:
            raise GroupError("vector length does not match ambient rank")
        return hermite_reduce(self.relation_basis, vec)

    def element_order(self, vec: Sequence[int]) -> int | None:
        """Additive order of the coset of ``vec`` (None = infinite)."""
        # order = index of {n : n·vec in relations} in Z
        rows = [list(vec)]
        mat = IntMatrix(rows, cols=self.rank)
        pre = preimage_lattice(mat, self.relation_basis)
        if not pre:
            return None
        n = abs(pre[0][0])
        return n if n else None

    def elements(self) -> Iterator[Vec]:
        """All canonical representatives; finite groups only."""
        if not self.is_finite:
            raise GroupError("cannot enumerate an infinite group")
        assert self.order is not None
        if self.order > ENUMERATION_LIMIT:
            raise GroupError(f"group of order {self.order} exceeds enumeration limit")
        diagonal = self.diagonal
        # coordinates y over the cyclic factors; x = y·lift
        for y in itertools.product(*(range(d) for d in diagonal.orders)):
            yield self.reduce(row_times_matrix(y, diagonal.lift))

    def zero(self) -> Vec:
        return tuple([0] * self.rank)

    def add(self, a: Sequence[int], b: Sequence[int]) -> Vec:
        return self.reduce(vec_add(tuple(a), tuple(b)))

    def neg(self, a: Sequence[int]) -> Vec:
        return self.reduce(tuple(-x for x in a))

    def scale(self, n: int, a: Sequence[int]) -> Vec:
        return self.reduce(vec_scale(n, tuple(a)))

    def subgroup(self, generators: Iterable[Sequence[int]]) -> "Subgroup":
        return Subgroup(self, generators)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, IntMatrix.identity(self.rank).data)

    def zero_subgroup(self) -> "Subgroup":
        return Subgroup(self, ())


class Subgroup:
    """A subgroup of an FgAbelianGroup, canonicalized by its lift lattice."""

    def __init__(self, parent: FgAbelianGroup, generators: Iterable[Sequence[int]]):
        self.parent = parent
        rows = list(generators) + [list(r) for r in parent.relation_basis]
        self.lift_basis = hermite_rows(rows, parent.rank)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.lift_basis == other.lift_basis
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.lift_basis))

    def __repr__(self) -> str:
        return f"Subgroup(invariants={list(self.as_group()[0].invariant_factors)})"

    def contains(self, vec: Sequence[int]) -> bool:
        return all(
            x == 0 for x in hermite_reduce(self.lift_basis, self.parent.reduce(vec))
        )

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(self.contains(row) for row in other.lift_basis)

    def is_zero(self) -> bool:
        return self == self.parent.zero_subgroup()

    def is_full(self) -> bool:
        return self == self.parent.full_subgroup()

    def sum(self, other: "Subgroup") -> "Subgroup":
        if self.parent != other.parent:
            raise GroupError("subgroup sum requires a common parent")
        return Subgroup(self.parent, self.lift_basis + other.lift_basis)

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.parent != other.parent:
            raise GroupError("subgroup intersection requires a common parent")
        b1, b2 = self.lift_basis, other.lift_basis
        if not b1 or not b2:
            return self.parent.zero_subgroup()
        w = IntMatrix(b1, cols=self.parent.rank)
        gens = [row_times_matrix(c, w) for c in preimage_lattice(w, b2)]
        return Subgroup(self.parent, gens)

    def saturate(self) -> "Subgroup":
        """Isolator: all x with n·x inside for some n >= 1, computed as the
        kernel of a kernel: {x : x·y = 0 whenever L·y = 0}, L the lift
        lattice (Cohen, GTM 138, §2.4)."""
        kernel = left_kernel(_transpose(self.lift_basis, self.parent.rank))
        return Subgroup(self.parent, left_kernel(_transpose(kernel, self.parent.rank)))

    def quotient(self) -> FgAbelianGroup:
        """The parent modulo this subgroup."""
        return FgAbelianGroup(self.parent.rank, self.lift_basis)

    def index(self) -> int | None:
        return self.quotient().order

    def as_group(self) -> tuple[FgAbelianGroup, IntMatrix]:
        """Present this subgroup abstractly.

        Returns ``(group, basis)`` where ``basis`` rows are ambient lifts of
        the abstract generators and ``group`` is Z^k modulo the coefficient
        vectors that die in the parent.
        """
        basis = IntMatrix(self.lift_basis, cols=self.parent.rank)
        rels = preimage_lattice(basis, self.parent.relation_basis)
        return FgAbelianGroup(basis.rows, rels), basis

    def as_group_with(self, part: "Subgroup") -> tuple[FgAbelianGroup, IntMatrix, "Subgroup"]:
        """``as_group`` together with ``part`` as a subgroup of the abstract
        group; ``part`` must lie inside this subgroup."""
        group, basis = self.as_group()
        inner = []
        for row in part.lift_basis:
            coeffs = self.express(row)
            if coeffs is None:
                raise GroupError("part is not inside the subgroup")
            inner.append(coeffs)
        return group, basis, group.subgroup(inner)

    def express(self, vec: Sequence[int]) -> Vec | None:
        """Coefficients of ``vec`` over the abstract basis, if it lies here.

        The lift lattice contains the parent relations, so membership of the
        raw vector in the lattice is exactly membership in the subgroup.
        """
        return hermite_coordinates(self.lift_basis, vec)


def _transpose(rows: Sequence[Sequence[int]], width: int) -> IntMatrix:
    """The width x len(rows) matrix whose columns are ``rows``."""
    return IntMatrix([[row[j] for row in rows] for j in range(width)], cols=len(rows))


def quotient_of_subgroups(big: Subgroup, small: Subgroup) -> FgAbelianGroup:
    """big/small as an abstract group (small must lie inside big)."""
    return big.as_group_with(small)[2].quotient()


@record
class Splitting:
    complement: Subgroup
    projection: IntMatrix  # ambient endomorphism projecting onto the subgroup


def split_complement(
    g: FgAbelianGroup, s: Subgroup, kill: Subgroup | None = None
) -> Splitting | None:
    """A complement C with G = S ⊕ C, or None when S is not a summand.

    Decided by integer solvability of a projection p: G -> S restricting to
    the identity on S; the complement is its kernel.  The only unknowns are
    the r x r entries of P (acting on row vectors), and each condition is a
    block of r columns asking that v·P - value lie in a lattice:

      * e_i·P ∈ S for each unit vector e_i, so p lands in S;
      * s·P - s ∈ relations for each row s of S's lift basis, so p is the
        identity on S (the relation rows among them make p well defined);
      * w·P ∈ relations for each row w of ``kill``'s lift basis, so C
        contains ``kill``; with ``kill`` given, None means no complement of
        S contains it.

    ``affine_preimage`` returns the canonical P of the solution coset.
    """
    if s.parent != g or (kill is not None and kill.parent != g):
        raise GroupError("subgroup does not live in the given group")
    r = g.rank
    rels = g.relation_basis
    zero = g.zero()
    conditions = [(unit, s.lift_basis, zero) for unit in IntMatrix.identity(r).data]
    conditions += [(row, rels, row) for row in s.lift_basis]
    if kill is not None:
        conditions += [(row, rels, zero) for row in kill.lift_basis]
    width = r * len(conditions)
    # the unknown P[a][c] feeds column c of every block, weighted by v[a]
    w = [[0] * width for _ in range(r * r)]
    target: list[list[int]] = []
    rhs: list[int] = []
    for b, (v, lattice, value) in enumerate(conditions):
        for a in range(r):
            for c in range(r):
                w[a * r + c][b * r + c] = v[a]
        target += [[0] * (b * r) + list(t) + [0] * (width - b * r - r) for t in lattice]
        rhs += value
    res = affine_preimage(IntMatrix(w, cols=width), target, rhs)
    if res is None:
        return None
    sol = res[0]
    proj = IntMatrix([sol[i * r : (i + 1) * r] for i in range(r)], cols=r)
    kernel_rows = preimage_lattice(proj, rels)
    complement = Subgroup(g, kernel_rows)
    return Splitting(complement=complement, projection=proj)
