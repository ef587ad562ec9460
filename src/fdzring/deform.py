"""Symmetric 2-cocycles, abelian group extensions, and ring deformations.

A symmetric normalized 2-cocycle c on a group G with values in D encodes an
abelian extension of G by D: the carrier is G x D with

    (g1, d1) ⊞ (g2, d2) = (g1 + g2, d1 + d2 + c(g1, g2)).

On a cyclic factor of order e the canonical transversal produces the
staircase cocycle that vanishes below the wrap-around and equals a fixed
target element at or past it; its class lives in D/eD and classifies the
extension.  Cocycles are held only in that normal form, one target element
per cyclic factor of the source, which covers every class: the tests check
the cocycle identity, the coboundary test and the class sums on explicit
value tables, with brute-force oracles kept outside the library.

An extension is presented by a relation e_i·g_i = beta_i per finite source
factor; a staircase wraps once in e steps, so beta_i is the factor's value
(zero when e_i = 1).

The deformation constructor rebuilds a ring from its characteristic-ideal
skeleton at the integer instantiation (Myasnikov–Oger–Sohrabi, APAL 169,
2018): the carrier is (free part ⊕ torsion part of A/k) x (delta ⊕
addition).  The transversal defects of l over k telescope over a cycle, so
a torsion factor with lift t_i and cocycle value d_i (in the would-be
annihilator) has beta_i = k(e_i·t_i) + d_i.  Products of representatives
land in delta and are annihilator-transparent, so the ring is the quotient
of the free ring on the representatives by the relations.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .eqcheck import _check_bound, _iso_witnesses
from .groups import FgAbelianGroup
from .intlinalg import (
    IntMatrix, Vec, affine_preimage, hermite_reduce, record, reduce_mod_orders, row_times_matrix,
    smith_diagonal,
)
from .rings import FdzRing, _ideal_quotient, characteristic_ideals


# the independence schema is checked modulo 2, 3, ..., INDEPENDENCE_BOUND
INDEPENDENCE_BOUND = 16


class CocycleError(ValueError):
    pass


class DeformationError(ValueError):
    pass


@record
class SymmetricCocycle:
    """A symmetric normalized 2-cocycle between diagonally presented groups,
    in cyclic normal form.

    It holds one target element per source factor: the value of the
    staircase cocycle on that factor (see ``cyclic_cocycle``), zero on
    infinite factors, where every extension splits.  Its value at (x, y) is
    the sum of the values of the factors on which x + y wraps past the
    order.  Sums of staircases are cocycles, so no identity check is needed.
    The fields are stored normalised (ints, values reduced modulo the target
    orders), so two cocycles with one normal form compare and hash equal.
    """

    source_orders: Vec
    target_orders: Vec
    cyclic_values: tuple[Vec, ...]

    def __post_init__(self):
        source = tuple(int(d) for d in self.source_orders)
        target = tuple(int(d) for d in self.target_orders)
        lengths = {len(v) for v in self.cyclic_values}
        if len(self.cyclic_values) != len(source) or lengths - {len(target)}:
            raise CocycleError("one value of the target's length per source factor required")
        vals = tuple(reduce_mod_orders(v, target) for v in self.cyclic_values)
        if any(any(v) for e, v in zip(source, vals) if e == 0):
            raise CocycleError(
                "extensions of an infinite cyclic factor split; the "
                "normal-form value must be zero"
            )
        # record fields refuse assignment, so the normal form goes to the dict
        self.__dict__.update(source_orders=source, target_orders=target, cyclic_values=vals)

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        xr = reduce_mod_orders(x, self.source_orders)
        yr = reduce_mod_orders(y, self.source_orders)
        acc = [0] * len(self.target_orders)
        for i, e in enumerate(self.source_orders):
            if e and xr[i] + yr[i] >= e:
                for k, v in enumerate(self.cyclic_values[i]):
                    acc[k] += v
        return reduce_mod_orders(acc, self.target_orders)


def zero_cocycle(source_orders: Sequence[int], target_orders: Sequence[int]) -> SymmetricCocycle:
    return SymmetricCocycle(
        source_orders,
        target_orders,
        cyclic_values=[[0] * len(target_orders) for _ in source_orders],
    )


def cyclic_cocycle(e: int, d: Sequence[int], target_orders: Sequence[int]) -> SymmetricCocycle:
    """The staircase cocycle on a cyclic group of order e with value d.

    Vanishes on representative pairs (i, j) with i + j < e and equals d once
    i + j wraps past e.
    """
    if e < 1:
        raise CocycleError("the cyclic order must be at least 1")
    return SymmetricCocycle((e,), target_orders, cyclic_values=[list(d)])


@record
class CocycleAnalysis:
    is_coboundary: bool
    ext_classes: tuple[Vec, ...]


def cocycle_analyze(c: SymmetricCocycle) -> CocycleAnalysis:
    """Decide coboundary-ness and read off the extension classes.

    The class on a factor of order e is its normal-form value reduced
    modulo e·D, realizing the identification of the extension group of a
    cyclic group with that quotient; the cocycle is a coboundary exactly
    when every class vanishes.  Infinite factors carry no class.  With D
    diagonal of orders d_k, e·D is the diagonal lattice of the gcd(e, d_k)
    (gcd(e, 0) = e), so each coordinate is reduced modulo its gcd.
    """
    classes = tuple(
        tuple(x % gcd(e, dk) for x, dk in zip(d, c.target_orders))
        for e, d in zip(c.source_orders, c.cyclic_values)
        if e
    )
    return CocycleAnalysis(not any(map(any, classes)), classes)


# -- group extensions ----------------------------------------------------------


@record
class GroupExtension:
    """The extension group presented on source and target generators.

    Ambient coordinates are (source generators, target generators);
    ``embed_target`` includes the kernel and ``project_source`` is the
    canonical epimorphism onto the source.
    """

    group: FgAbelianGroup
    embed_target: IntMatrix
    project_source: IntMatrix


def _extension_group(
    source_orders: Vec, target_orders: Vec, betas: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The relation rows of the extension of the source by the target.

    The i-th source generator g_i of finite order e_i meets e_i·g_i = beta_i,
    where beta_i is the twist that adding g_i to itself e_i times leaves in
    the target; ``betas`` holds them for the finite source factors, in
    order, and infinite factors take no relation.  The target orders close
    the list.
    """
    rg, rd = len(source_orders), len(target_orders)
    finite = [i for i, e in enumerate(source_orders) if e]
    rows = [
        [source_orders[i] if j == i else 0 for j in range(rg)] + [-v for v in beta]
        for i, beta in zip(finite, betas)
    ]
    for k, d in enumerate(target_orders):
        if d:
            rows.append([0] * rg + [d if j == k else 0 for j in range(rd)])
    return rows


def build_group_extension(c: SymmetricCocycle) -> GroupExtension:
    """The abelian extension of the cocycle's source by its target.

    beta_i is the factor's value, except on a factor of order 1, whose
    generator reduces to zero: there the e-step sum is empty and beta_i = 0.
    """
    rg = len(c.source_orders)
    rd = len(c.target_orders)
    betas = [v if e != 1 else (0,) * rd for e, v in zip(c.source_orders, c.cyclic_values) if e]
    group = FgAbelianGroup(rg + rd, _extension_group(c.source_orders, c.target_orders, betas))
    embed = IntMatrix([(0,) * rg + row for row in IntMatrix.identity(rd).data], cols=rg + rd)
    project = IntMatrix(IntMatrix.identity(rg).data + ((0,) * rg,) * rd, cols=rg)
    return GroupExtension(group=group, embed_target=embed, project_source=project)


# -- deformations --------------------------------------------------------------


@record
class DeformationSpec:
    """Input data for the deformation constructor at the integer instance.

    ``g`` lives on the finite torsion quotient l/k and is valued in the
    would-be annihilator (free addition coordinates followed by the
    coordinates of ann ∩ delta); None means the zero cocycle.  Its value
    d_i on the i-th factor enters the extension relation of that factor as
    d_i itself, since a staircase wraps once in e_i steps.  The paper's
    cocycles on the free part of A/k and on the free addition have a free
    source; extensions of a free group split, so ``SymmetricCocycle`` admits
    only the zero cocycle there, and they take no input.
    """

    base: FdzRing
    g: SymmetricCocycle | None = None


class DeformationContext:
    """Derived coordinate systems shared by the deformation machinery.

    Coordinates:
      * d-space ("annihilator"): addition free part (rank n) ++ o-part
      * k-space: delta presentation ++ addition free part
      * carrier source: the free factors of A/k (rank m) ++ its finite
        factors, which present the torsion part n_quot = l/k

    The i-th finite factor, of order e_i, lifts to the i-th row t_i of
    ``n_lift_ambient``, reduced modulo k.  Its transversal defects telescope
    over a full cycle of Z/e_i, so its base relation is e_i·g_i = k(e_i·t_i).
    ``build`` deforms the base by a cocycle given in these coordinates.
    """

    def __init__(self, base: FdzRing):
        self.base = base
        self.chain = chain = characteristic_ideals(base)
        addition = chain.addition.cyclic
        assert not any(addition.diagonal.orders), "an addition must be free"
        self.addition_basis = addition.lift
        n = self.addition_basis.rows
        o_part = chain.o_ideal.cyclic
        delta = chain.delta_pres
        # ann = A0 ⊕ o and k = delta ⊕ A0, so coordinates over these are unique
        self.d_basis = IntMatrix(self.addition_basis.data + o_part.lift.data, cols=base.rank)
        self.k_basis = IntMatrix(delta.lift.data + self.addition_basis.data, cols=base.rank)
        self.d_orders: Vec = tuple([0] * n) + o_part.diagonal.orders
        self.k_orders: Vec = delta.ring.orders + tuple([0] * n)
        self._init_carrier()

    # -- annihilator (d) coordinates --

    def ambient_to_d(self, vec: Sequence[int]) -> Vec:
        """Coordinates of an annihilator element as addition ⊕ o-part.

        Ann = A0 ⊕ O with A0 free, so the reduced coordinates are unique.
        """
        if not self.chain.ann.contains(vec):
            raise DeformationError("value must lie in the annihilator")
        coords = affine_preimage(self.d_basis, self.base.additive.relation_basis, vec)
        assert coords is not None
        return reduce_mod_orders(coords[0], self.d_orders)

    def d_to_k(self, dvec: Sequence[int]) -> Vec:
        """The k-coordinates of the annihilator element with d-coordinates ``dvec``."""
        return self.ambient_to_k(row_times_matrix(dvec, self.d_basis))

    def ambient_to_k(self, vec: Sequence[int]) -> Vec:
        """Coordinates of a k-ideal element as delta ⊕ addition.

        k = delta ⊕ A0, so the reduced coordinates are unique.
        """
        coords = affine_preimage(self.k_basis, self.base.additive.relation_basis, vec)
        if coords is None:
            raise DeformationError("value must lie in the k-ideal")
        return reduce_mod_orders(coords[0], self.k_orders)

    # -- carrier source: free factors ⊕ torsion quotient of A/k --

    def _init_carrier(self):
        # A/k is diagonal; l = sat(k), so its finite factors present l/k and
        # the lifts of its infinite ones span a free complement
        ak = self.chain.k_ideal.quotient().diagonal
        lifts = list(zip(ak.orders, ak.lift.data))
        # homomorphic section of the free part into the base ring
        self.free_section = IntMatrix([row for d, row in lifts if not d], cols=self.base.rank)
        self.n_orders: Vec = tuple(d for d, _ in lifts if d)
        torsion = [row for d, row in lifts if d]
        if not all(map(self.chain.l_ideal.contains, torsion)):
            raise DeformationError("torsion representative must lie in the l-ideal")
        # canonical coset representatives modulo the k-ideal lattice
        reps = [hermite_reduce(self.chain.k_ideal.lift_basis, row) for row in torsion]
        self.n_lift_ambient = IntMatrix(reps, cols=self.base.rank)
        self.source_orders: Vec = (0,) * self.free_section.rows + self.n_orders

    def extension_betas(self, g: SymmetricCocycle) -> list[Vec]:
        """beta_i = k(e_i·t_i) + d_to_k(d_i) for each torsion factor under ``g``."""
        return [
            reduce_mod_orders(
                [a + b for a, b in zip(self.ambient_to_k(self.base.scale(e, t)), self.d_to_k(d))],
                self.k_orders,
            )
            for e, t, d in zip(self.n_orders, self.n_lift_ambient.data, g.cyclic_values)
        ]

    def ambient_annihilator_cocycle(
        self, n_index: int, value_ambient: Sequence[int]
    ) -> SymmetricCocycle:
        """A staircase deformation cocycle on the torsion quotient.

        The value is given in ambient ring coordinates (it must lie in the
        annihilator) and is attached to the ``n_index``-th torsion factor;
        all other factors carry zero.
        """
        values = [[0] * len(self.d_orders) for _ in self.n_orders]
        values[n_index] = list(self.ambient_to_d(value_ambient))
        return SymmetricCocycle(self.n_orders, self.d_orders, cyclic_values=values)

    def build(self, g: SymmetricCocycle | None) -> DeformationResult:
        """The deformation of the base ring by the torsion cocycle ``g``
        (None: the zero cocycle): the free ring on the representatives (free
        section, torsion lifts, k basis) modulo the extension relations."""
        base = self.base
        g = g or zero_cocycle(self.n_orders, self.d_orders)
        if g.source_orders != self.n_orders or g.target_orders != self.d_orders:
            raise DeformationError("the torsion cocycle has mismatched shape")

        closing = self.extension_betas(g)
        _check_independence(self, closing)

        rs = len(self.source_orders)
        relations = _extension_group(self.source_orders, self.k_orders, closing)
        reps = (
            self.free_section.data
            + self.n_lift_ambient.data
            + tuple(base.reduce(row) for row in self.k_basis.data)
        )
        express = self.chain.delta_pres.express
        pad = (0,) * self.addition_basis.rows
        free = FdzRing(
            (0,) * len(reps), [[(0,) * rs + express(base.mul(x, y)) + pad for y in reps] for x in reps]
        )
        quotient = _ideal_quotient(free, free.additive.subgroup(relations))
        embed_rows = [
            row_times_matrix((0,) * rs + self.d_to_k(unit), quotient.project)
            for unit in IntMatrix.identity(len(self.d_orders)).data
        ]
        if not all(map(characteristic_ideals(quotient.ring).ann.contains, embed_rows)):
            raise DeformationError(
                "construction failed: the designated annihilator does not annihilate"
            )
        return DeformationResult(quotient.ring, IntMatrix(embed_rows, cols=quotient.ring.rank))


@record
class DeformationResult:
    ring: FdzRing
    annihilator_embedding: IntMatrix  # d-coordinates -> deformed ring coordinates


def build_deformation(spec: DeformationSpec) -> DeformationResult:
    """``DeformationContext.build`` on a new context of the base ring; a
    caller that translates its cocycle on a context builds from that one."""
    return DeformationContext(spec.base).build(spec.g)


def _check_independence(ctx: DeformationContext, closing: Sequence[Vec]):
    """Check a hypothesis of the construction, not a property of the result:
    torsion lifts scaled by their periods must stay independent in every
    finite quotient of the addition (schema truncated at INDEPENDENCE_BOUND).

    ``closing`` holds the k-coordinates of e_i·g_i for the torsion source
    generators; the addition coordinates come last.  Their invariant factors
    (the beta addition invariants) must be nonzero and prime to every
    d <= INDEPENDENCE_BOUND.  The zero cocycle still carries the ring's own
    transversal defects, so the check can refuse a ring's own zero-cocycle
    deformation: a refusal means the construction does not apply.
    """
    n = ctx.addition_basis.rows
    beta_rows = [list(kvec[len(kvec) - n :]) for kvec in closing]
    if not beta_rows:
        return
    invariants = smith_diagonal(beta_rows, n)
    if len([d for d in invariants if d != 0]) < len(beta_rows):
        raise DeformationError(
            "independence hypothesis of the construction fails: torsion lifts "
            "collapse in the addition"
        )
    for d in range(2, INDEPENDENCE_BOUND + 1):
        for s in invariants:
            if s and gcd(s, d) != 1:
                raise DeformationError(
                    f"independence hypothesis of the construction fails modulo {d}: "
                    f"the beta addition invariant {s} must be prime to every "
                    f"d <= {INDEPENDENCE_BOUND}, even for the zero cocycle"
                )


# -- the six-term verification -------------------------------------------------


@record
class SixTermReport:
    status: str  # "commutes" | "no" | "unknown"
    detail: str


def verify_sixterm(
    a: FdzRing, b: FdzRing, coeff_bound: int = 5, max_nodes: int = 200_000
) -> SixTermReport:
    """Search for the four compatible isomorphisms across the ideal chains.

    The maps are: o(A) -> o(B), delta(A) -> delta(B), the annihilator
    quotients, and A/k -> B/k, required to commute with the canonical
    inclusion, restriction, and projection maps.  Invariant mismatches give
    a definitive ``no``; exhausting the bounded search gives ``unknown``.
    Only phi on the annihilator quotients and psi on delta are searched,
    each re-checked as a ring isomorphism; each phi that carries k into k
    gets its own psi search, with a fresh budget of ``max_nodes``, and the
    first psi that makes the middle square commute gives ``commutes``.  The
    report holds only the status and a detail line, not the maps.

    The other two maps are induced, so nothing is left to check for them.
    k = ann + delta, so k/ann is the image of delta in A/ann.  The middle
    square and psi(delta_A) = delta_B give phi(k_A/ann) = k_B/ann, so phi
    induces a ring isomorphism A/k -> B/k.  And o = ker(delta -> A/ann), so
    the same square gives psi(o_A) = o_B: eta is psi restricted to o.
    """
    _check_bound(coeff_bound)
    chain_a = characteristic_ideals(a)
    chain_b = characteristic_ideals(b)
    for name, group in (
        ("o_ring", lambda c: c.o_ideal),
        ("delta_ring", lambda c: c.delta_pres.ring.additive),
        ("hat_ring", lambda c: c.hat.ring.additive),
        ("ak_ring", lambda c: c.k_ideal.quotient()),
    ):
        inv_a, inv_b = (group(c).invariant_factors for c in (chain_a, chain_b))
        if inv_a != inv_b:
            return SixTermReport("no", f"{name} invariants differ: {inv_a} vs {inv_b}")

    delta_to_hat_a, delta_to_hat_b = (
        c.delta_pres.lift.mul(c.hat.project) for c in (chain_a, chain_b)
    )
    k_in_hat_a, k_in_hat_b = (
        [row_times_matrix(row, c.hat.project) for row in c.k_ideal.lift_basis]
        for c in (chain_a, chain_b)
    )
    k_image_b = chain_b.hat.ring.additive.subgroup(k_in_hat_b)
    delta_b, hat_b = chain_b.delta_pres.ring, chain_b.hat.ring
    budget_hit = False
    for phi in _iso_witnesses(chain_a.hat.ring, hat_b, coeff_bound, max_nodes):
        if phi is None:
            budget_hit = True
            break
        # phi must carry the image of k(A) into that of k(B)
        if not all(k_image_b.contains(row_times_matrix(row, phi)) for row in k_in_hat_a):
            continue
        # the images under phi of the generators of delta(A), in B/ann
        restricted = [hat_b.reduce(row) for row in delta_to_hat_a.mul(phi).data]
        for psi in _iso_witnesses(chain_a.delta_pres.ring, delta_b, coeff_bound, max_nodes):
            if psi is None:
                budget_hit = True
                break
            # middle square: restriction to the annihilator quotient commutes
            if [hat_b.reduce(row) for row in psi.mul(delta_to_hat_b).data] != restricted:
                continue
            return SixTermReport("commutes", "all three squares commute")
    if budget_hit:
        return SixTermReport("unknown", "search budget exhausted")
    return SixTermReport(
        "unknown", "no compatible isomorphism found within the coefficient bound"
    )
