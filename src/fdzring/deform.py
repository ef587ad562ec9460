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

The deformation constructor rebuilds a ring from its characteristic-ideal
skeleton at the integer instantiation: the carrier is (free part ⊕ torsion
part of A/k) x (delta ⊕ addition), addition is twisted by the base
extension cocycle transported from the ring plus the user-supplied
deformation cocycles (valued in the would-be annihilator), and the product
of two carrier elements is the base-ring product of their canonical
representatives, which lands in delta and is annihilator-transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from .eqcheck import _check_bound, _iso_witnesses, verify_iso_witness
from .groups import FgAbelianGroup
from .intlinalg import (
    IntMatrix, Vec, affine_preimage, hermite_reduce, row_times_matrix, smith_diagonal,
)
from .rings import FdzRing, IdealChain, characteristic_ideals


# the independence schema is checked modulo 2, 3, ..., INDEPENDENCE_BOUND
INDEPENDENCE_BOUND = 16


class CocycleError(ValueError):
    pass


class DeformationError(ValueError):
    pass


def _reduce_mod_orders(vec: Sequence[int], orders: Sequence[int]) -> Vec:
    return tuple(int(x) % d if d else int(x) for x, d in zip(vec, orders))


class SymmetricCocycle:
    """A symmetric normalized 2-cocycle between diagonally presented groups,
    in cyclic normal form.

    It holds one target element per source factor: the value of the
    staircase cocycle on that factor (see ``cyclic_cocycle``), zero on
    infinite factors, where every extension splits.  Its value at (x, y) is
    the sum of the values of the factors on which x + y wraps past the
    order.  Sums of staircases are cocycles, so no identity check is needed.
    """

    def __init__(
        self,
        source_orders: Sequence[int],
        target_orders: Sequence[int],
        cyclic_values: Sequence[Sequence[int]],
    ):
        self.source_orders = tuple(int(d) for d in source_orders)
        self.target_orders = tuple(int(d) for d in target_orders)
        vals = tuple(_reduce_mod_orders(v, self.target_orders) for v in cyclic_values)
        if len(vals) != len(self.source_orders):
            raise CocycleError("one value per source factor required")
        for e, v in zip(self.source_orders, vals):
            if e == 0 and any(v):
                raise CocycleError(
                    "extensions of an infinite cyclic factor split; the "
                    "normal-form value must be zero"
                )
        self.cyclic_values = vals

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        xr = _reduce_mod_orders(x, self.source_orders)
        yr = _reduce_mod_orders(y, self.source_orders)
        acc = [0] * len(self.target_orders)
        for i, e in enumerate(self.source_orders):
            if e and xr[i] + yr[i] >= e:
                for k, v in enumerate(self.cyclic_values[i]):
                    acc[k] += v
        return _reduce_mod_orders(acc, self.target_orders)


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GroupExtension:
    """The extension group presented on source and target generators.

    Ambient coordinates are (source generators, target generators);
    ``embed_target`` includes the kernel and ``project_source`` is the
    canonical epimorphism onto the source.
    """

    group: FgAbelianGroup
    embed_target: IntMatrix
    project_source: IntMatrix
    cocycle: SymmetricCocycle


def _extension_group(
    source_orders: Vec,
    target_orders: Vec,
    twist: Callable[[Sequence[int], Sequence[int]], Vec],
) -> tuple[FgAbelianGroup, list[Vec]]:
    """The extension of the source by the target under the addition twist.

    Adding the i-th source generator e_i times to zero closes its source
    coordinates and leaves a target value beta_i, so e_i·g_i = beta_i is a
    relation.  Returns the group on (source, target) generators and the
    beta_i of the finite source factors, in order.
    """
    rg, rd = len(source_orders), len(target_orders)
    rows: list[list[int]] = []
    closing: list[Vec] = []
    for i, e in enumerate(source_orders):
        if e == 0:
            continue
        gen = _reduce_mod_orders([1 if j == i else 0 for j in range(rg)], source_orders)
        point, beta = tuple([0] * rg), tuple([0] * rd)
        for _ in range(e):
            shift = twist(point, gen)
            point = _reduce_mod_orders([x + y for x, y in zip(point, gen)], source_orders)
            beta = _reduce_mod_orders([x + t for x, t in zip(beta, shift)], target_orders)
        assert not any(point), "source relation must close"
        closing.append(beta)
        rows.append([e if j == i else 0 for j in range(rg)] + [-v for v in beta])
    for k, d in enumerate(target_orders):
        if d:
            rows.append([0] * rg + [d if j == k else 0 for j in range(rd)])
    return FgAbelianGroup(rg + rd, rows), closing


def build_group_extension(c: SymmetricCocycle) -> GroupExtension:
    """The abelian extension of the cocycle's source by its target."""
    rg = len(c.source_orders)
    rd = len(c.target_orders)
    group, _ = _extension_group(c.source_orders, c.target_orders, c.evaluate)
    embed = IntMatrix(
        [[0] * rg + [1 if j == k else 0 for j in range(rd)] for k in range(rd)],
        cols=rg + rd,
    )
    project = IntMatrix(
        [
            [1 if j == i else 0 for j in range(rg)] if i < rg else [0] * rg
            for i in range(rg + rd)
        ],
        cols=rg,
    )
    return GroupExtension(
        group=group, embed_target=embed, project_source=project, cocycle=c
    )


# -- deformations --------------------------------------------------------------


@dataclass(frozen=True)
class DeformationSpec:
    """Input data for the deformation constructor at the integer instance.

    ``g`` lives on the finite torsion quotient l/k and is valued in the
    would-be annihilator (free addition coordinates followed by the
    coordinates of ann ∩ delta); None means the zero cocycle.  The paper's
    cocycles on the free part of A/k and on the free addition have a free
    source; extensions of a free group split, so ``SymmetricCocycle`` admits
    only the zero cocycle there, and they take no input.
    """

    base: FdzRing
    addition_rank: int | None = None
    g: SymmetricCocycle | None = None


class DeformationContext:
    """Derived coordinate systems shared by the deformation machinery.

    Coordinates:
      * d-space ("annihilator"): addition free part (rank n) ++ o-part
      * k-space: delta presentation ++ addition free part
      * carrier source: the free factors of A/k (rank m) ++ its finite
        factors, which present the torsion part n_quot = l/k
    """

    def __init__(self, base: FdzRing):
        self.base = base
        self.chain = chain = characteristic_ideals(base)
        add_pres = chain.addition_pres
        assert not any(add_pres.ring.orders), "an addition must be free"
        self.addition_rank = add_pres.ring.rank
        self.addition_basis = add_pres.lift
        self.delta = chain.delta_pres
        self.o_pres = chain.o_pres
        # k = delta ⊕ A0: the rows are the k-space basis in ambient coordinates
        self.k_basis = IntMatrix(self.delta.lift.data + self.addition_basis.data, cols=base.rank)
        self.d_orders: Vec = tuple([0] * self.addition_rank) + self.o_pres.ring.orders
        self.k_orders: Vec = self.delta.ring.orders + tuple([0] * self.addition_rank)
        self._init_carrier()

    # -- annihilator (d) coordinates --

    def ambient_to_d(self, vec: Sequence[int]) -> Vec:
        """Coordinates of an annihilator element as addition ⊕ o-part.

        Ann = A0 ⊕ O with A0 free, so the reduced coordinates are unique.
        """
        if not self.chain.ann.contains(vec):
            raise DeformationError("value must lie in the annihilator")
        rows = IntMatrix(self.addition_basis.data + self.o_pres.lift.data, cols=self.base.rank)
        coords = _express_in_rows(vec, rows, self.base)
        assert coords is not None
        return _reduce_mod_orders(coords, self.d_orders)

    def d_to_k(self, dvec: Sequence[int]) -> Vec:
        n = self.addition_rank
        o_part = dvec[n:]
        delta_part = row_times_matrix(o_part, self.chain.o_in_delta)
        return _reduce_mod_orders(
            tuple(delta_part) + tuple(dvec[:n]), self.k_orders
        )

    def ambient_to_k(self, vec: Sequence[int]) -> Vec:
        """Coordinates of a k-ideal element as delta ⊕ addition.

        k = delta ⊕ A0, so the reduced coordinates are unique.
        """
        coords = _express_in_rows(vec, self.k_basis, self.base)
        if coords is None:
            raise DeformationError("value must lie in the k-ideal")
        return _reduce_mod_orders(coords, self.k_orders)

    def k_to_ambient(self, kvec: Sequence[int]) -> Vec:
        return self.base.reduce(row_times_matrix(kvec, self.k_basis))

    # -- carrier source: free factors ⊕ torsion quotient of A/k --

    def _init_carrier(self):
        # A/k is diagonal; l = sat(k), so its finite factors present l/k and
        # the lifts of its infinite ones span a free complement
        ak = self.chain.ak
        lifts = list(zip(ak.ring.orders, ak.lift.data))
        # homomorphic section of the free part into the base ring
        self.free_section = IntMatrix([row for d, row in lifts if not d], cols=self.base.rank)
        self.free_rank = self.free_section.rows
        self.n_orders: Vec = tuple(d for d, _ in lifts if d)
        self.n_lift_ambient = IntMatrix(
            [self._canonical_l_representative(row) for d, row in lifts if d],
            cols=self.base.rank,
        )
        self.source_orders: Vec = tuple([0] * self.free_rank) + self.n_orders

    def _canonical_l_representative(self, vec: Sequence[int]) -> Vec:
        # canonical coset representative modulo the k-ideal lattice
        if not self.chain.l_ideal.contains(vec):
            raise DeformationError("torsion representative must lie in the l-ideal")
        return hermite_reduce(self.chain.k_ideal.lift_basis, vec)

    def torsion_transversal(self, ncoords: Sequence[int]) -> Vec:
        """The canonical representative in the ring of a torsion-quotient
        element."""
        coords = _reduce_mod_orders(ncoords, self.n_orders)
        acc = row_times_matrix(coords, self.n_lift_ambient)
        return self._canonical_l_representative(self.base.reduce(acc))

    def base_extension_cocycle(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        """The transversal-defect cocycle of l over k, in k-coordinates."""
        xr = _reduce_mod_orders(x, self.n_orders)
        yr = _reduce_mod_orders(y, self.n_orders)
        s = [a + b for a, b in zip(xr, yr)]
        defect = self.base.sub(
            self.base.add(self.torsion_transversal(xr), self.torsion_transversal(yr)),
            self.torsion_transversal(s),
        )
        return self.ambient_to_k(defect)

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


@dataclass(frozen=True)
class DeformationResult:
    ring: FdzRing
    context: DeformationContext
    annihilator_embedding: IntMatrix  # d-coordinates -> deformed ring coordinates


def build_deformation(spec: DeformationSpec) -> DeformationResult:
    ctx = DeformationContext(spec.base)
    n = ctx.addition_rank
    if spec.addition_rank is not None and spec.addition_rank != n:
        raise DeformationError(
            f"addition rank mismatch: the base has rank {n}"
        )
    m = ctx.free_rank

    g = spec.g or zero_cocycle(ctx.n_orders, ctx.d_orders)
    if g.source_orders != ctx.n_orders or g.target_orders != ctx.d_orders:
        raise DeformationError("the torsion cocycle has mismatched shape")

    def carrier_twist(x: Sequence[int], y: Sequence[int]) -> Vec:
        # the free part of the source carries no twist
        xn, yn = x[m:], y[m:]
        shift = ctx.d_to_k(g.evaluate(xn, yn))
        acc = [a + b for a, b in zip(ctx.base_extension_cocycle(xn, yn), shift)]
        return _reduce_mod_orders(acc, ctx.k_orders)

    group, closing = _extension_group(ctx.source_orders, ctx.k_orders, carrier_twist)
    rs = len(ctx.source_orders)
    rk = len(ctx.k_orders)
    rank_e = rs + rk

    _check_independence(ctx, closing)

    # ambient representative of each extension generator
    reps = list(ctx.free_section.data)
    for unit in IntMatrix.identity(len(ctx.n_orders)).data:
        reps.append(ctx.torsion_transversal(unit))
    for row in ctx.k_basis.data:
        reps.append(ctx.base.reduce(row))

    def product_coords(u: int, v: int) -> Vec:
        prod = ctx.base.mul(reps[u], reps[v])
        delta_coords = ctx.delta.express(prod)
        kvec = tuple(delta_coords) + tuple([0] * n)
        return tuple([0] * rs) + kvec

    tensor = [[product_coords(u, v) for v in range(rank_e)] for u in range(rank_e)]

    pres = group.diagonal

    def transport(u_coords: Sequence[int], v_coords: Sequence[int]) -> Vec:
        acc = [0] * rank_e
        for i, ci in enumerate(u_coords):
            if not ci:
                continue
            for j, cj in enumerate(v_coords):
                if not cj:
                    continue
                contrib = tensor[i][j]
                for t in range(rank_e):
                    acc[t] += ci * cj * contrib[t]
        return row_times_matrix(acc, pres.project)

    new_tensor = [[transport(x, y) for y in pres.lift.data] for x in pres.lift.data]
    ring = FdzRing(pres.orders, new_tensor)
    d_embed_rows = []
    for i in range(len(ctx.d_orders)):
        dvec = tuple(1 if j == i else 0 for j in range(len(ctx.d_orders)))
        evec = tuple([0] * rs) + ctx.d_to_k(dvec)
        d_embed_rows.append(row_times_matrix(evec, pres.project))
    result = DeformationResult(
        ring=ring,
        context=ctx,
        annihilator_embedding=IntMatrix(d_embed_rows, cols=len(pres.orders)),
    )
    chain = characteristic_ideals(ring)
    for row in result.annihilator_embedding.data:
        if not chain.ann.contains(row):
            raise DeformationError(
                "construction failed: the designated annihilator does not annihilate"
            )
    return result


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
    n = ctx.addition_rank
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


@dataclass(frozen=True)
class SixTermReport:
    status: str  # "commutes" | "no" | "unknown"
    detail: str
    annihilator_sequence_exact: bool | None = None


def verify_sixterm(
    a: FdzRing, b: FdzRing, coeff_bound: int = 5, max_nodes: int = 200_000
) -> SixTermReport:
    """Search for the four compatible isomorphisms across the ideal chains.

    The maps are: o(A) -> o(B), delta(A) -> delta(B), the annihilator
    quotients, and A/k -> B/k, required to commute with the canonical
    inclusion, restriction, and projection maps.  Invariant mismatches give
    a definitive ``no``; exhausting the bounded search gives ``unknown``.
    """
    _check_bound(coeff_bound)
    chain_a = characteristic_ideals(a)
    chain_b = characteristic_ideals(b)
    for name, field in (
        ("o_ring", "o_pres"),
        ("delta_ring", "delta_pres"),
        ("hat_ring", "hat"),
        ("ak_ring", "ak"),
    ):
        inv_a = getattr(chain_a, field).ring.additive.invariant_factors
        inv_b = getattr(chain_b, field).ring.additive.invariant_factors
        if inv_a != inv_b:
            return SixTermReport(
                status="no",
                detail=f"{name} invariants differ: {inv_a} vs {inv_b}",
                annihilator_sequence_exact=False,
            )

    delta_to_hat_a, delta_to_hat_b = (
        c.delta_pres.lift.mul(c.hat.project) for c in (chain_a, chain_b)
    )
    k_in_hat_a, k_in_hat_b = (
        [row_times_matrix(row, c.hat.project) for row in c.k_ideal.lift_basis]
        for c in (chain_a, chain_b)
    )
    k_image_b = chain_b.hat.ring.additive.subgroup(k_in_hat_b)
    # A/k -> A/ann and B/ann -> B/k on coordinates
    ak_to_hat_a = chain_a.ak.lift.mul(chain_a.hat.project)
    hat_to_ak_b = chain_b.hat.lift.mul(chain_b.ak.project)

    budget_hit = False
    for phi in _iso_witnesses(chain_a.hat.ring, chain_b.hat.ring, coeff_bound, max_nodes):
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
        found, exhausted = _find_delta_iso(
            chain_a, chain_b, delta_to_hat_a.mul(phi), delta_to_hat_b, coeff_bound, max_nodes
        )
        budget_hit = budget_hit or exhausted
        if found is None:
            continue
        return SixTermReport(
            status="commutes",
            detail="all three squares commute",
            annihilator_sequence_exact=True,
        )
    if budget_hit:
        return SixTermReport(status="unknown", detail="search budget exhausted")
    return SixTermReport(
        status="unknown",
        detail="no compatible isomorphism found within the coefficient bound",
    )


def _find_delta_iso(
    chain_a: IdealChain,
    chain_b: IdealChain,
    phi_on_delta: IntMatrix,
    delta_to_hat_b: IntMatrix,
    coeff_bound: int,
    max_nodes: int,
):
    """A compatible pair (psi, eta) over phi, or None, and whether the psi
    search ran out of budget (so a None is not a definitive answer).

    ``phi_on_delta`` rows are the images under phi of the generators of
    delta(A), in B/ann coordinates.
    """
    delta_b, hat_b = chain_b.delta_pres, chain_b.hat.ring
    o_image_b = delta_b.ring.additive.subgroup(chain_b.o_in_delta.data)
    restricted = [hat_b.reduce(row) for row in phi_on_delta.data]
    for psi in _iso_witnesses(chain_a.delta_pres.ring, delta_b.ring, coeff_bound, max_nodes):
        if psi is None:
            return None, True
        # middle square: restriction to the annihilator quotient commutes
        if [hat_b.reduce(row) for row in psi.mul(delta_to_hat_b).data] != restricted:
            continue
        # left square: psi must carry o(A) onto o(B)
        image_rows = [row_times_matrix(row, psi) for row in chain_a.o_in_delta.data]
        if delta_b.ring.additive.subgroup(image_rows) != o_image_b:
            continue
        eta = IntMatrix(
            [chain_b.o_pres.express(row_times_matrix(row, delta_b.lift)) for row in image_rows],
            cols=chain_b.o_pres.ring.rank,
        )
        if image_rows and not verify_iso_witness(chain_a.o_pres.ring, chain_b.o_pres.ring, eta):
            continue
        return (psi, eta), False
    return None, False


def _express_in_rows(vec: Sequence[int], rows: IntMatrix, ambient_ring: FdzRing) -> Vec | None:
    """Coefficients c with c·rows = vec in the ring's additive group, or None.

    The coefficients are the canonical solution of ``affine_preimage``
    against the ring's relation lattice: reduced modulo the combinations of
    ``rows`` that vanish in the ring, so they depend only on ``vec``'s class
    and on the row span.  Callers whose rows are a diagonal presentation
    also reduce them modulo its orders.
    """
    res = affine_preimage(rows, ambient_ring.additive.relation_basis, vec)
    return None if res is None else res[0]
