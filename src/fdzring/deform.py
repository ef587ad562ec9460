"""Symmetric 2-cocycles, abelian group extensions, and ring deformations.

A symmetric normalized 2-cocycle c on a group G with values in D encodes an
abelian extension of G by D: the carrier is G x D with

    (g1, d1) ⊞ (g2, d2) = (g1 + g2, d1 + d2 + c(g1, g2)).

On a cyclic factor of order e the canonical transversal produces the
staircase cocycle that vanishes below the wrap-around and equals a fixed
target element at or past it; its class lives in D/eD and classifies the
extension.

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

from .eqcheck import _iso_witnesses, verify_iso_witness
from .groups import FgAbelianGroup, split_complement
from .intlinalg import (
    IntMatrix,
    Vec,
    affine_preimage,
    hermite_reduce,
    hermite_rows,
    row_times_matrix,
    smith,
    solve_congruences,
)
from .rings import (
    FdzRing,
    QuotientPresentation,
    SubringPresentation,
    annihilator_addition,
    characteristic_ideals,
    quotient_ring,
    subring_presentation,
)


# the independence schema is checked modulo 2, 3, ..., INDEPENDENCE_BOUND
INDEPENDENCE_BOUND = 16


class CocycleError(ValueError):
    pass


class DeformationError(ValueError):
    pass


def _reduce_mod_orders(vec: Sequence[int], orders: Sequence[int]) -> Vec:
    return tuple(int(x) % d if d else int(x) for x, d in zip(vec, orders))


class SymmetricCocycle:
    """A symmetric normalized 2-cocycle between diagonally presented groups.

    Two representations are supported: a full value table on canonical
    representatives (finite source only), and the cyclic normal form holding
    one target element per source factor (zero on infinite factors, where
    every extension splits).
    """

    def __init__(
        self,
        source_orders: Sequence[int],
        target_orders: Sequence[int],
        table: dict[tuple[Vec, Vec], Sequence[int]] | None = None,
        cyclic_values: Sequence[Sequence[int]] | None = None,
    ):
        self.source_orders = tuple(int(d) for d in source_orders)
        self.target_orders = tuple(int(d) for d in target_orders)
        if (table is None) == (cyclic_values is None):
            raise CocycleError("exactly one representation must be given")
        self.table = None
        self.cyclic_values = None
        if cyclic_values is not None:
            vals = tuple(
                _reduce_mod_orders(v, self.target_orders) for v in cyclic_values
            )
            if len(vals) != len(self.source_orders):
                raise CocycleError("one value per source factor required")
            for e, v in zip(self.source_orders, vals):
                if e == 0 and any(v):
                    raise CocycleError(
                        "extensions of an infinite cyclic factor split; the "
                        "normal-form value must be zero"
                    )
            self.cyclic_values = vals
        else:
            if any(d == 0 for d in self.source_orders):
                raise CocycleError("table representation requires a finite source")
            assert table is not None
            self.table = {
                (
                    _reduce_mod_orders(x, self.source_orders),
                    _reduce_mod_orders(y, self.source_orders),
                ): _reduce_mod_orders(v, self.target_orders)
                for (x, y), v in table.items()
            }

    @property
    def source_group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_orders(self.source_orders)

    @property
    def target_group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_orders(self.target_orders)

    def reduce_source(self, x: Sequence[int]) -> Vec:
        return _reduce_mod_orders(x, self.source_orders)

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        xr = self.reduce_source(x)
        yr = self.reduce_source(y)
        if self.table is not None:
            value = self.table.get((xr, yr))
            if value is None:
                raise CocycleError("value table is incomplete")
            return value
        acc = [0] * len(self.target_orders)
        assert self.cyclic_values is not None
        for i, e in enumerate(self.source_orders):
            if e and xr[i] + yr[i] >= e:
                for k, v in enumerate(self.cyclic_values[i]):
                    acc[k] += v
        return _reduce_mod_orders(acc, self.target_orders)

    def source_elements(self, limit: int = 4096) -> list[Vec]:
        g = self.source_group
        return [tuple(v) for v in g.elements(limit)]


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
    is_cocycle: bool
    is_coboundary: bool
    ext_classes: tuple[Vec, ...]


def cocycle_analyze(c: SymmetricCocycle) -> CocycleAnalysis:
    """Check the cocycle identity, decide coboundary-ness, read off classes.

    The class on a factor of order e is the transversal sum reduced modulo
    e·D, realizing the identification of the extension group of a cyclic
    group with that quotient.  A finite source is checked exhaustively; the
    cyclic normal form is checked factorwise.
    """
    target = c.target_group
    ed_basis = {}

    def class_of(e: int, total: Sequence[int]) -> Vec:
        rows = [
            [e if j == i else 0 for j in range(len(c.target_orders))]
            for i in range(len(c.target_orders))
        ]
        basis = ed_basis.setdefault(
            e,
            hermite_rows(
                rows + [list(r) for r in target.relation_basis],
                len(c.target_orders),
            ),
        )
        return hermite_reduce(basis, total)

    if c.cyclic_values is not None:
        is_cocycle = True
        classes = []
        coboundary = True
        for e, d in zip(c.source_orders, c.cyclic_values):
            if e == 0:
                continue
            cls = class_of(e, d)
            classes.append(cls)
            if any(cls):
                coboundary = False
        return CocycleAnalysis(is_cocycle, coboundary, tuple(classes))

    if not c.source_group.is_finite:
        raise CocycleError("table representation requires a finite source")
    elements = c.source_elements()
    src = c.source_group
    zero = src.zero()
    is_cocycle = True
    for x in elements:
        if any(c.evaluate(zero, x)) or any(c.evaluate(x, zero)):
            is_cocycle = False
            break
        for y in elements:
            if c.evaluate(x, y) != c.evaluate(y, x):
                is_cocycle = False
                break
            for z in elements:
                lhs = target.reduce(
                    [
                        p + q
                        for p, q in zip(
                            c.evaluate(x, y), c.evaluate(src.add(x, y), z)
                        )
                    ]
                )
                rhs = target.reduce(
                    [
                        p + q
                        for p, q in zip(
                            c.evaluate(y, z), c.evaluate(x, src.add(y, z))
                        )
                    ]
                )
                if tuple(lhs) != tuple(rhs):
                    is_cocycle = False
                    break
            if not is_cocycle:
                break
        if not is_cocycle:
            break

    # coboundary: find a shift t with c(x, y) = t(x) + t(y) - t(x + y)
    nonzero = [x for x in elements if any(x)]
    index = {x: i for i, x in enumerate(nonzero)}
    tdim = len(c.target_orders)
    nunk = len(nonzero) * tdim
    eqs = []
    moduli = []
    rhs = []
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
    res = solve_congruences(eqs, moduli, rhs=rhs, unknowns=nunk)
    is_coboundary = res is not None

    # classes per cyclic factor: transversal sums along each generator
    classes = []
    for i, e in enumerate(c.source_orders):
        gen = tuple(1 if j == i else 0 for j in range(len(c.source_orders)))
        total = [0] * tdim
        point = src.zero()
        for _ in range(e):
            val = c.evaluate(gen, point)
            total = [p + q for p, q in zip(total, val)]
            point = src.add(point, gen)
        classes.append(class_of(e, total))
    return CocycleAnalysis(is_cocycle, is_coboundary, tuple(classes))


# -- group extensions ----------------------------------------------------------


def cocycle_pair_add(
    c: SymmetricCocycle, a: tuple[Vec, Vec], b: tuple[Vec, Vec]
) -> tuple[Vec, Vec]:
    """The twisted addition on source x target pairs."""
    g = c.reduce_source([x + y for x, y in zip(a[0], b[0])])
    twist = c.evaluate(a[0], b[0])
    d = _reduce_mod_orders(
        [x + y + t for x, y, t in zip(a[1], b[1], twist)], c.target_orders
    )
    return g, d


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
    if c.table is not None and not cocycle_analyze(c).is_cocycle:
        raise CocycleError("not a symmetric normalized cocycle")
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
      * carrier source: free complement of the torsion part of A/k (rank m)
        ++ torsion part n_quot (diagonal)
    """

    def __init__(self, base: FdzRing):
        self.base = base
        self.chain = characteristic_ideals(base)
        self.addition = annihilator_addition(base)
        if self.addition is None:
            raise DeformationError("the ring has no addition to deform along")
        add_pres = self.addition.presentation()
        if any(d != 0 for d in add_pres.orders):
            raise AssertionError("an addition must be free")
        self.addition_rank = len(add_pres.orders)
        self.addition_basis = add_pres.lift
        self.delta = subring_presentation(base, self.chain.delta)
        # k = delta ⊕ A0: the rows are the k-space basis in ambient coordinates
        self.k_basis = IntMatrix(self.delta.lift.data + self.addition_basis.data, cols=base.rank)
        self.o_pres = self.chain.o_ideal.presentation()
        self.d_orders: Vec = tuple([0] * self.addition_rank) + self.o_pres.orders
        self.k_orders: Vec = self.delta.ring.orders + tuple([0] * self.addition_rank)
        self.o_in_delta = IntMatrix(
            [self.delta.express(self.o_pres.lift.row(i)) for i in range(len(self.o_pres.orders))],
            cols=self.delta.ring.rank,
        )
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
        delta_part = row_times_matrix(o_part, self.o_in_delta)
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

    # -- carrier source: free complement ⊕ torsion quotient --

    def _init_carrier(self):
        base = self.base
        ak = quotient_ring(base, self.chain.k_ideal)
        self.ak = ak
        q_group = ak.ring.additive
        torsion_rows = [
            row_times_matrix(row, ak.project) for row in self.chain.l_ideal.lift_basis
        ]
        torsion_sub = q_group.subgroup(torsion_rows)
        splitting = split_complement(q_group, torsion_sub)
        assert splitting is not None, "the free part always splits off"
        free_pres = splitting.complement.presentation()
        assert all(d == 0 for d in free_pres.orders)
        self.free_rank = len(free_pres.orders)
        # homomorphic section of the free part into the base ring
        self.free_section = free_pres.lift.mul(ak.lift)
        n_pres = torsion_sub.presentation()
        self.n_orders = n_pres.orders
        self.n_lift_ambient = IntMatrix(
            [
                self._canonical_l_representative(
                    row_times_matrix(n_pres.lift.row(i), ak.lift)
                )
                for i in range(len(n_pres.orders))
            ],
            cols=base.rank,
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
    if not cocycle_analyze(g).is_cocycle:
        raise DeformationError("deformation data must be valid cocycles")

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
    """Torsion lifts scaled by their periods must stay independent in every
    finite quotient of the addition (schema truncated at INDEPENDENCE_BOUND).

    ``closing`` holds the k-coordinates of e_i·g_i for the torsion source
    generators; the addition coordinates come last.
    """
    n = ctx.addition_rank
    beta_rows = [list(kvec[len(kvec) - n :]) for kvec in closing]
    if not beta_rows:
        return
    dec = smith(IntMatrix(beta_rows, cols=n))
    invariants = [d for d in dec.d.diagonal()]
    if len([d for d in invariants if d != 0]) < len(beta_rows):
        raise DeformationError(
            "independence condition fails: torsion lifts collapse in the addition"
        )
    for d in range(2, INDEPENDENCE_BOUND + 1):
        for s in invariants:
            if s and gcd(s, d) != 1:
                raise DeformationError(
                    f"independence condition fails modulo {d}"
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
    chain_a = characteristic_ideals(a)
    chain_b = characteristic_ideals(b)
    parts_a = _sixterm_parts(a, chain_a)
    parts_b = _sixterm_parts(b, chain_b)
    for name, field in (
        ("o_ring", "o_pres"),
        ("delta_ring", "delta_pres"),
        ("hat_ring", "hat"),
        ("ak_ring", "ak"),
    ):
        inv_a = getattr(parts_a, field).ring.additive.invariant_factors
        inv_b = getattr(parts_b, field).ring.additive.invariant_factors
        if inv_a != inv_b:
            return SixTermReport(
                status="no",
                detail=f"{name} invariants differ: {inv_a} vs {inv_b}",
                annihilator_sequence_exact=False,
            )

    budget_hit = False
    for phi in _iso_witnesses(parts_a.hat.ring, parts_b.hat.ring, coeff_bound, max_nodes):
        if phi is None:
            budget_hit = True
            break
        mu = _induced_on_k_quotient(parts_a, parts_b, phi)
        if mu is None or not verify_iso_witness(parts_a.ak.ring, parts_b.ak.ring, mu):
            continue
        found, exhausted = _find_delta_iso(parts_a, parts_b, phi, coeff_bound, max_nodes)
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


@dataclass(frozen=True)
class _SixTermParts:
    o_pres: SubringPresentation
    delta_pres: SubringPresentation
    hat: QuotientPresentation
    ak: QuotientPresentation
    delta_to_hat: IntMatrix
    o_in_delta: IntMatrix
    hat_to_ak: IntMatrix
    k_in_hat: tuple[Vec, ...]


def _sixterm_parts(a: FdzRing, chain) -> _SixTermParts:
    o_pres = subring_presentation(a, chain.o_ideal)
    delta_pres = subring_presentation(a, chain.delta)
    hat = quotient_ring(a, chain.ann)
    ak = quotient_ring(a, chain.k_ideal)
    delta_to_hat = delta_pres.lift.mul(hat.project)
    o_in_delta = IntMatrix(
        [delta_pres.express(row) for row in o_pres.lift.data],
        cols=delta_pres.ring.rank,
    )
    hat_to_ak = hat.lift.mul(ak.project)
    k_in_hat = tuple(
        row_times_matrix(row, hat.project) for row in chain.k_ideal.lift_basis
    )
    return _SixTermParts(
        o_pres=o_pres,
        delta_pres=delta_pres,
        hat=hat,
        ak=ak,
        delta_to_hat=delta_to_hat,
        o_in_delta=o_in_delta,
        hat_to_ak=hat_to_ak,
        k_in_hat=k_in_hat,
    )


def _induced_on_k_quotient(parts_a, parts_b, phi: IntMatrix) -> IntMatrix | None:
    # phi must send the image of k to the image of k
    image_k_b = parts_b.hat.ring.additive.subgroup(list(parts_b.k_in_hat))
    for row in parts_a.k_in_hat:
        if not image_k_b.contains(row_times_matrix(row, phi)):
            return None
    rows = []
    for t in range(parts_a.ak.ring.rank):
        hat_coords = row_times_matrix(parts_a.ak.lift.row(t), parts_a.hat.project)
        rows.append(
            row_times_matrix(row_times_matrix(hat_coords, phi), parts_b.hat_to_ak)
        )
    return IntMatrix(rows, cols=parts_b.ak.ring.rank)


def _find_delta_iso(parts_a, parts_b, phi, coeff_bound, max_nodes):
    """A compatible pair (psi, eta) over phi, or None, and whether the psi
    search ran out of budget (so a None is not a definitive answer)."""
    o_image_b = parts_b.delta_pres.ring.additive.subgroup(list(parts_b.o_in_delta.data))
    for psi in _iso_witnesses(
        parts_a.delta_pres.ring, parts_b.delta_pres.ring, coeff_bound, max_nodes
    ):
        if psi is None:
            return None, True
        # middle square: restriction to the annihilator quotient commutes
        ok = True
        for s in range(parts_a.delta_pres.ring.rank):
            left = parts_b.hat.ring.reduce(
                row_times_matrix(psi.row(s), parts_b.delta_to_hat)
            )
            right = parts_b.hat.ring.reduce(
                row_times_matrix(
                    row_times_matrix(
                        tuple(1 if j == s else 0 for j in range(parts_a.delta_pres.ring.rank)),
                        parts_a.delta_to_hat,
                    ),
                    phi,
                )
            )
            if left != right:
                ok = False
                break
        if not ok:
            continue
        # left square: psi must carry o(A) onto o(B)
        image_rows = [
            row_times_matrix(row, psi) for row in parts_a.o_in_delta.data
        ]
        if parts_b.delta_pres.ring.additive.subgroup(image_rows) != o_image_b:
            continue
        eta_rows = []
        solved = True
        for row in image_rows:
            coords = _express_in_rows(
                row, parts_b.o_in_delta, parts_b.delta_pres.ring
            )
            if coords is None:
                solved = False
                break
            eta_rows.append(coords)
        if not solved:
            continue
        eta = IntMatrix(eta_rows, cols=parts_b.o_pres.ring.rank)
        if eta_rows and not verify_iso_witness(parts_a.o_pres.ring, parts_b.o_pres.ring, eta):
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
