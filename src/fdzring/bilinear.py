"""Bilinear maps attached to a ring and their largest scalar ring.

For a ring A the multiplication descends to a full non-degenerate bilinear
map  (A/ann) x (A/ann) -> sq.  The largest commutative associative unital
ring acting compatibly on both sides is computed exactly: endomorphism
pairs (phi on the domain, psi on the codomain) satisfying

    f(phi·x, y) = f(x, phi·y) = psi(f(x, y))

form an integer solution lattice; modulo the pairs whose image dies in the
relation lattices this quotient is the scalar ring, with composition as its
product and (id, id) as unity.  Commutativity and associativity follow from
fullness and non-degeneracy; both are asserted after construction.

The pair lattice is solved once.  The subring pa making sq -> A/ann linear
has as its pairs those pf pairs that also satisfy the linearity
conditions; these are solved over the coordinates of the pf pair basis,
not as a second pair system.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Sequence

from .groups import FgAbelianGroup, Subgroup
from .intlinalg import (
    IntMatrix,
    SparseRow,
    Vec,
    diagonal_presentation,
    hermite_coordinates,
    hermite_rows,
    record,
    row_times_matrix,
    solve_congruences,
)
from .rings import (
    ELEMENT_LIMIT,
    FdzRing,
    characteristic_ideals,
    ill_defined_product,
    pairing_kernel,
)


class BilinearMapError(ValueError):
    pass


class DegenerateMapError(BilinearMapError):
    """The map has a nonzero radical."""


class ScalarRingError(AssertionError):
    """Scalar ring axioms violated; signals a degenerate or non-full input."""


@record
class BilinearMap:
    """A bilinear map between diagonally presented groups, via its values
    on generator pairs (in codomain coordinates)."""

    domain_orders: Vec
    codomain_orders: Vec
    values: tuple[tuple[Vec, ...], ...]

    def __post_init__(self):
        m = len(self.domain_orders)
        n = len(self.codomain_orders)
        if len(self.values) != m or any(len(r) != m for r in self.values):
            raise BilinearMapError("value tensor must be square in the domain rank")
        if any(len(v) != n for r in self.values for v in r):
            raise BilinearMapError("value vectors must match the codomain rank")
        bad = ill_defined_product(self.domain_orders, self.codomain_orders, self.values)
        if bad is not None:
            raise BilinearMapError(
                f"value at ({bad[0]}, {bad[1]}) is not well defined modulo the "
                "relation lattices"
            )

    @cached_property
    def domain_group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_orders(self.domain_orders)

    @cached_property
    def codomain_group(self) -> FgAbelianGroup:
        return FgAbelianGroup.from_orders(self.codomain_orders)

    @property
    def domain_rank(self) -> int:
        return len(self.domain_orders)

    @property
    def codomain_rank(self) -> int:
        return len(self.codomain_orders)

    def reduce_codomain(self, vec: Sequence[int]) -> Vec:
        return tuple(
            int(x) % d if d else int(x) for x, d in zip(vec, self.codomain_orders)
        )

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        acc = [0] * self.codomain_rank
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = self.values[i][j]
                f = xi * yj
                for k in range(self.codomain_rank):
                    acc[k] += f * c[k]
        return self.reduce_codomain(acc)

    def radical(self) -> Subgroup:
        """Elements x with f(x, ·) = f(·, x) = 0, as a domain subgroup."""
        return pairing_kernel(
            self.values, self.codomain_orders, self.domain_group, range(self.domain_rank)
        )

    def is_nondegenerate(self) -> bool:
        return self.radical().is_zero()

    def is_full(self) -> bool:
        gens = [self.values[i][j] for i in range(self.domain_rank) for j in range(self.domain_rank)]
        return self.codomain_group.subgroup(gens).is_full()


@record
class InducedBilinearMap:
    """The multiplication map of a ring, with coordinate transport.

    ``domain_project``/``domain_lift`` move between ring coordinates and the
    annihilator quotient; ``codomain_embed`` rows are ambient coordinates of
    the square's generators and ``codomain_express`` inverts it on the
    square.
    """

    map: BilinearMap
    domain_project: IntMatrix
    domain_lift: IntMatrix
    codomain_embed: IntMatrix
    codomain_express: Callable[[Sequence[int]], Vec]


def induced_bilinear_map(a: FdzRing) -> InducedBilinearMap:
    chain = characteristic_ideals(a)
    hat, square = chain.hat, chain.square_pres
    m = hat.ring.rank
    values = tuple(
        tuple(
            square.express(a.mul(hat.lift.row(i), hat.lift.row(j)))
            for j in range(m)
        )
        for i in range(m)
    )
    bmap = BilinearMap(
        domain_orders=hat.ring.orders,
        codomain_orders=square.ring.orders,
        values=values,
    )
    return InducedBilinearMap(
        map=bmap,
        domain_project=hat.project,
        domain_lift=hat.lift,
        codomain_embed=square.lift,
        codomain_express=square.express,
    )


# -- width and complete systems ----------------------------------------------


@record
class WidthResult:
    exact: int | None
    upper_bound: int


def _reduced_domain_elements(f: BilinearMap, modulus: int) -> list[Vec]:
    ranges = []
    total = 1
    for d in f.domain_orders:
        span = d if d else modulus
        total *= max(span, 1)
        ranges.append(range(span))
    if total > ELEMENT_LIMIT:
        raise BilinearMapError("domain too large for value enumeration")
    return [tuple(v) for v in itertools.product(*ranges)]


def width(f: BilinearMap) -> WidthResult:
    upper = f.domain_rank
    cod = f.codomain_group
    if cod.is_trivial:
        return WidthResult(exact=0, upper_bound=upper)
    if not cod.is_finite:
        if upper == 1 and f.is_full():
            # fullness bounds the width by the generator count, and a
            # nontrivial codomain forces at least one product
            return WidthResult(exact=1, upper_bound=upper)
        return WidthResult(exact=None, upper_bound=upper)
    exponent = cod.exponent()
    assert exponent is not None
    domain = _reduced_domain_elements(f, exponent)
    products = {f.evaluate(x, y) for x in domain for y in domain}
    carrier = {f.reduce_codomain(v) for v in cod.elements()}
    reach = {f.reduce_codomain(cod.zero())}
    steps = 0
    while reach != carrier:
        bigger = {f.reduce_codomain(tuple(a + b for a, b in zip(u, p)))
                  for u in reach for p in products}
        steps += 1
        if bigger == reach:
            return WidthResult(exact=None, upper_bound=upper)
        reach = bigger
    return WidthResult(exact=steps, upper_bound=upper)


@record
class CompleteSystem:
    witness: tuple[Vec, ...]
    size_bound: int


def complete_system(f: BilinearMap) -> CompleteSystem:
    """The smallest generator subset pairing trivially only with zero."""
    if not f.is_nondegenerate():
        raise DegenerateMapError("map has a nonzero radical")
    for size in range(f.domain_rank + 1):
        for combo in itertools.combinations(range(f.domain_rank), size):
            kernel = pairing_kernel(f.values, f.codomain_orders, f.domain_group, combo)
            if kernel.is_zero():
                witness = tuple(
                    tuple(1 if i == c else 0 for i in range(f.domain_rank))
                    for c in combo
                )
                return CompleteSystem(witness=witness, size_bound=size)
    raise AssertionError("unreachable: the full generator set is complete")


# -- the largest scalar ring --------------------------------------------------


@record
class ScalarRingAction:
    """A scalar ring with its compatible actions on both sides of a map.

    ``action_on_domain[g]`` and ``action_on_codomain[g]`` are the matrices of
    the g-th ring generator; ``unity`` holds the coordinates of (id, id).
    ``pair_basis`` rows span the full solution lattice of endomorphism pairs
    (domain matrix flattened, then codomain matrix).  When this ring was
    carved out of a larger one, ``parent`` is that ring's action and the
    rows of ``in_parent`` are this ring's generators in its coordinates.
    """

    ring: FdzRing
    action_on_domain: tuple[IntMatrix, ...]
    action_on_codomain: tuple[IntMatrix, ...]
    unity: Vec
    bilinear: BilinearMap
    pair_basis: IntMatrix
    express_pair: Callable[[IntMatrix, IntMatrix], Vec]
    in_parent: IntMatrix | None = None
    parent: ScalarRingAction | None = None

    def pair_of(self, coords: Sequence[int]) -> tuple[IntMatrix, IntMatrix]:
        pairs = zip(self.action_on_domain, self.action_on_codomain)
        gens = IntMatrix([p.entries + q.entries for p, q in pairs], cols=self.pair_basis.cols)
        return _unpack_pair(row_times_matrix(coords, gens), self.bilinear)


def _unpack_pair(z: Sequence[int], f: BilinearMap) -> tuple[IntMatrix, IntMatrix]:
    """The pair (phi, psi) of a flattened pair vector."""
    m, n = f.domain_rank, f.codomain_rank
    phi = IntMatrix([[z[i * m + j] for j in range(m)] for i in range(m)], cols=m)
    psi = IntMatrix([[z[m * m + i * n + j] for j in range(n)] for i in range(n)], cols=n)
    return phi, psi


def _pair_conditions(f: BilinearMap) -> tuple[list[SparseRow], list[int]]:
    """Congruences in the flattened pair (phi, psi) as sparse rows: the order
    rows d_i·phi_ik and d_i·psi_ik, then for each generator pair (i, j) and
    codomain coordinate k the rows of f(phi·e_i, e_j) = psi(f(e_i, e_j)) and
    f(e_i, phi·e_j) = psi(f(e_i, e_j))."""
    m, n = f.domain_rank, f.codomain_rank
    dom, cod, values = f.domain_orders, f.codomain_orders, f.values
    eqs: list[SparseRow] = []
    moduli: list[int] = []
    for i in range(m):
        if dom[i]:
            eqs += ({i * m + k: dom[i]} for k in range(m))
            moduli += dom
    for i in range(n):
        if cod[i]:
            eqs += ({m * m + i * n + k: cod[i]} for k in range(n))
            moduli += cod
    # the nonzero f(e_t, e_j)_k by (j, k) and f(e_i, e_t)_k by (i, k), over t
    down = [[[(t, values[t][j][k]) for t in range(m) if values[t][j][k]] for k in range(n)]
            for j in range(m)]
    across = [[[(t, values[i][t][k]) for t in range(m) if values[i][t][k]] for k in range(n)]
              for i in range(m)]
    for i in range(m):
        for j in range(m):
            base = [(s, x) for s, x in enumerate(values[i][j]) if x]
            for k in range(n):
                psi = {m * m + s * n + k: -x for s, x in base}
                eqs.append({i * m + t: x for t, x in down[j][k]} | psi)
                eqs.append({j * m + t: x for t, x in across[i][k]} | psi)
                moduli += (cod[k], cod[k])
    return eqs, moduli


def _degenerate_pair_rows(f: BilinearMap) -> list[Vec]:
    m, n = f.domain_rank, f.codomain_rank
    nunk = m * m + n * n
    rows = []
    for i in range(m):
        for k in range(m):
            if f.domain_orders[k]:
                row = [0] * nunk
                row[i * m + k] = f.domain_orders[k]
                rows.append(tuple(row))
    for i in range(n):
        for k in range(n):
            if f.codomain_orders[k]:
                row = [0] * nunk
                row[m * m + i * n + k] = f.codomain_orders[k]
                rows.append(tuple(row))
    return rows


def _pair_lattice(f: BilinearMap) -> tuple[Vec, ...]:
    """Hermite basis of all endomorphism pairs compatible with f.

    Refuses maps with a trivial side, and maps that are not full or are
    degenerate, since no scalar ring is defined for them.
    """
    if f.domain_group.is_trivial or f.codomain_group.is_trivial:
        raise BilinearMapError(
            "largest scalar ring undefined: quotient or square is trivial"
        )
    if not f.is_full():
        raise ScalarRingError("scalar ring axioms violated: map is not full")
    if not f.is_nondegenerate():
        raise ScalarRingError("scalar ring axioms violated: map is degenerate")
    eqs, moduli = _pair_conditions(f)
    m, n = f.domain_rank, f.codomain_rank
    res = solve_congruences(eqs, moduli, unknowns=m * m + n * n)
    assert res is not None
    return res[1]


def _build_action(f: BilinearMap, sol_basis: Sequence[Vec]) -> ScalarRingAction:
    """The scalar ring on a lattice of compatible pairs, given by its
    Hermite basis, modulo the pairs that vanish on both sides."""
    m, n = f.domain_rank, f.codomain_rank
    smat = IntMatrix(sol_basis, cols=m * m + n * n)
    relations = []
    for row in _degenerate_pair_rows(f):
        coords = hermite_coordinates(sol_basis, row)
        if coords is None:
            raise ScalarRingError(
                "scalar ring axioms violated: degenerate pairs escape the solution lattice"
            )
        relations.append(coords)
    pres = diagonal_presentation(relations, len(sol_basis))

    def express_z(z: Sequence[int]) -> Vec:
        coords = hermite_coordinates(sol_basis, z)
        if coords is None:
            raise ScalarRingError(
                "scalar ring axioms violated: composite pair escapes the lattice"
            )
        return coords

    basis_pairs = [_unpack_pair(row_times_matrix(row, smat), f) for row in pres.lift.data]

    def express_pair(phi: IntMatrix, psi: IntMatrix) -> Vec:
        return pres.coordinates(express_z(phi.entries + psi.entries))

    tensor = [
        [express_pair(pa.mul(pb), sa.mul(sb)) for pb, sb in basis_pairs]
        for pa, sa in basis_pairs
    ]
    ring = FdzRing(pres.orders, tensor)
    unity = express_pair(IntMatrix.identity(m), IntMatrix.identity(n))
    if not ring.is_commutative() or not ring.is_associative():
        raise ScalarRingError("scalar ring axioms violated: composition is not scalar")
    if ring.unity() != unity:
        raise ScalarRingError("scalar ring axioms violated: (id, id) is not a unity")
    return ScalarRingAction(
        ring=ring,
        action_on_domain=tuple(p for p, _ in basis_pairs),
        action_on_codomain=tuple(q for _, q in basis_pairs),
        unity=unity,
        bilinear=f,
        pair_basis=smat,
        express_pair=express_pair,
    )


def pf_ring(f: BilinearMap) -> ScalarRingAction:
    """The largest scalar ring keeping f bilinear, with both actions."""
    return _build_action(f, _pair_lattice(f))


def pa_ring(a: FdzRing) -> ScalarRingAction:
    """The subring of the largest scalar ring making sq -> A/ann linear.

    Its pairs are the pf pairs z = c·B (B the pf pair basis) that also
    satisfy the linearity rows r·z ≡ 0, so the rows are solved over the
    coordinates c as r·B·c ≡ 0.
    """
    induced = induced_bilinear_map(a)
    f = induced.map
    basis = _pair_lattice(f)
    parent = _build_action(f, basis)
    m, n = f.domain_rank, f.codomain_rank
    pi = [
        row_times_matrix(induced.codomain_embed.row(k), induced.domain_project)
        for k in range(n)
    ]
    eqs: list[SparseRow] = []
    moduli: list[int] = []
    for k in range(n):
        for c in range(m):
            row = {m * m + k * n + s: pi[s][c] for s in range(n) if pi[s][c]}
            row |= {t * m + c: -pi[k][t] for t in range(m) if pi[k][t]}
            eqs.append(
                {b: v for b, z in enumerate(basis) if (v := sum(x * z[j] for j, x in row.items()))}
            )
            moduli.append(f.domain_orders[c])
    res = solve_congruences(eqs, moduli, unknowns=len(basis))
    assert res is not None
    sub_basis = hermite_rows(
        (row_times_matrix(coords, parent.pair_basis) for coords in res[1]), m * m + n * n
    )
    action = _build_action(f, sub_basis)
    in_parent = IntMatrix(
        [
            parent.express_pair(phi, psi)
            for phi, psi in zip(action.action_on_domain, action.action_on_codomain)
        ],
        cols=parent.ring.rank,
    )
    kept = {name: getattr(action, name) for name in action.__match_args__}
    return ScalarRingAction(**(kept | {"in_parent": in_parent, "parent": parent}))
