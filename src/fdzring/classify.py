"""Classification verdicts: tame/QFA, rigidity, super-tameness, bi-interpretability.

The spectrum side works on a scalar ring P (commutative, associative,
unital).  Idempotents are found exactly: the torsion part is finite and
enumerable; on the torsion-free quotient, two idempotents that agree mod 2
are equal, so the idempotents are among the subset sums of the atoms of the
idempotents mod 2, lifted 2-adically: those whose symmetric residues lie
within a proven coordinate bound and are exactly idempotent
(``_free_idempotents``).  Each is then re-lifted against the torsion by
finite enumeration.  Nothing is factored, and no third-party module is
imported.

The punctured-spectrum connectivity rule is deliberately isolated in
``spec0_connected_rule``: connected iff at most one indecomposable factor
is infinite (finite factors only contribute isolated closed points, which
the puncture removes).

``classify_ring`` writes one line ``field=value: tag`` per verdict from one
table.  None cites Thm 1.4, whose branch no ring reaches (see there).
"""

from __future__ import annotations

import itertools
from math import isqrt, prod

from .bilinear import BilinearMapError, induced_bilinear_map, pa_ring, pf_ring
from .intlinalg import IntMatrix, Vec, left_kernel, record, row_times_matrix, solve_congruences
from .rings import (
    ELEMENT_LIMIT,
    FdzRing,
    SubringPresentation,
    _ideal_quotient,
    characteristic_ideals,
    predicates,
    subring_presentation,
)

DEGREE_BOUND = 12

YES = "yes"
NO = "no"
UNKNOWN = "unknown"
NOT_APPLICABLE = "not_applicable"

TAG_TAME_DEFINITION = "def:tame"
TAG_REGULAR_DEFINITION = "def:regular"
TAG_MAIN1 = "thm:Main1"
TAG_MAIN2 = "thm:main2"
TAG_MAIN3 = "thm:Main3"
TAG_RIGID = "cor:1.8"
TAG_SPEC0 = "spec0-rule"
TAG_PF_UNDEFINED = "pf-undefined"
TAG_FINITE = "nies-qfa-infinite"
TAG_OPEN = "outside-criteria"

CITATION_TAGS = frozenset(
    {
        TAG_TAME_DEFINITION,
        TAG_REGULAR_DEFINITION,
        TAG_MAIN1,
        TAG_MAIN2,
        TAG_MAIN3,
        TAG_RIGID,
        TAG_SPEC0,
        TAG_PF_UNDEFINED,
        TAG_FINITE,
        TAG_OPEN,
    }
)


class FactorizationIncomplete(Exception):
    """The exact spectrum machinery gave up (a rank or size bound exceeded)."""


class ScalarRingRequired(ValueError):
    pass


def _require_scalar(p: FdzRing) -> Vec:
    if not p.is_commutative() or not p.is_associative():
        raise ScalarRingRequired("commutative associative ring required")
    unity = p.unity()
    if unity is None:
        raise ScalarRingRequired("unital ring required")
    return unity


# -- the torsion-free part ----------------------------------------------------


def _trace_form(ring: FdzRing) -> list[list[int]]:
    """The Gram matrix Tr(e_i·e_j) of a torsion-free ring."""
    dim = ring.rank
    traces = [sum(ring.tensor[k][j][j] for j in range(dim)) for k in range(dim)]
    return [
        [sum(c * t for c, t in zip(ring.tensor[i][j], traces)) for j in range(dim)]
        for i in range(dim)
    ]


def _free_idempotents(ring: FdzRing) -> list[Vec]:
    """All idempotents of a torsion-free scalar ring F, by 2-adic lifting
    (Eisenbud, GTM 150, Cor. 7.5).

    1. Idempotents e, f that agree mod 2 are equal: x = e − f has x³ = x and
       lies in 2F, so x = x^(2k+1) lies in every 2^k F.  So Idem(F) embeds
       in the Boolean ring Idem(F/2F), the kernel of the map x ↦ x² − x,
       linear mod 2 with coordinates Σ x_i(e_i² − e_i).  Refining {1} by
       each kernel vector b (atom a splits into ab and a − ab) gives its
       atoms.  One atom leaves only 0 and 1.
    2. F ∩ N, N the nilradical, is the left kernel of the trace form, and
       R = F/(F ∩ N) is reduced.  As F ∩ N is nil, idempotents pass
       uniquely between F and R, and between F/2F and R/2R.
    3. So the Gram matrix G of R is invertible.  An idempotent c of R has
       |Tr(c·e_k)| ≤ m·‖L_k‖ (m = rank R, L_k multiplication by e_k, ‖·‖
       its largest row sum), as L_c projects onto an L_k-stable subspace.
       With c = t·G⁻¹, |det G| ≥ 1 and the Hadamard bound
       H = ∏(isqrt(‖G_j‖²) + 1) on the cofactors (Cohen, GTM 138, §2.4),
       every coordinate of c is at most B = m²·H·max‖L_k‖.
    4. Newton steps x ← 3x² − 2x³ fix idempotents and square the error
       x² − x, so they lift each atom to an idempotent mod 2^M, 2^M > 2B.
       The subset sums of the lifts are all the idempotents mod 2^M; an
       integral one is a symmetric residue within B that squares to itself
       exactly in R.  Exact Newton steps lift it to F: the error lies in
       F ∩ N, of rank n, so ⌈log2(n + 1)⌉ steps make it 0.
    """
    dim = ring.rank
    if dim > DEGREE_BOUND:
        raise FactorizationIncomplete(f"free rank {dim} exceeds the bound {DEGREE_BOUND}")
    unity = ring.unity()
    equations = [{i: ring.tensor[i][i][k] - (i == k) for i in range(dim)} for k in range(dim)]
    atoms = [tuple(u % 2 for u in unity)]
    for b in solve_congruences(equations, [2] * dim, unknowns=dim)[1]:
        refined = []
        for a in atoms:
            ab = tuple(x % 2 for x in ring.mul(a, b))
            rest = tuple((x - y) % 2 for x, y in zip(a, ab))
            refined += [part for part in (ab, rest) if any(part)]
        atoms = refined
    if len(atoms) == 1:
        return sorted({ring.zero(), unity})
    nil = left_kernel(IntMatrix(_trace_form(ring)))
    reduced = _ideal_quotient(ring, ring.subgroup(nil))
    r = reduced.ring
    hadamard = prod(isqrt(sum(g * g for g in row)) + 1 for row in _trace_form(r))
    bound = r.rank**2 * hadamard * max(sum(map(abs, vec)) for row in r.tensor for vec in row)
    precision = (2 * bound).bit_length()
    modulus = 1 << precision
    sums = [r.zero()]
    for a in atoms:
        x = row_times_matrix(a, reduced.project)
        for _ in range(precision.bit_length()):  # k steps take the error into 2^(2^k)R
            sq = r.mul(x, x)
            x = tuple((3 * s - 2 * c) % modulus for s, c in zip(sq, r.mul(sq, x)))
        sums += [tuple(u + v for u, v in zip(s, x)) for s in sums]
    found = []
    for s in sums:
        c = tuple((v + modulus // 2) % modulus - modulus // 2 for v in s)
        if max(map(abs, c)) <= bound and r.mul(c, c) == c:
            y = row_times_matrix(c, reduced.lift)
            for _ in range(len(nil).bit_length()):
                sq = ring.mul(y, y)
                y = ring.sub(ring.scale(3, sq), ring.scale(2, ring.mul(sq, y)))
            found.append(y)
    return sorted(found)


# -- idempotents and spectrum -------------------------------------------------


def idempotents(p: FdzRing) -> list[Vec]:
    """The complete finite set of idempotents of a scalar ring, sorted: the
    lifts of those of P/T(P) (``_free_idempotents``) plus each torsion
    element.  A finite P has a quotient of rank 0 whose one idempotent lifts
    to 0, so every element is tried."""
    _require_scalar(p)
    return _idempotents(p)


def _idempotents(p: FdzRing) -> list[Vec]:
    """``idempotents`` on a ring already checked to be scalar."""
    # p is diagonal, so its torsion is spanned by the generators of finite order
    finite = [i for i, d in enumerate(p.orders) if d]
    if prod(p.orders[i] for i in finite) > ELEMENT_LIMIT:
        raise FactorizationIncomplete("torsion part too large to enumerate")
    torsion_elements = list(itertools.product(*(range(d) if d else (0,) for d in p.orders)))
    free = _ideal_quotient(p, p.subgroup([p.generator(i) for i in finite]))
    found = set()
    for ebar in _free_idempotents(free.ring):
        base = p.reduce(row_times_matrix(ebar, free.lift))
        for t in torsion_elements:
            cand = p.add(base, t)
            if p.mul(cand, cand) == cand:
                found.add(cand)
    return sorted(found)


@record
class SpectrumAnalysis:
    idempotents: tuple[Vec, ...]
    primitive_idempotents: tuple[Vec, ...]
    factors: tuple[FdzRing, ...]
    factor_presentations: tuple[SubringPresentation, ...]
    infinite_factor_count: int
    spec0_connected: str
    product_map: IntMatrix


def spec0_connected_rule(infinite_factor_count: int) -> str:
    """Connectivity of the punctured spectrum from the factor census."""
    return YES if infinite_factor_count <= 1 else NO


def indecomposable_factors(p: FdzRing) -> SpectrumAnalysis:
    unity = _require_scalar(p)
    idems = _idempotents(p)
    nonzero = [e for e in idems if any(e)]
    primitives = [e for e in nonzero if not any(f != e and p.mul(f, e) == f for f in nonzero)]
    # primitive idempotents are orthogonal and sum to unity
    total = p.zero()
    for i, e in enumerate(primitives):
        total = p.add(total, e)
        for f in primitives[i + 1 :]:
            assert p.mul(e, f) == p.zero(), "primitive idempotents must be orthogonal"
    assert total == unity, "primitive idempotents must sum to the unity"
    presentations = []
    for e in primitives:
        gens = [p.mul(e, p.generator(i)) for i in range(p.rank)]
        presentations.append(subring_presentation(p, p.subgroup(gens)))
    factors = tuple(pres.ring for pres in presentations)
    infinite = sum(1 for f in factors if f.order is None)
    rows = []
    for i in range(p.rank):
        row: list[int] = []
        for e, pres in zip(primitives, presentations):
            row.extend(pres.express(p.mul(p.generator(i), e)))
        rows.append(row)
    width = sum(f.rank for f in factors)
    return SpectrumAnalysis(
        idempotents=tuple(idems),
        primitive_idempotents=tuple(primitives),
        factors=factors,
        factor_presentations=tuple(presentations),
        infinite_factor_count=infinite,
        spec0_connected=spec0_connected_rule(infinite),
        product_map=IntMatrix(rows, cols=width),
    )


# -- classification -----------------------------------------------------------


@record
class ClassificationReport:
    infinite: bool
    tame: bool
    regular: bool
    qfa: str
    first_order_rigid_hint: str
    super_tame: str
    bi_interpretable: str
    justifications: tuple[str, ...]


def classify_ring(a: FdzRing, use_pa_ring: bool = False) -> ClassificationReport:
    """The six verdicts on ``a``, each with one justification line
    ``field=value: tag`` naming the definition or theorem it rests on.

    Bi-interpretability is ``yes`` by Main3 when A is super-tame, ``no`` by
    Main2 when neither ann is finite nor δ = A, and otherwise outside the
    criteria.  Thm 1.4 (not QFA implies not bi-interpretable) never applies
    on that last branch: there ann is finite or δ = A.  δ is saturated, so it
    contains the torsion T(A); a finite ann lies in T(A), so ann ⊆ δ either
    way.  So A is tame, and an infinite tame ring is QFA by Main1.
    """
    chain = characteristic_ideals(a)
    preds = predicates(a)
    infinite = a.order is None
    side = 0 not in chain.ann.invariant_factors or chain.delta.is_full()
    qfa = (YES if preds.tame else NO) if infinite else NOT_APPLICABLE
    rigid = YES if preds.regular else UNKNOWN
    spec0_tag = TAG_SPEC0
    try:
        scalar = pa_ring(a) if use_pa_ring else pf_ring(induced_bilinear_map(a))
        try:
            spec0 = indecomposable_factors(scalar.ring).spec0_connected
        except FactorizationIncomplete:
            spec0 = UNKNOWN
    except BilinearMapError:
        spec0, spec0_tag = None, TAG_PF_UNDEFINED
    super_tame = spec0 if side and spec0 in (YES, UNKNOWN) else NO
    if not infinite:
        bi, bi_tag = NOT_APPLICABLE, TAG_FINITE
    elif super_tame == YES:
        bi, bi_tag = YES, TAG_MAIN3
    elif not side:
        bi, bi_tag = NO, TAG_MAIN2
    else:
        bi, bi_tag = UNKNOWN, TAG_OPEN
    lines = (
        ("tame", YES if preds.tame else NO, TAG_TAME_DEFINITION),
        ("regular", YES if preds.regular else NO, TAG_REGULAR_DEFINITION),
        ("qfa", qfa, TAG_MAIN1 if infinite else TAG_FINITE),
        ("first_order_rigid_hint", rigid, TAG_RIGID),
        ("super_tame", super_tame, spec0_tag),
        ("bi_interpretable", bi, bi_tag),
    )
    return ClassificationReport(
        infinite=infinite, tame=preds.tame, regular=preds.regular, qfa=qfa,
        first_order_rigid_hint=rigid, super_tame=super_tame, bi_interpretable=bi,
        justifications=tuple(f"{field}={value}: {tag}" for field, value, tag in lines),
    )
