"""Classification verdicts: tame/QFA, rigidity, super-tameness, bi-interpretability.

The spectrum side works on a scalar ring P (commutative, associative,
unital).  Idempotents are found exactly: the torsion part is finite and
enumerable; on the torsion-free quotient, the rank of the trace form gives
the dimension of the semisimple part, an element whose characteristic
polynomial has a squarefree part of that degree is chosen, and the CRT
idempotents of its factored characteristic polynomial, evaluated at it,
are the primitive idempotents of the rational algebra.  Only sums of them
with integral coordinates survive, and each is re-lifted against the
torsion by finite enumeration.  When the semisimple part has dimension 1
the algebra is local and its idempotents are 0 and 1, so sympy, which
factors the polynomial, is imported only for a semisimple part of
dimension 2 or more.

The punctured-spectrum connectivity rule is deliberately isolated in
``spec0_connected_rule``: connected iff at most one indecomposable factor
is infinite (finite factors only contribute isolated closed points, which
the puncture removes).
"""

from __future__ import annotations

import itertools
from math import prod

from .bilinear import BilinearMapError, induced_bilinear_map, pa_ring, pf_ring
from .intlinalg import IntMatrix, Vec, hermite_rows, record, row_times_matrix
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
TAG_BIINT_QFA = "thm:1.4"
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
        TAG_BIINT_QFA,
        TAG_SPEC0,
        TAG_PF_UNDEFINED,
        TAG_FINITE,
        TAG_OPEN,
    }
)


class FactorizationIncomplete(Exception):
    """The exact spectrum machinery gave up (degree bound exceeded)."""


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


def _free_idempotents(ring: FdzRing) -> list[Vec]:
    """All idempotents of a torsion-free scalar ring, via its Q-algebra A.

    The radical N of the trace form is the nilradical of A.  An element a
    generates A/N exactly when the squarefree part of its characteristic
    polynomial chi has degree dim A/N; then the CRT idempotents of
    Q[x]/(chi) = prod Q[x]/(f_i^m_i), evaluated at a, are the primitive
    idempotents of A.  When dim A/N is 1, A/N is Q and A is local: its
    only idempotents are 0 and 1, and nothing needs factoring.
    """
    dim = ring.rank
    if dim == 0:
        return [()]
    if dim > DEGREE_BOUND:
        raise FactorizationIncomplete(
            f"free rank {dim} exceeds the factorization degree bound {DEGREE_BOUND}"
        )
    unity = ring.unity()
    assert unity is not None
    # the trace form Tr(e_i·e_j), from the traces of multiplication by each e_k
    traces = [sum(ring.tensor[k][j][j] for j in range(dim)) for k in range(dim)]
    gram = [
        [sum(c * t for c, t in zip(ring.tensor[i][j], traces)) for j in range(dim)]
        for i in range(dim)
    ]
    sdim = len(hermite_rows(gram, dim))
    if sdim == 1:
        return sorted([ring.zero(), unity])
    from fractions import Fraction

    from sympy import QQ, ZZ, Poly, Symbol
    from sympy.polys.matrices import DomainMatrix

    x = Symbol("x")
    candidates = [ring.generator(i) for i in range(dim)]
    candidates += [tuple(t**i for i in range(dim)) for t in range(1, 64)]
    for a in candidates:
        mult = IntMatrix([ring.mul(a, ring.generator(i)) for i in range(dim)])
        chi = Poly(DomainMatrix.from_list(mult.data, ZZ).charpoly(), x, domain=QQ)
        if chi.sqf_part().degree() == sdim:
            break
    else:
        raise FactorizationIncomplete("no primitive element found for the semisimple part")

    powers = [unity]
    for _ in range(dim - 1):
        powers.append(row_times_matrix(powers[-1], mult))
    primitives = []
    for f, m in chi.factor_list()[1]:
        block = f**m
        rest = chi.exquo(block)
        s, _, _ = rest.gcdex(block)
        coeffs = (s * rest).rem(chi).all_coeffs()[::-1]
        primitives.append(
            [
                sum(Fraction(c.p, c.q) * power[j] for c, power in zip(coeffs, powers))
                for j in range(dim)
            ]
        )
    return _lift_subset_sums(primitives, dim)


def _lift_subset_sums(primitives, dim) -> list[Vec]:
    out = set()
    for mask in range(1 << len(primitives)):
        total = [0] * dim
        for i, e in enumerate(primitives):
            if mask >> i & 1:
                total = [a + b for a, b in zip(total, e)]
        if all(v.denominator == 1 for v in total):
            out.add(tuple(int(v) for v in total))
    return sorted(out)


# -- idempotents and spectrum -------------------------------------------------


def idempotents(p: FdzRing) -> list[Vec]:
    """The complete finite set of idempotents of a scalar ring."""
    _require_scalar(p)
    # p is diagonal, so its torsion is spanned by the generators of finite order
    finite = [i for i, d in enumerate(p.orders) if d]
    if prod(p.orders[i] for i in finite) > ELEMENT_LIMIT:
        raise FactorizationIncomplete("torsion part too large to enumerate")
    if len(finite) == p.rank:
        return sorted(e for e in p.elements() if p.mul(e, e) == e)
    torsion_elements = list(itertools.product(*(range(d) if d else (0,) for d in p.orders)))
    free = _ideal_quotient(p, p.subgroup([p.generator(i) for i in finite]))
    free_idems = _free_idempotents(free.ring)
    found = set()
    for ebar in free_idems:
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
    idems = idempotents(p)
    nonzero = [e for e in idems if any(e)]
    primitives = []
    for e in nonzero:
        if not any(f != e and p.mul(f, e) == f for f in nonzero):
            primitives.append(e)
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
    chain = characteristic_ideals(a)
    preds = predicates(a)
    infinite = a.order is None
    justify: list[str] = [
        f"tame={'yes' if preds.tame else 'no'}: {TAG_TAME_DEFINITION}",
        f"regular={'yes' if preds.regular else 'no'}: {TAG_REGULAR_DEFINITION}",
    ]

    if infinite:
        qfa = YES if preds.tame else NO
        justify.append(f"qfa={qfa}: {TAG_MAIN1}")
    else:
        qfa = NOT_APPLICABLE
        justify.append(f"qfa={qfa}: {TAG_FINITE}")

    rigid = YES if preds.regular else UNKNOWN
    justify.append(f"first_order_rigid_hint={rigid}: {TAG_RIGID}")

    ann_is_finite = chain.ann.as_group()[0].order is not None
    delta_is_all = chain.delta.is_full()

    spec0 = None
    spec0_tag = TAG_SPEC0
    try:
        if use_pa_ring:
            scalar = pa_ring(a)
        else:
            scalar = pf_ring(induced_bilinear_map(a).map)
        try:
            spectrum = indecomposable_factors(scalar.ring)
            spec0 = spectrum.spec0_connected
        except FactorizationIncomplete:
            spec0 = UNKNOWN
    except BilinearMapError:
        spec0 = None
        spec0_tag = TAG_PF_UNDEFINED

    side = ann_is_finite or delta_is_all
    if spec0 is None:
        super_tame = NO
    elif spec0 == UNKNOWN:
        super_tame = UNKNOWN if side else NO
    elif spec0 == YES and side:
        super_tame = YES
    else:
        super_tame = NO
    justify.append(f"super_tame={super_tame}: {spec0_tag}")

    if not infinite:
        bi = NOT_APPLICABLE
        justify.append(f"bi_interpretable={bi}: {TAG_FINITE}")
    elif super_tame == YES:
        bi = YES
        justify.append(f"bi_interpretable={bi}: {TAG_MAIN3}")
    elif not ann_is_finite and not delta_is_all:
        bi = NO
        justify.append(f"bi_interpretable={bi}: {TAG_MAIN2}")
    elif qfa == NO:
        bi = NO
        justify.append(f"bi_interpretable={bi}: {TAG_BIINT_QFA}")
    else:
        bi = UNKNOWN
        justify.append(f"bi_interpretable={bi}: {TAG_OPEN}")

    return ClassificationReport(
        infinite=infinite,
        tame=preds.tame,
        regular=preds.regular,
        qfa=qfa,
        first_order_rigid_hint=rigid,
        super_tame=super_tame,
        bi_interpretable=bi,
        justifications=tuple(justify),
    )
