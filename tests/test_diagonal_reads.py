"""Chain pieces read off diagonal presentations against the general lattice
recipes they replace: saturation, quotient-ring presentations, l/k, the
deformation carrier and the cocycle classes."""

import os
import random
import sys
from functools import lru_cache

from fdzring.deform import DeformationContext, SymmetricCocycle, cocycle_analyze
from fdzring.rings import (
    FdzRing,
    IdealChain,
    _cyclic_presentation,
    characteristic_ideals,
    quotient_ring,
    subring_presentation,
    z0_ring,
)
from oracles import (
    corpus_ring,
    hermite_cocycle_classes,
    quotient_of_subgroups,
    rows_and_relations_quotient,
    smith_saturation,
    split_complement_carrier,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mixed_carrier_ring() -> FdzRing:
    """Rank 4 with A/k = Z/2 ⊕ Z: e1·e2 = 3e1 and e2·e3 = e2·e4 = e3·e4 =
    e4·e3 = e4 of order 2."""
    tensor = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    tensor[0][1] = [3, 0, 0, 0]
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 2)):
        tensor[i][j] = [0, 0, 0, 1]
    return FdzRing((0, 0, 0, 2), tensor)


@lru_cache(maxsize=1)
def _chains() -> tuple[IdealChain, ...]:
    """The chains of the corpus, of the deformation catalog of the ``search``
    workload, of 320 generated rings of ranks 2-8 and of 30 rank-4 rings
    whose A/k has both a free and a torsion part.  They are kept here, since
    there are more of them than ``characteristic_ideals`` caches."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rings = [corpus_ring(name) for name in ("twoz", "w", "z", "zx2", "zxz0")] + [z0_ring()]
    rings.append(_mixed_carrier_ring())
    catalog = workloads.catalog(workloads.DEFORM_CATALOG_SEED, workloads.DEFORM_RANKS)
    rings += [FdzRing(*data) for data in catalog]
    rng = random.Random(20261019)
    rings += [FdzRing(*random_ring_data(rng, 2 + n % 7)) for n in range(320)]
    chains = [characteristic_ideals(ring) for ring in rings]
    while len(chains) < len(rings) + 30:
        chain = characteristic_ideals(
            FdzRing(*random_ring_data(rng, 4, torsion_share=0.25, density=0.15, coeff=3))
        )
        orders = chain.k_ideal.quotient().diagonal.orders
        if 0 in orders and any(orders):
            chains.append(chain)
    return tuple(chains)


def test_saturation_matches_the_smith_reference():
    changed = 0
    for chain in _chains():
        ring = chain.ring
        for s in (ring.additive.zero_subgroup(), chain.sq, chain.ann.sum(chain.sq), chain.k_ideal):
            sat = s.saturate()
            assert sat == smith_saturation(s)
            changed += sat != s
    assert changed > 100


def test_quotient_rings_match_the_rows_plus_relations_presentation():
    for chain in _chains():
        ring = chain.ring
        scaled = ring.subgroup([[3 * x for x in ring.generator(i)] for i in range(ring.rank)])
        for ideal, quot in (
            (chain.ann, chain.hat),
            (chain.k_ideal, quotient_ring(ring, chain.k_ideal)),
            (chain.addition, quotient_ring(ring, chain.addition)),
            (scaled, quotient_ring(ring, scaled)),
        ):
            ref = rows_and_relations_quotient(ring, ideal)
            assert quot.ring.orders == ref.orders
            assert (quot.project, quot.lift) == (ref.project, ref.lift)
        # the deformation carrier reads A/k off the quotient group alone
        assert chain.k_ideal.quotient().diagonal == rows_and_relations_quotient(ring, chain.k_ideal)


def test_n_quot_is_the_torsion_of_a_mod_k():
    for chain in _chains():
        ref = quotient_of_subgroups(chain.l_ideal, chain.k_ideal)
        assert chain.n_quot.invariant_factors == ref.invariant_factors
        assert chain.n_quot.order == ref.order
        assert chain.n_quot.rank == len(ref.invariant_factors)


def test_carrier_matches_the_split_complement_reference():
    mixed = 0
    for chain in _chains():
        ctx = DeformationContext(chain.ring)
        free_section, n_orders, n_lift_ambient = split_complement_carrier(chain)
        assert ctx.free_section == free_section
        assert ctx.n_orders == n_orders
        assert ctx.n_lift_ambient == n_lift_ambient
        mixed += ctx.free_section.rows > 0 and len(ctx.n_orders) > 0
    assert mixed >= 30


def test_addition_is_a_complement_of_o_in_ann():
    for chain in _chains():
        assert chain.addition.sum(chain.o_ideal) == chain.ann
        assert chain.addition.intersect(chain.o_ideal).is_zero()
        # A0 is free and, inside ann, a null subring
        assert not any(_cyclic_presentation(chain.addition).diagonal.orders)
        table = subring_presentation(chain.ring, chain.addition).ring.tensor
        assert not any(any(v) for row in table for v in row)


def test_cocycle_classes_match_the_hermite_reference():
    rng = random.Random(41)
    nontrivial = 0
    for _ in range(2500):
        source = [rng.choice((0, 2, 3, 4, 6, 12)) for _ in range(rng.randint(1, 3))]
        target = [rng.choice((0, 0, 2, 3, 4, 6, 8, 12)) for _ in range(rng.randint(1, 4))]
        values = [[rng.randint(-30, 30) if e else 0 for _ in target] for e in source]
        c = SymmetricCocycle(source, target, values)
        report = cocycle_analyze(c)
        assert report.ext_classes == hermite_cocycle_classes(c)
        assert report.is_coboundary == (not any(map(any, report.ext_classes)))
        nontrivial += not report.is_coboundary
    assert nontrivial > 1000
