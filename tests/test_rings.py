import os
import random
import sys

import pytest

from fdzring.corpus import twoz_ring, w_ring, z_mod, z_ring, zx2_ring, zxz0_ring
from fdzring.rings import (
    FdzRing,
    RingValidationError,
    addition_and_foundation,
    characteristic_ideals,
    direct_product,
    predicates,
    quotient_ring,
    reduce_mod_n,
    subring_presentation,
    transport,
    validate_ring,
    z0_ring,
)

from fdzring.intlinalg import row_times_matrix
from fdzring.ringfile import load_ring

from oracles import (
    brute_force_chain,
    dense_mul,
    random_finite_ring,
    random_mixed_ring,
    random_lattice_preserving_unimodular,
    subgroup_elements,
)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_mul_matches_dense_products():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(23)
    for n in range(50):
        if n % 5 == 4:
            ring = random_finite_ring(rng)
        else:
            orders, tensor = random_ring_data(
                rng, 2 + n % 6, density=rng.choice((0.05, 0.3, 0.8)), coeff=3
            )
            ring = FdzRing(orders, tensor)
        gens = [ring.generator(i) for i in range(ring.rank)]
        pairs = [(x, y) for x in gens for y in gens]
        for _ in range(20):
            pairs.append(tuple(
                tuple(rng.randint(-7, 7) for _ in range(ring.rank)) for _ in range(2)
            ))
        for x, y in pairs:
            assert ring.mul(x, y) == dense_mul(ring, x, y), (ring, x, y)
        assert ring.mul(ring.zero(), gens[0]) == ring.zero()


def test_validate_accepts_and_rejects():
    assert validate_ring((0,), (((1,),),)).order is None
    zero2 = ((0, 0), (0, 0))
    assert validate_ring((2, 3), (zero2, zero2)).order == 6
    with pytest.raises(RingValidationError) as err:
        validate_ring((2, 0), (((0, 1), (0, 0)), ((0, 0), (0, 0))))
    assert err.value.violation == (0, 0, 1)


def test_chain_z0():
    chain = characteristic_ideals(z0_ring())
    assert chain.ann.is_full()
    assert chain.sq.is_zero() and chain.delta.is_zero()
    assert chain.k_ideal.is_full() and chain.l_ideal.is_full()
    assert chain.m_quot.is_trivial and chain.n_quot.is_trivial
    assert chain.o_ideal.is_zero()


def test_chain_z_usual():
    chain = characteristic_ideals(z_ring())
    assert chain.ann.is_zero()
    assert chain.sq.is_full() and chain.delta.is_full()
    assert chain.k_ideal.is_full() and chain.l_ideal.is_full()
    assert chain.m_quot.is_trivial and chain.n_quot.is_trivial


def test_chain_w():
    w = w_ring()
    chain = characteristic_ideals(w)
    assert chain.ann == w.subgroup([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert chain.sq == w.subgroup([(0, 0, 1)])
    assert chain.delta == chain.sq
    assert chain.k_ideal == chain.ann
    assert chain.l_ideal.is_full()
    assert chain.n_quot.invariant_factors == (2,)
    assert chain.m_quot.is_trivial
    assert chain.o_ideal == w.subgroup([(0, 0, 1)])


def test_predicates_corpus():
    assert predicates(z_ring()) == predicates(z_ring()).__class__(tame=True, regular=True)
    p0 = predicates(z0_ring())
    assert not p0.tame and p0.regular
    pw = predicates(w_ring())
    assert not pw.tame and not pw.regular


def test_chain_oracle_random():
    rng = random.Random(42)
    for _ in range(60):
        ring = random_finite_ring(rng, max_order=16)
        chain = characteristic_ideals(ring)
        brute = brute_force_chain(ring)
        assert subgroup_elements(ring, chain.ann) == brute["ann"]
        assert subgroup_elements(ring, chain.sq) == brute["sq"]
        assert subgroup_elements(ring, chain.delta) == brute["delta"]
        assert subgroup_elements(ring, chain.k_ideal) == brute["k"]
        assert subgroup_elements(ring, chain.l_ideal) == brute["l"]
        assert subgroup_elements(ring, chain.o_ideal) == brute["o"]


def test_chain_inclusions_random():
    rng = random.Random(4)
    for _ in range(40):
        ring = random_finite_ring(rng)
        chain = characteristic_ideals(ring)
        assert chain.ann.contains_subgroup(chain.o_ideal)
        assert chain.k_ideal.contains_subgroup(chain.ann)
        assert chain.l_ideal.contains_subgroup(chain.k_ideal)
        assert chain.delta.contains_subgroup(chain.sq)
        assert chain.k_ideal.contains_subgroup(chain.delta)
        assert chain.delta.saturate() == chain.delta
        assert chain.l_ideal.saturate() == chain.l_ideal
        assert chain.n_quot.order is not None
        assert all(d == 0 for d in chain.m_quot.invariant_factors)


def test_ideals_are_two_sided():
    rng = random.Random(17)
    for _ in range(25):
        ring = random_finite_ring(rng)
        chain = characteristic_ideals(ring)
        for ideal in (chain.ann, chain.sq, chain.delta, chain.k_ideal, chain.l_ideal):
            for row in ideal.lift_basis:
                for i in range(ring.rank):
                    g = ring.generator(i)
                    assert ideal.contains(ring.mul(row, g))
                    assert ideal.contains(ring.mul(g, row))


def test_chain_inclusions_random_mixed():
    from oracles import random_mixed_ring

    rng = random.Random(27)
    for _ in range(30):
        ring = random_mixed_ring(rng)
        chain = characteristic_ideals(ring)
        assert chain.ann.contains_subgroup(chain.o_ideal)
        assert chain.k_ideal.contains_subgroup(chain.ann)
        assert chain.l_ideal.contains_subgroup(chain.k_ideal)
        assert chain.delta.contains_subgroup(chain.sq)
        assert chain.k_ideal.contains_subgroup(chain.delta)
        assert chain.delta.saturate() == chain.delta
        assert chain.l_ideal.saturate() == chain.l_ideal
        assert chain.n_quot.order is not None
        assert all(d == 0 for d in chain.m_quot.invariant_factors)
        for ideal in (chain.ann, chain.sq, chain.delta, chain.k_ideal, chain.l_ideal):
            for row in ideal.lift_basis:
                for i in range(ring.rank):
                    g = ring.generator(i)
                    assert ideal.contains(ring.mul(row, g))
                    assert ideal.contains(ring.mul(g, row))


def test_chain_transport_invariance():
    rng = random.Random(8)
    for builder in (w_ring, zx2_ring, zxz0_ring):
        base = builder()
        for _ in range(6):
            t, tinv = random_lattice_preserving_unimodular(rng, base.orders)
            moved = transport(base, t, tinv)
            ca, cb = characteristic_ideals(base), characteristic_ideals(moved)
            for name in ("ann", "sq", "delta", "k_ideal", "l_ideal", "o_ideal"):
                ga = getattr(ca, name).as_group()[0].invariant_factors
                gb = getattr(cb, name).as_group()[0].invariant_factors
                assert ga == gb, (builder.__name__, name)
            assert ca.m_quot.invariant_factors == cb.m_quot.invariant_factors
            assert ca.n_quot.invariant_factors == cb.n_quot.invariant_factors


def test_addition_and_foundation_examples():
    af = addition_and_foundation(z_ring())
    assert af.addition is not None and af.addition.is_zero()
    assert af.foundation_subring is not None and af.foundation_subring.is_full()

    af = addition_and_foundation(zxz0_ring())
    ring = zxz0_ring()
    assert af.addition == ring.subgroup([(0, 1)])
    assert af.foundation_subring == ring.subgroup([(1, 0)])

    af = addition_and_foundation(w_ring())
    w = w_ring()
    assert af.addition == w.subgroup([(2, 0, 0), (0, 1, 0)])
    assert af.foundation_subring is None
    assert af.foundation_quotient is not None
    quot = af.foundation_quotient.ring
    assert quot.order == 4
    # the image of e1 still squares to the image of t
    image_e1 = af.foundation_quotient.project.row(0)
    image_t = af.foundation_quotient.project.row(2)
    assert quot.mul(image_e1, image_e1) == quot.reduce(image_t)


def test_foundation_subring_properties():
    for builder in (z_ring, twoz_ring, zxz0_ring, zx2_ring):
        ring = builder()
        chain = characteristic_ideals(ring)
        af = addition_and_foundation(ring)
        assert af.addition is not None
        f = af.foundation_subring
        assert f is not None
        assert f.contains_subgroup(chain.delta)
        for x in f.lift_basis:
            for y in f.lift_basis:
                assert f.contains(ring.mul(x, y))
        assert f.sum(af.addition) == ring.additive.full_subgroup()
        assert f.intersect(af.addition).is_zero()


def test_reduce_mod_n():
    assert reduce_mod_n(z_ring(), 4) == z_mod(4)
    assert z_mod(4).orders == (4,) and z_mod(4).tensor[0][0] == (1,)
    assert reduce_mod_n(w_ring(), 1).rank == 0
    wm2 = reduce_mod_n(w_ring(), 2)
    assert wm2.order == 8
    # e1*e1 = t survives in the quotient
    chain = characteristic_ideals(wm2)
    assert subgroup_elements(wm2, chain.sq) == frozenset({wm2.zero(), (0, 0, 1)})


def test_direct_product():
    p = direct_product(z0_ring(), z0_ring())
    assert p.orders == (0, 0)
    assert all(not any(v) for row in p.tensor for v in row)
    assert direct_product(w_ring(), z_ring()).rank == 4
    chain = characteristic_ideals(zxz0_ring())
    assert chain.ann == zxz0_ring().subgroup([(0, 1)])


def test_z0_ring():
    ring = z0_ring()
    assert ring.mul((3,), (5,)) == (0,)
    chain = characteristic_ideals(ring)
    assert chain.ann.is_full()
    assert chain.sq.is_zero()


def test_quotient_ring_rejects_non_ideal():
    ring = zx2_ring()
    # the line through the unity is not an ideal
    with pytest.raises(Exception):
        quotient_ring(ring, ring.subgroup([(1, 0)]))


def test_subring_presentation_transport():
    w = w_ring()
    chain = characteristic_ideals(w)
    pres = subring_presentation(w, chain.delta)
    assert pres.ring.orders == (2,)
    assert pres.express((0, 0, 1)) == (1,)


def _chain_test_rings():
    folder = os.path.join(ROOT, "corpus")
    rings = [load_ring(os.path.join(folder, name)) for name in sorted(os.listdir(folder))]
    rng = random.Random(71)
    return rings + [random_mixed_ring(rng) for _ in range(20)]


def _same_subring(built, direct):
    return built.ring == direct.ring and built.lift == direct.lift and all(
        built.express(row) == direct.express(row) for row in direct.lift.data
    )


def test_chain_presentations_match_direct_construction():
    for ring in _chain_test_rings():
        chain = characteristic_ideals(ring)
        assert chain.ring == ring
        assert chain.hat == quotient_ring(ring, chain.ann), ring
        assert chain.ak == quotient_ring(ring, chain.k_ideal), ring
        assert _same_subring(chain.square_pres, subring_presentation(ring, chain.sq)), ring
        delta = subring_presentation(ring, chain.delta)
        o_pres = subring_presentation(ring, chain.o_ideal)
        assert _same_subring(chain.delta_pres, delta), ring
        assert _same_subring(chain.o_pres, o_pres), ring
        # each row of o_in_delta lifts to the matching generator of o
        assert chain.o_in_delta.rows == o_pres.ring.rank
        for row, o_row in zip(chain.o_in_delta.data, o_pres.lift.data):
            assert ring.reduce(row_times_matrix(row, delta.lift)) == ring.reduce(o_row)
        # Ann = A0 ⊕ O whenever an addition exists
        a0 = chain.addition
        if a0 is not None:
            assert a0.sum(chain.o_ideal) == chain.ann, ring
            assert a0.intersect(chain.o_ideal).is_zero(), ring
            assert addition_and_foundation(ring).addition is a0


def test_chain_presentations_are_built_once_per_chain():
    members = ("hat", "ak", "square_pres", "delta_pres", "o_pres", "o_in_delta", "addition")
    for ring in _chain_test_rings():
        chain = characteristic_ideals(ring)
        first = {name: getattr(chain, name) for name in members}
        assert characteristic_ideals(ring) is chain
        for name in members:
            assert getattr(chain, name) is first[name], name
        characteristic_ideals.cache_clear()
        fresh = characteristic_ideals(ring)
        assert fresh is not chain
        for name in ("hat", "ak", "square_pres", "delta_pres", "o_pres", "o_in_delta"):
            rebuilt = getattr(fresh, name)
            assert rebuilt is not first[name], name
            assert getattr(rebuilt, "ring", rebuilt) == getattr(first[name], "ring", first[name])
        assert fresh.addition == first["addition"]
