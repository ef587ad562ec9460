import importlib
import os
import random
import sys

import pytest

import fdzring
from fdzring.bilinear import BilinearMapError, induced_bilinear_map, pa_ring, pf_ring
from fdzring.classify import FactorizationIncomplete, indecomposable_factors
from fdzring.deform import DeformationError, DeformationSpec, build_deformation
from fdzring.eqcheck import invariant_profile
from fdzring.rings import (
    FdzRing,
    IdealChain,
    RingValidationError,
    addition_and_foundation,
    characteristic_ideals,
    direct_product,
    ill_defined_product,
    predicates,
    quotient_ring,
    reduce_mod_n,
    subring_presentation,
    z0_ring,
)

from fdzring.intlinalg import IntMatrix, row_times_matrix

from oracles import (
    brute_force_chain,
    corpus_ring,
    corpus_rings,
    dense_mul,
    eager_chain,
    element_order,
    ill_defined_reference,
    random_finite_ring,
    random_lattice_preserving_unimodular,
    random_mixed_ring,
    reference_cyclic,
    subgroup_elements,
    transport,
    z_mod,
)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _random_ring_data():
    """``perfbench/gen.random_ring_data``, the benchmark's ring generator."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    return random_ring_data


def test_mul_matches_dense_products():
    random_ring_data = _random_ring_data()
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
    assert FdzRing((0,), (((1,),),)).order is None
    zero2 = ((0, 0), (0, 0))
    assert FdzRing((2, 3), (zero2, zero2)).order == 6
    with pytest.raises(RingValidationError) as err:
        FdzRing((2, 0), (((0, 1), (0, 0)), ((0, 0), (0, 0))))
    assert err.value.violation == (0, 0, 1)


def test_ill_defined_product_matches_the_two_sided_reference():
    pool = (0, 1, 2, 3, 4, 6, 12)
    rng = random.Random(61)
    # coprime domain orders still bind c: 2·1 and 3·1 are not 0 mod 5
    cases = [((2, 3), (5,), (((0,), (1,)), ((0,), (0,))))]
    while len(cases) < 12000:
        domain = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        # every other case is a ring table, domain and codomain alike
        codomain = domain if len(cases) % 2 else tuple(
            rng.choice(pool) for _ in range(rng.randint(1, 3))
        )
        values = tuple(
            tuple(
                tuple(
                    rng.randint(-12, 12) if rng.random() < 0.15 else 0
                    for _ in codomain
                )
                for _ in domain
            )
            for _ in domain
        )
        cases.append((domain, codomain, values))
    found = 0
    for domain, codomain, values in cases:
        expected = ill_defined_reference(domain, codomain, values)
        assert ill_defined_product(domain, codomain, values) == expected, (domain, codomain, values)
        found += expected is not None
        if domain != codomain:
            continue
        if expected is None:
            FdzRing(domain, values)
            continue
        with pytest.raises(RingValidationError) as err:
            FdzRing(domain, values)
        assert err.value.violation == expected
        assert str(err.value) == str(RingValidationError(*expected))
    assert 2000 < found < 10000, found


def test_chain_z0():
    chain = characteristic_ideals(z0_ring())
    assert chain.ann.is_full()
    assert chain.sq.is_zero() and chain.delta.is_zero()
    assert chain.k_ideal.is_full() and chain.l_ideal.is_full()
    assert chain.m_quot.is_trivial and chain.n_quot.is_trivial
    assert chain.o_ideal.is_zero()


def test_chain_z_usual():
    chain = characteristic_ideals(corpus_ring("z"))
    assert chain.ann.is_zero()
    assert chain.sq.is_full() and chain.delta.is_full()
    assert chain.k_ideal.is_full() and chain.l_ideal.is_full()
    assert chain.m_quot.is_trivial and chain.n_quot.is_trivial


def test_chain_w():
    w = corpus_ring("w")
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
    pz = predicates(corpus_ring("z"))
    assert pz == pz.__class__(tame=True, regular=True)
    p0 = predicates(z0_ring())
    assert not p0.tame and p0.regular
    pw = predicates(corpus_ring("w"))
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
    for stem in ("w", "zx2", "zxz0"):
        base = corpus_ring(stem)
        for _ in range(6):
            t, tinv = random_lattice_preserving_unimodular(rng, base.orders)
            moved = transport(base, t, tinv)
            ca, cb = characteristic_ideals(base), characteristic_ideals(moved)
            for name in ("ann", "sq", "delta", "k_ideal", "l_ideal", "o_ideal"):
                ga = getattr(ca, name).as_group()[0].invariant_factors
                gb = getattr(cb, name).as_group()[0].invariant_factors
                assert ga == gb, (stem, name)
            assert ca.m_quot.invariant_factors == cb.m_quot.invariant_factors
            assert ca.n_quot.invariant_factors == cb.n_quot.invariant_factors


def test_addition_and_foundation_examples():
    af = addition_and_foundation(corpus_ring("z"))
    assert af.addition is not None and af.addition.is_zero()
    assert af.foundation_subring is not None and af.foundation_subring.is_full()

    af = addition_and_foundation(corpus_ring("zxz0"))
    ring = corpus_ring("zxz0")
    assert af.addition == ring.subgroup([(0, 1)])
    assert af.foundation_subring == ring.subgroup([(1, 0)])

    af = addition_and_foundation(corpus_ring("w"))
    w = corpus_ring("w")
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
    for name in ("z", "twoz", "zxz0", "zx2"):
        ring = corpus_ring(name)
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
    assert z_mod(4) == corpus_ring("z4")
    assert z_mod(4).orders == (4,) and z_mod(4).tensor[0][0] == (1,)
    assert reduce_mod_n(corpus_ring("w"), 1).rank == 0
    wm2 = reduce_mod_n(corpus_ring("w"), 2)
    assert wm2 == corpus_ring("w_mod2") and wm2.order == 8
    assert corpus_ring("z0") == z0_ring()
    assert corpus_ring("zxz0") == direct_product(corpus_ring("z"), z0_ring())
    # e1*e1 = t survives in the quotient
    chain = characteristic_ideals(wm2)
    assert subgroup_elements(wm2, chain.sq) == frozenset({wm2.zero(), (0, 0, 1)})


def test_direct_product():
    p = direct_product(z0_ring(), z0_ring())
    assert p.orders == (0, 0)
    assert all(not any(v) for row in p.tensor for v in row)
    assert direct_product(corpus_ring("w"), corpus_ring("z")).rank == 4
    chain = characteristic_ideals(corpus_ring("zxz0"))
    assert chain.ann == corpus_ring("zxz0").subgroup([(0, 1)])


def test_z0_ring():
    ring = z0_ring()
    assert ring.mul((3,), (5,)) == (0,)
    chain = characteristic_ideals(ring)
    assert chain.ann.is_full()
    assert chain.sq.is_zero()


def test_quotient_ring_rejects_non_ideal():
    ring = corpus_ring("zx2")
    # the line through the unity is not an ideal
    with pytest.raises(Exception):
        quotient_ring(ring, ring.subgroup([(1, 0)]))


def test_subring_presentation_transport():
    w = corpus_ring("w")
    chain = characteristic_ideals(w)
    pres = subring_presentation(w, chain.delta)
    assert pres.ring.orders == (2,)
    assert pres.express((0, 0, 1)) == (1,)


def _chain_test_rings():
    rings = corpus_rings()
    rng = random.Random(71)
    return rings + [random_mixed_ring(rng) for _ in range(20)]


def test_chain_presentations_match_direct_construction():
    for ring in _chain_test_rings():
        chain = characteristic_ideals(ring)
        assert chain.ring == ring
        assert chain.hat == quotient_ring(ring, chain.ann), ring
        delta = subring_presentation(ring, chain.delta)
        assert chain.delta_pres == delta, ring
        # A/k is read as a group, on the quotient ring's presentation
        ak = quotient_ring(ring, chain.k_ideal)
        diagonal = chain.k_ideal.quotient().diagonal
        assert (diagonal.orders, diagonal.project, diagonal.lift) == (
            ak.ring.orders, ak.project, ak.lift
        ), ring
        # sq, o and A0 in cyclic coordinates: the subring presentation's
        # coordinates, whose generators span the subgroup, are read as unit
        # vectors and have the cyclic orders
        for s in (chain.sq, chain.o_ideal, chain.addition):
            pres = subring_presentation(ring, s)
            cyclic = s.cyclic
            diagonal, lift = cyclic.diagonal, cyclic.lift
            assert (diagonal, cyclic.basis, lift) == reference_cyclic(s), ring
            assert (diagonal, lift, cyclic.basis) == (pres.diagonal, pres.lift, pres.basis)
            assert diagonal.orders == pres.ring.orders, ring
            assert ring.subgroup(lift.data) == s, ring
            for unit, row, d in zip(IntMatrix.identity(lift.rows).data, lift.data, diagonal.orders):
                assert cyclic.express(row) == pres.express(row) == unit, ring
                assert (element_order(ring.additive, row) or 0) == d, ring
        # each generator of o, expressed in delta, lifts back to itself
        for o_row in chain.o_ideal.cyclic.lift.data:
            row = delta.express(o_row)
            assert ring.reduce(row_times_matrix(row, delta.lift)) == ring.reduce(o_row)
        # Ann = A0 ⊕ O
        a0 = chain.addition
        assert a0.sum(chain.o_ideal) == chain.ann, ring
        assert a0.intersect(chain.o_ideal).is_zero(), ring
        assert addition_and_foundation(ring).addition is a0
    for name in ("ak", "square_pres", "o_pres", "o_in_delta", "addition_pres"):
        assert not hasattr(IdealChain, name), name


def test_chain_presentations_are_built_once_per_chain():
    members = ("hat", "delta_pres", "sq", "o_ideal", "k_ideal", "addition")
    for ring in _chain_test_rings():
        chain = characteristic_ideals(ring)
        first = {name: getattr(chain, name) for name in members}
        assert characteristic_ideals(ring) is chain
        for name in members:
            assert getattr(chain, name) is first[name], name
        characteristic_ideals.cache_clear()
        fresh = characteristic_ideals(ring)
        assert fresh is not chain
        for name in members:
            rebuilt = getattr(fresh, name)
            assert rebuilt is not first[name], name
            assert rebuilt == first[name], name


def _record_classes():
    for home in sorted(fdzring._SUBMODULES):
        module = importlib.import_module(f"fdzring.{home}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if "__match_args__" in vars(value):
                    yield value


def _assert_equal_builds(build):
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second), first


def test_records_compare_by_value():
    # records hold data, never functions or live contexts, so two builds of
    # one object compare and hash equal; a subgroup builds its cyclic
    # presentation once, so its two builds come from equal subgroups built anew
    records = list(_record_classes())
    assert len(records) > 20
    for cls in records:
        for field, annotation in vars(cls).get("__annotations__", {}).items():
            assert "Callable" not in str(annotation), (cls, field)
    random_ring_data = _random_ring_data()
    rng = random.Random(83)
    rings = corpus_rings() + [FdzRing(*random_ring_data(rng, 2 + n % 5)) for n in range(24)]
    built = dict.fromkeys(("pa", "factors", "deformation"), 0)
    for ring in rings:
        chain = characteristic_ideals(ring)
        assert subring_presentation(ring, chain.delta) == chain.delta_pres, ring
        for s in (chain.sq, chain.o_ideal, chain.addition):
            _assert_equal_builds(lambda: subring_presentation(ring, s))
            _assert_equal_builds(lambda: ring.subgroup(s.lift_basis).cyclic)
        try:
            pf = pa_ring(ring).parent.ring
        except BilinearMapError:
            pass
        else:
            _assert_equal_builds(lambda: pa_ring(ring))
            built["pa"] += 1
            try:
                indecomposable_factors(pf)
            except FactorizationIncomplete:
                pass
            else:
                _assert_equal_builds(lambda: indecomposable_factors(pf))
                built["factors"] += 1
        try:
            build_deformation(DeformationSpec(ring))
        except DeformationError:
            continue
        _assert_equal_builds(lambda: build_deformation(DeformationSpec(ring)))
        built["deformation"] += 1
    assert min(built.values()) >= 20, built


CHAIN_MEMBERS = ("ann", "sq", "delta", "k_ideal", "l_ideal", "o_ideal", "m_quot", "n_quot")


def test_chain_members_wait_for_first_access():
    random_ring_data = _random_ring_data()
    rng = random.Random(29)
    data = [(ring.orders, ring.tensor) for ring in (corpus_ring("w"), corpus_ring("zx2"))]
    data += [random_ring_data(rng, rng.randint(2, 6)) for _ in range(20)]
    defined = 0
    for orders, tensor in data:
        characteristic_ideals.cache_clear()
        invariant_profile.cache_clear()
        ring = FdzRing(orders, tensor)
        assert vars(characteristic_ideals(ring)) == {"ring": ring}
        invariant_profile(ring)
        built = vars(characteristic_ideals(ring))
        # n_quot is read off the quotient by k, with no group of its own
        assert {"ann", "sq", "k_ideal"} <= built.keys(), (orders, tensor)
        assert not built.keys() & {"l_ideal", "o_ideal", "m_quot", "n_quot"}, (orders, tensor)
        characteristic_ideals.cache_clear()
        ring = FdzRing(orders, tensor)
        try:
            pf_ring(induced_bilinear_map(ring))
        except BilinearMapError:
            pass
        else:
            defined += 1
        built = vars(characteristic_ideals(ring))
        assert built.keys() <= {"ring", "ann", "sq", "hat"}, (orders, tensor)
    assert defined >= 10, defined


def test_lazy_chain_matches_the_eager_recipe():
    random_ring_data = _random_ring_data()
    rings = corpus_rings()
    rings += [direct_product(ring, z0_ring()) for ring in rings]
    rings.append(FdzRing((), ()))
    rng = random.Random(37)
    rings += [FdzRing(*random_ring_data(rng, rng.randint(2, 8))) for _ in range(150)]
    for ring in rings:
        eager = eager_chain(ring)
        # a fresh chain, its members read in an order that differs per ring
        chain = IdealChain(ring)
        for name in rng.sample(CHAIN_MEMBERS, len(CHAIN_MEMBERS)):
            assert getattr(chain, name) == eager[name], (ring, name)
