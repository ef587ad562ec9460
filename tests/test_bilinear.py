import os
import random
import sys

import pytest

from fdzring.bilinear import (
    BilinearMapError,
    DegenerateMapError,
    BilinearMap,
    complete_system,
    induced_bilinear_map,
    pa_ring,
    pf_ring,
    width,
)
from fdzring.intlinalg import row_times_matrix
from fdzring.rings import (
    FdzRing, RingValidationError, characteristic_ideals, subring_presentation, z0_ring,
)

from oracles import (
    ChainPresentations, brute_force_pairs, built_rings, corpus_ring, joint_pa_basis,
    lattice_contains, pair_of, random_finite_ring, z_mod,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_induced_map_shapes():
    f = induced_bilinear_map(corpus_ring("z"))
    assert f.domain_orders == (0,)
    assert f.codomain_orders == (0,)
    assert f.values[0][0] == (1,)

    f = induced_bilinear_map(corpus_ring("w"))
    assert f.domain_orders == (2,)
    assert f.codomain_orders == (2,)
    assert f.values[0][0] == (1,)

    # the null line collapses to a trivial quotient
    f0 = induced_bilinear_map(z0_ring())
    assert f0.domain_group.is_trivial


def test_induced_map_nondegenerate_and_full():
    for name in ("z", "twoz", "w", "zx2"):
        f = induced_bilinear_map(corpus_ring(name))
        assert f.is_full()
        assert f.is_nondegenerate()


def test_ill_defined_map_names_generators_and_coordinate():
    # e_1·e_2 = e_2 over Z/2 x Z/4: 2·e_1 = 0, but 2·e_2 ≠ 0
    values = (((0, 0), (0, 1)), ((0, 0), (0, 0)))
    with pytest.raises(BilinearMapError) as err:
        BilinearMap((2, 4), (2, 4), values)
    assert str(err.value) == (
        "value at generators (1, 2), coordinate 2, is not well defined modulo the "
        "relation lattices"
    )
    # the same table as a ring names the same place
    with pytest.raises(RingValidationError) as ring_err:
        FdzRing((2, 4), values)
    assert ring_err.value.violation == (0, 1, 1)
    assert "generators (1, 2), coordinate 2" in str(ring_err.value)


def test_width():
    zero_map = BilinearMap((1,), (1,), (((0,),),))
    assert width(zero_map).exact == 0

    wmap = induced_bilinear_map(corpus_ring("w"))
    res = width(wmap)
    assert res.exact == 1 and res.upper_bound == 1

    zmap = induced_bilinear_map(corpus_ring("z"))
    res = width(zmap)
    assert res.upper_bound == 1 and res.exact == 1

    # symmetric pairing into 2x2 Gram coordinates over Z/3: the identity
    # matrix is not a single product (t + 1/t = 0 has no solution mod 3),
    # so the width is exactly two
    gram = BilinearMap(
        (3, 3),
        (3, 3, 3),
        (
            ((1, 0, 0), (0, 1, 0)),
            ((0, 1, 0), (0, 0, 1)),
        ),
    )
    res = width(gram)
    assert res.upper_bound == 2 and res.exact == 2

    # a non-full map stabilizes short of the codomain: no finite width
    scaled = BilinearMap((3,), (9,), (((3,),),))
    res = width(scaled)
    assert res.exact is None and res.upper_bound == 1 or res.exact is None


def test_complete_system():
    f = induced_bilinear_map(corpus_ring("z"))
    cs = complete_system(f)
    assert cs.size_bound == 1 and cs.witness == ((1,),)

    f = induced_bilinear_map(corpus_ring("w"))
    cs = complete_system(f)
    assert cs.size_bound == 1

    trivial_domain = induced_bilinear_map(z0_ring())
    cs = complete_system(trivial_domain)
    assert cs.size_bound == 0 and cs.witness == ()

    degenerate = BilinearMap((2, 2), (2,), ((((1,)), ((0,))), (((0,)), ((0,)))))
    with pytest.raises(DegenerateMapError):
        complete_system(degenerate)


def test_pf_ring_examples():
    pf = pf_ring(induced_bilinear_map(corpus_ring("z")))
    assert pf.ring.orders == (0,) and pf.ring.tensor[0][0] == (1,)

    pf = pf_ring(induced_bilinear_map(corpus_ring("zx2")))
    assert pf.ring.orders == (0, 0)
    assert pf.ring == corpus_ring("zx2")

    pf = pf_ring(induced_bilinear_map(corpus_ring("w")))
    assert pf.ring.orders == (2,)

    pf = pf_ring(induced_bilinear_map(z_mod(4)))
    assert pf.ring.orders == (4,)


def test_pf_ring_refuses_trivial_sides():
    with pytest.raises(BilinearMapError):
        pf_ring(induced_bilinear_map(z0_ring()))


def test_scalar_action_axioms():
    for ring in (corpus_ring("z"), corpus_ring("zx2"), corpus_ring("w"), z_mod(4)):
        action = pf_ring(induced_bilinear_map(ring))
        ring = action.ring
        assert ring.is_commutative() and ring.is_associative()
        assert ring.unity() == action.unity
        f = action.bilinear
        m = f.domain_rank
        gens = [tuple(1 if t == i else 0 for t in range(m)) for i in range(m)]
        for phi, psi in zip(action.action_on_domain, action.action_on_codomain):
            for i in range(m):
                for j in range(m):
                    target = f.reduce_codomain(
                        row_times_matrix(f.values[i][j], psi)
                    )
                    assert f.evaluate(phi.row(i), gens[j]) == target
                    assert f.evaluate(gens[i], phi.row(j)) == target


def test_identity_pair_and_base_action_membership():
    for ring in (corpus_ring("z"), corpus_ring("zx2"), corpus_ring("w"), z_mod(4)):
        chain = characteristic_ideals(ring)
        square = subring_presentation(ring, chain.sq)
        action = pf_ring(induced_bilinear_map(ring))
        m, n = action.bilinear.domain_rank, action.bilinear.codomain_rank
        identity = tuple(
            1 if i == j else 0 for i in range(m) for j in range(m)
        ) + tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        assert lattice_contains(action.pair_basis.data, identity)
        # multiplication by each ring generator is a compatible pair
        for g in range(ring.rank):
            gen = ring.generator(g)
            phi_rows = []
            for i in range(m):
                lifted = chain.hat.lift.row(i)
                phi_rows.append(
                    row_times_matrix(ring.mul(gen, lifted), chain.hat.project)
                )
            psi_rows = []
            for k in range(n):
                lifted = square.lift.row(k)
                psi_rows.append(square.express(ring.mul(gen, lifted)))
            pair = tuple(v for row in phi_rows for v in row) + tuple(
                v for row in psi_rows for v in row
            )
            assert lattice_contains(action.pair_basis.data, pair)


def test_pf_maximality_sampling():
    rng = random.Random(6)
    for ring in (corpus_ring("w"), z_mod(4), corpus_ring("zx2")):
        action = pf_ring(induced_bilinear_map(ring))
        basis = action.pair_basis
        for _ in range(10):
            combo = [rng.randint(-3, 3) for _ in range(basis.rows)]
            vec = [0] * basis.cols
            for c, row in zip(combo, basis.data):
                for t in range(basis.cols):
                    vec[t] += c * row[t]
            assert lattice_contains(basis.data, vec)


def test_pf_brute_force_finite():
    for ring in (corpus_ring("w"), z_mod(4)):
        f = induced_bilinear_map(ring)
        action = pf_ring(f)
        brute = brute_force_pairs(f)
        m, n = f.domain_rank, f.codomain_rank
        lattice_pairs = set()
        for coords in action.ring.elements():
            phi, psi = pair_of(action, coords)
            cphi = tuple(
                phi[(i, k)] % f.domain_orders[k]
                for i in range(m)
                for k in range(m)
            )
            cpsi = tuple(
                psi[(i, k)] % f.codomain_orders[k]
                for i in range(n)
                for k in range(n)
            )
            lattice_pairs.add((cphi, cpsi))
        assert lattice_pairs == brute


def test_pf_brute_force_random_finite():
    rng = random.Random(31)
    done = 0
    while done < 8:
        ring = random_finite_ring(rng, max_order=8)
        f = induced_bilinear_map(ring)
        if f.domain_group.is_trivial or f.codomain_group.is_trivial:
            continue
        if not f.is_nondegenerate():
            continue
        action = pf_ring(f)
        brute = brute_force_pairs(f)
        m, n = f.domain_rank, f.codomain_rank
        lattice_pairs = set()
        for coords in action.ring.elements():
            phi, psi = pair_of(action, coords)
            cphi = tuple(
                phi[(i, k)] % f.domain_orders[k] for i in range(m) for k in range(m)
            )
            cpsi = tuple(
                psi[(i, k)] % f.codomain_orders[k] for i in range(n) for k in range(n)
            )
            lattice_pairs.add((cphi, cpsi))
        assert lattice_pairs == brute
        done += 1


def test_pa_ring():
    pa = pa_ring(corpus_ring("z"))
    assert pa.ring.orders == (0,)
    assert pa.in_parent is not None and pa.in_parent.data == ((1,),)

    pa = pa_ring(corpus_ring("w"))
    pf = pf_ring(induced_bilinear_map(corpus_ring("w")))
    assert pa.ring == pf.ring
    assert pa.in_parent is not None

    pa = pa_ring(corpus_ring("zx2"))
    assert pa.ring == corpus_ring("zx2")


def test_pa_constraint_random_finite():
    # on random finite rings with a usable pairing, the subring action
    # satisfies the projection-linearity condition, rechecked directly
    rng = random.Random(44)
    done = 0
    while done < 8:
        ring = random_finite_ring(rng, max_order=12)
        f = induced_bilinear_map(ring)
        if f.domain_group.is_trivial or f.codomain_group.is_trivial:
            continue
        if not f.is_nondegenerate():
            continue
        sub = pa_ring(ring)
        parent = pf_ring(f)
        m, n = f.domain_rank, f.codomain_rank
        chain = characteristic_ideals(ring)
        square = subring_presentation(ring, chain.sq)
        pi = [row_times_matrix(square.lift.row(k), chain.hat.project) for k in range(n)]
        dom = f.domain_group
        for phi, psi in zip(sub.action_on_domain, sub.action_on_codomain):
            for k in range(n):
                via_psi = [0] * m
                for s in range(n):
                    for c in range(m):
                        via_psi[c] += psi[(k, s)] * pi[s][c]
                via_phi = row_times_matrix(pi[k], phi)
                assert dom.reduce(via_psi) == dom.reduce(via_phi)
        # containment: every subring pair solves the parent system
        for phi, psi in zip(sub.action_on_domain, sub.action_on_codomain):
            pair = tuple(phi.entries) + tuple(psi.entries)
            assert lattice_contains(parent.pair_basis.data, pair)
        # maximality: no pair of the joint system is lost
        assert sub.pair_basis.data == joint_pa_basis(ring)
        done += 1


def _seeded_gen_rings(count: int) -> list[FdzRing]:
    """Rings from the benchmark generator, ranks 2-6, with pf defined."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(17)
    out = []
    while len(out) < count:
        ring = FdzRing(*random_ring_data(rng, 2 + len(out) % 5))
        f = induced_bilinear_map(ring)
        if not (f.domain_group.is_trivial or f.codomain_group.is_trivial):
            out.append(ring)
    return out


def test_induced_map_and_pa_build_no_ring_on_the_square():
    # on fresh chains, the only rings built are A/ann and the scalar rings,
    # and the map is the one read off sq presented as a subring
    named = [corpus_ring("z"), corpus_ring("w"), corpus_ring("zx2"), z_mod(4)]
    for ring in named + _seeded_gen_rings(30):
        characteristic_ideals.cache_clear()
        with built_rings() as built:
            f = induced_bilinear_map(ring)
        assert [id(r) for r in built] == [id(characteristic_ideals(ring).hat.ring)], ring
        pres = ChainPresentations(ring)
        hat, square = pres.hat, pres.square_pres
        values = tuple(
            tuple(square.express(ring.mul(x, y)) for y in hat.lift.data) for x in hat.lift.data
        )
        assert f == BilinearMap(hat.ring.orders, square.ring.orders, values), ring
        characteristic_ideals.cache_clear()
        with built_rings() as built:
            action = pa_ring(ring)
        kept = {id(r) for r in (characteristic_ideals(ring).hat.ring, action.ring, action.parent.ring)}
        assert {id(r) for r in built} == kept, ring


def test_pa_inside_pf():
    named = [corpus_ring("z"), corpus_ring("w"), corpus_ring("zx2"), z_mod(4)]
    for ring in named + _seeded_gen_rings(30):
        pa = pa_ring(ring)
        pf = pf_ring(induced_bilinear_map(ring))
        # maximality: pa keeps every pf pair that meets the linearity rows
        assert pa.pair_basis.data == joint_pa_basis(ring)
        # each generator of pa, written in pf coordinates, is a pf element
        # and the embedding respects the pair representations
        assert pa.in_parent is not None
        for idx in range(pa.ring.rank):
            coords = pa.in_parent.row(idx)
            phi, psi = pair_of(pf, coords)
            phi2, psi2 = pa.action_on_domain[idx], pa.action_on_codomain[idx]
            f = pf.bilinear
            for i in range(f.domain_rank):
                assert f.domain_group.reduce(phi.row(i)) == f.domain_group.reduce(
                    phi2.row(i)
                )
