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
from fdzring.corpus import twoz_ring, w_ring, z_mod, z_ring, zx2_ring
from fdzring.intlinalg import lattice_contains, row_times_matrix
from fdzring.rings import FdzRing, z0_ring

from oracles import brute_force_pairs, joint_pa_basis, random_finite_ring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_induced_map_shapes():
    ind = induced_bilinear_map(z_ring())
    assert ind.map.domain_orders == (0,)
    assert ind.map.codomain_orders == (0,)
    assert ind.map.values[0][0] == (1,)

    ind = induced_bilinear_map(w_ring())
    assert ind.map.domain_orders == (2,)
    assert ind.map.codomain_orders == (2,)
    assert ind.map.values[0][0] == (1,)

    # the null line collapses to a trivial quotient
    ind0 = induced_bilinear_map(z0_ring())
    assert ind0.map.domain_group.is_trivial


def test_induced_map_nondegenerate_and_full():
    for builder in (z_ring, twoz_ring, w_ring, zx2_ring):
        f = induced_bilinear_map(builder()).map
        assert f.is_full()
        assert f.is_nondegenerate()


def test_width():
    zero_map = BilinearMap((1,), (1,), (((0,),),))
    assert width(zero_map).exact == 0

    wmap = induced_bilinear_map(w_ring()).map
    res = width(wmap)
    assert res.exact == 1 and res.upper_bound == 1

    zmap = induced_bilinear_map(z_ring()).map
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
    f = induced_bilinear_map(z_ring()).map
    cs = complete_system(f)
    assert cs.size_bound == 1 and cs.witness == ((1,),)

    f = induced_bilinear_map(w_ring()).map
    cs = complete_system(f)
    assert cs.size_bound == 1

    trivial_domain = induced_bilinear_map(z0_ring()).map
    cs = complete_system(trivial_domain)
    assert cs.size_bound == 0 and cs.witness == ()

    degenerate = BilinearMap((2, 2), (2,), ((((1,)), ((0,))), (((0,)), ((0,)))))
    with pytest.raises(DegenerateMapError):
        complete_system(degenerate)


def test_pf_ring_examples():
    pf = pf_ring(induced_bilinear_map(z_ring()).map)
    assert pf.ring.orders == (0,) and pf.ring.tensor[0][0] == (1,)

    pf = pf_ring(induced_bilinear_map(zx2_ring()).map)
    assert pf.ring.orders == (0, 0)
    assert pf.ring == zx2_ring()

    pf = pf_ring(induced_bilinear_map(w_ring()).map)
    assert pf.ring.orders == (2,)

    pf = pf_ring(induced_bilinear_map(z_mod(4)).map)
    assert pf.ring.orders == (4,)


def test_pf_ring_refuses_trivial_sides():
    with pytest.raises(BilinearMapError):
        pf_ring(induced_bilinear_map(z0_ring()).map)


def test_scalar_action_axioms():
    for builder in (z_ring, zx2_ring, w_ring, lambda: z_mod(4)):
        action = pf_ring(induced_bilinear_map(builder()).map)
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
    for builder in (z_ring, zx2_ring, w_ring, lambda: z_mod(4)):
        ring = builder()
        ind = induced_bilinear_map(ring)
        action = pf_ring(ind.map)
        m, n = ind.map.domain_rank, ind.map.codomain_rank
        identity = tuple(
            1 if i == j else 0 for i in range(m) for j in range(m)
        ) + tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        assert lattice_contains(action.pair_basis.data, identity)
        # multiplication by each ring generator is a compatible pair
        for g in range(ring.rank):
            gen = ring.generator(g)
            phi_rows = []
            for i in range(m):
                lifted = ind.domain_lift.row(i)
                phi_rows.append(
                    row_times_matrix(ring.mul(gen, lifted), ind.domain_project)
                )
            psi_rows = []
            for k in range(n):
                lifted = ind.codomain_embed.row(k)
                psi_rows.append(ind.codomain_express(ring.mul(gen, lifted)))
            pair = tuple(v for row in phi_rows for v in row) + tuple(
                v for row in psi_rows for v in row
            )
            assert lattice_contains(action.pair_basis.data, pair)


def test_pf_maximality_sampling():
    rng = random.Random(6)
    for builder in (w_ring, lambda: z_mod(4), zx2_ring):
        action = pf_ring(induced_bilinear_map(builder()).map)
        basis = action.pair_basis
        for _ in range(10):
            combo = [rng.randint(-3, 3) for _ in range(basis.rows)]
            vec = [0] * basis.cols
            for c, row in zip(combo, basis.data):
                for t in range(basis.cols):
                    vec[t] += c * row[t]
            assert lattice_contains(basis.data, vec)


def test_pf_brute_force_finite():
    for builder in (w_ring, lambda: z_mod(4)):
        ind = induced_bilinear_map(builder())
        action = pf_ring(ind.map)
        brute = brute_force_pairs(ind.map)
        m, n = ind.map.domain_rank, ind.map.codomain_rank
        lattice_pairs = set()
        for coords in action.ring.elements():
            phi, psi = action.pair_of(coords)
            cphi = tuple(
                phi[(i, k)] % ind.map.domain_orders[k]
                for i in range(m)
                for k in range(m)
            )
            cpsi = tuple(
                psi[(i, k)] % ind.map.codomain_orders[k]
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
        ind = induced_bilinear_map(ring)
        f = ind.map
        if f.domain_group.is_trivial or f.codomain_group.is_trivial:
            continue
        if not f.is_nondegenerate():
            continue
        action = pf_ring(f)
        brute = brute_force_pairs(f)
        m, n = f.domain_rank, f.codomain_rank
        lattice_pairs = set()
        for coords in action.ring.elements():
            phi, psi = action.pair_of(coords)
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
    pa = pa_ring(z_ring())
    assert pa.ring.orders == (0,)
    assert pa.in_parent is not None and pa.in_parent.data == ((1,),)

    pa = pa_ring(w_ring())
    pf = pf_ring(induced_bilinear_map(w_ring()).map)
    assert pa.ring == pf.ring
    assert pa.in_parent is not None

    pa = pa_ring(zx2_ring())
    assert pa.ring == zx2_ring()


def test_pa_constraint_random_finite():
    # on random finite rings with a usable pairing, the subring action
    # satisfies the projection-linearity condition, rechecked directly
    rng = random.Random(44)
    done = 0
    while done < 8:
        ring = random_finite_ring(rng, max_order=12)
        ind = induced_bilinear_map(ring)
        f = ind.map
        if f.domain_group.is_trivial or f.codomain_group.is_trivial:
            continue
        if not f.is_nondegenerate():
            continue
        sub = pa_ring(ring)
        parent = pf_ring(f)
        m, n = f.domain_rank, f.codomain_rank
        pi = [
            row_times_matrix(ind.codomain_embed.row(k), ind.domain_project)
            for k in range(n)
        ]
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
        f = induced_bilinear_map(ring).map
        if not (f.domain_group.is_trivial or f.codomain_group.is_trivial):
            out.append(ring)
    return out


def test_pa_inside_pf():
    builders = [z_ring, w_ring, zx2_ring, lambda: z_mod(4)]
    for ring in [b() for b in builders] + _seeded_gen_rings(30):
        pa = pa_ring(ring)
        pf = pf_ring(induced_bilinear_map(ring).map)
        # maximality: pa keeps every pf pair that meets the linearity rows
        assert pa.pair_basis.data == joint_pa_basis(ring)
        # each generator of pa, written in pf coordinates, is a pf element
        # and the embedding respects the pair representations
        assert pa.in_parent is not None
        for idx in range(pa.ring.rank):
            coords = pa.in_parent.row(idx)
            phi, psi = pf.pair_of(coords)
            phi2, psi2 = pa.action_on_domain[idx], pa.action_on_codomain[idx]
            f = pf.bilinear
            for i in range(f.domain_rank):
                assert f.domain_group.reduce(phi.row(i)) == f.domain_group.reduce(
                    phi2.row(i)
                )
