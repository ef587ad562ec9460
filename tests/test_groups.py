import random

from fdzring.groups import (
    FgAbelianGroup,
    GroupError,
    quotient_of_subgroups,
    split_complement,
)
from fdzring.intlinalg import IntMatrix, row_times_matrix
from oracles import brute_force_complement_exists

import pytest


def test_saturation_examples():
    z2 = FgAbelianGroup(2)
    assert z2.subgroup([(2, 0)]).saturate() == z2.subgroup([(1, 0)])
    assert z2.subgroup([(2, 2)]).saturate() == z2.subgroup([(1, 1)])
    full = z2.full_subgroup()
    assert full.saturate() == full


def test_saturation_idempotent_and_finite_quotient():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 5)
        g = FgAbelianGroup(
            r, [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, 2))]
        )
        s = g.subgroup(
            [[rng.randint(-5, 5) for _ in range(r)] for _ in range(rng.randint(0, 3))]
        )
        sat = s.saturate()
        assert sat.saturate() == sat
        assert sat.contains_subgroup(s)
        assert quotient_of_subgroups(sat, s).order is not None


def test_as_group_with_presents_the_part_inside():
    rng = random.Random(9)
    for _ in range(40):
        r = rng.randint(1, 4)
        g = FgAbelianGroup(
            r, [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, 2))]
        )
        big = g.subgroup(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(0, 3))]
        )
        scales = [rng.randint(-3, 3) for _ in big.lift_basis]
        small = g.subgroup([k * x for x in row] for k, row in zip(scales, big.lift_basis))
        group, basis, part = big.as_group_with(small)
        assert group == big.as_group()[0]
        assert g.subgroup(row_times_matrix(row, basis) for row in part.lift_basis) == small
        outside = g.full_subgroup()
        if not big.contains_subgroup(outside):
            with pytest.raises(GroupError):
                big.as_group_with(outside)


def test_sum_and_intersect():
    z1 = FgAbelianGroup(1)
    two, three = z1.subgroup([(2,)]), z1.subgroup([(3,)])
    assert two.sum(three) == z1.full_subgroup()
    assert two.intersect(three) == z1.subgroup([(6,)])
    assert two.intersect(z1.zero_subgroup()).is_zero()
    z2 = FgAbelianGroup(2)
    s = z2.subgroup([(2, 0)])
    assert s.sum(z2.zero_subgroup()) == s
    assert s.sum(z2.subgroup([(0, 3)])) == z2.subgroup([(2, 0), (0, 3)])


def test_sum_intersect_inclusions_random():
    rng = random.Random(9)
    for _ in range(40):
        r = rng.randint(1, 4)
        g = FgAbelianGroup(r)
        s = g.subgroup([[rng.randint(-4, 4) for _ in range(r)] for _ in range(2)])
        t = g.subgroup([[rng.randint(-4, 4) for _ in range(r)] for _ in range(2)])
        total = s.sum(t)
        meet = s.intersect(t)
        assert total.contains_subgroup(s) and total.contains_subgroup(t)
        assert s.contains_subgroup(meet) and t.contains_subgroup(meet)


def test_parent_mismatch_raises():
    a = FgAbelianGroup(2).subgroup([(1, 0)])
    b = FgAbelianGroup(3).subgroup([(1, 0, 0)])
    with pytest.raises(GroupError):
        a.sum(b)
    with pytest.raises(GroupError):
        a.intersect(b)


def test_quotient_and_invariants():
    z2 = FgAbelianGroup(2)
    assert z2.subgroup([(2, 0)]).quotient().invariant_factors == (2, 0)
    assert z2.subgroup([(2, 0), (0, 4)]).quotient().invariant_factors == (2, 4)
    assert z2.full_subgroup().quotient().is_trivial
    z1 = FgAbelianGroup(1)
    assert z1.zero_subgroup().quotient().invariant_factors == (0,)
    assert FgAbelianGroup(2).invariant_factors == (0, 0)


def test_invariants_unimodular_stability():
    rng = random.Random(21)
    for _ in range(40):
        r = rng.randint(1, 4)
        rels = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(rng.randint(0, r))]
        g = FgAbelianGroup(r, rels)
        # conjugate the relations by a random unimodular matrix
        t = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for _ in range(6):
            i, j = rng.randrange(r), rng.randrange(r)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for k in range(r):
                t[k][j] += q * t[k][i]
        moved = [row_times_matrix(row, IntMatrix(t)) for row in rels]
        assert FgAbelianGroup(r, moved).invariant_factors == g.invariant_factors


def test_split_complement_examples():
    z2 = FgAbelianGroup(2)
    sp = split_complement(z2, z2.subgroup([(1, 0)]))
    assert sp is not None and sp.complement == z2.subgroup([(0, 1)])
    z1 = FgAbelianGroup(1)
    assert split_complement(z1, z1.subgroup([(2,)])) is None
    sp2 = split_complement(z2, z2.subgroup([(1, 1)]))
    assert sp2 is not None
    s = z2.subgroup([(1, 0)])
    sp3 = split_complement(z2, s, kill=z2.subgroup([(1, 1)]))
    assert sp3 is not None and sp3.complement == z2.subgroup([(1, 1)])
    assert split_complement(z2, s, kill=s) is None


def _random_group(rng, r):
    """Z^r modulo random rows, so the relation lattice is rarely diagonal."""
    rows = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, r + 1))]
    return FgAbelianGroup(r, rows)


def check_splitting(g, s, sp, kill=None):
    """The projection is an idempotent onto S vanishing on ``kill``, and its
    kernel is a complement of S."""
    p = sp.projection
    assert p.rows == p.cols == g.rank
    for row in s.lift_basis:
        assert g.reduce(row_times_matrix(row, p)) == g.reduce(row)
    for unit in IntMatrix.identity(g.rank).data:
        image = row_times_matrix(unit, p)
        assert s.contains(image)
        assert g.reduce(row_times_matrix(image, p)) == g.reduce(image)
    for row in kill.lift_basis if kill is not None else ():
        assert g.reduce(row_times_matrix(row, p)) == g.zero()
        assert sp.complement.contains(row)
    assert s.sum(sp.complement) == g.full_subgroup()
    assert s.intersect(sp.complement).is_zero()


def test_split_complement_directness():
    rng = random.Random(13)
    hits = {True: 0, False: 0}
    for trial in range(160):
        r = rng.randint(1, 4)
        diagonal = trial % 2 == 0
        if diagonal:
            g = FgAbelianGroup.from_orders([rng.choice([0, 0, 2, 3, 4]) for _ in range(r)])
        else:
            g = _random_group(rng, r)
        s = g.subgroup(
            [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(1, 2))]
        )
        sp = split_complement(g, s)
        if sp is None:
            continue
        hits[diagonal] += 1
        check_splitting(g, s, sp)
        c = sp.complement
        # any subgroup of one complement lies in a complement, so killing it
        # must still split
        kill = g.subgroup(
            [
                row_times_matrix(
                    [rng.randint(-2, 2) for _ in c.lift_basis],
                    IntMatrix(c.lift_basis, cols=r),
                )
            ]
        )
        spk = split_complement(g, s, kill=kill)
        assert spk is not None
        check_splitting(g, s, spk, kill)
    assert hits[True] > 10 and hits[False] > 10


def test_split_complement_matches_brute_force():
    rng = random.Random(29)
    seen = {(k, v): 0 for k in (False, True) for v in (False, True)}
    nondiagonal = 0
    while sum(seen.values()) < 400:
        r = rng.randint(1, 3)
        g = _random_group(rng, r)
        if not g.is_finite or g.order > 16:
            continue
        if g.order in (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15) and rng.random() < 0.7:
            continue  # every subgroup of a squarefree order splits off
        # multiples of a generator are the usual non-summands
        s = g.subgroup(
            [
                [c * rng.randint(-3, 3) for _ in range(r)]
                for c in rng.choices((1, 2, 2, 3), k=rng.randint(1, 2))
            ]
        )
        with_kill = rng.random() < 0.5
        kill = g.subgroup([[rng.randint(-3, 3) for _ in range(r)]]) if with_kill else None
        sp = split_complement(g, s, kill=kill)
        expect = brute_force_complement_exists(
            g, s.lift_basis, kill.lift_basis if with_kill else ()
        )
        assert (sp is not None) == expect
        if sp is not None:
            check_splitting(g, s, sp, kill)
        seen[(with_kill, expect)] += 1
        nondiagonal += any(
            x for i, row in enumerate(g.relation_basis) for j, x in enumerate(row) if j != i
        )
    assert min(seen.values()) > 30 and nondiagonal > 80


def test_element_order_and_enumeration():
    g = FgAbelianGroup.from_orders([2, 0])
    assert g.element_order((1, 0)) == 2
    assert g.element_order((0, 1)) is None
    assert g.element_order((0, 0)) == 1
    finite = FgAbelianGroup.from_orders([2, 3])
    assert sorted(finite.elements()) == [
        (i, j) for i in range(2) for j in range(3)
    ]


def test_membership_via_express():
    g = FgAbelianGroup(2)
    s = g.subgroup([(2, 0), (0, 3)])
    assert s.express((4, 3)) is not None
    assert s.express((1, 0)) is None
    assert s.contains((2, 3))
    assert not s.contains((0, 1))


def test_presentation_roundtrip():
    g = FgAbelianGroup.from_orders([0, 0, 2])
    s = g.subgroup([(2, 0, 0), (0, 1, 0)])
    pres = s.presentation()
    for i in range(len(pres.orders)):
        row = pres.lift.row(i)
        coords = pres.to_coords(row)
        expected = tuple(1 if j == i else 0 for j in range(len(pres.orders)))
        assert coords == expected
