"""Acceptance suite: every criterion at its stated tolerance, one line each.

All checks are exact (integer arithmetic throughout); run with ``-s`` to see
the per-criterion pass lines.
"""

import itertools
import random
import time

from fdzring.bilinear import (
    induced_bilinear_map,
    pf_ring,
)
from fdzring.classify import classify_ring
from fdzring.corpus import NAMED_RINGS, w_ring, z_mod, z_ring
from fdzring.deform import (
    DeformationContext,
    DeformationSpec,
    build_deformation,
    build_group_extension,
    cocycle_analyze,
    cyclic_cocycle,
    verify_sixterm,
)
from fdzring.eqcheck import (
    equivalence_verdict,
    invariant_profile,
    iso_search,
    verify_embedding,
)
from fdzring.fomc import defined_set, evaluate, phi, theta
from fdzring.groups import FgAbelianGroup, quotient_of_subgroups
from fdzring.intlinalg import IntMatrix, lattice_contains, row_times_matrix, smith
from fdzring.rings import characteristic_ideals, reduce_mod_n

from oracles import (
    TableCocycle,
    brute_force_chain,
    brute_force_isomorphic,
    brute_force_pairs,
    cocycle_pair_add,
    random_finite_ring,
    subgroup_elements,
    table_cocycle_defect,
)


def announce(number: int, description: str):
    def wrap(fn):
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL — {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {number}: PASS — {description} ({elapsed:.1f}s)")

        run.__name__ = fn.__name__
        return run

    return wrap


@announce(1, "exact Smith forms and saturation on random input")
def test_criterion_1_linear_algebra_kernel():
    rng = random.Random(1001)
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        dec = smith(a)
        assert dec.u.mul(a).mul(dec.v) == dec.d
        diag = dec.diagonal
        for i in range(len(diag)):
            assert diag[i] >= 0
            if i:
                if diag[i - 1] == 0:
                    assert diag[i] == 0
                else:
                    assert diag[i] % diag[i - 1] == 0
    for _ in range(200):
        r = rng.randint(1, 6)
        parent = FgAbelianGroup(
            r,
            [[rng.randint(-6, 6) for _ in range(r)] for _ in range(rng.randint(0, 2))],
        )
        sub = parent.subgroup(
            [[rng.randint(-6, 6) for _ in range(r)] for _ in range(rng.randint(0, 3))]
        )
        sat = sub.saturate()
        assert sat.saturate() == sat
        assert sat.contains_subgroup(sub)
        assert quotient_of_subgroups(sat, sub).order is not None


@announce(2, "ideal chains agree with brute force on 200 random finite rings")
def test_criterion_2_ideal_chain_oracle():
    rng = random.Random(2002)
    for _ in range(200):
        ring = random_finite_ring(rng, max_order=16)
        chain = characteristic_ideals(ring)
        brute = brute_force_chain(ring)
        assert subgroup_elements(ring, chain.ann) == brute["ann"]
        assert subgroup_elements(ring, chain.sq) == brute["sq"]
        assert subgroup_elements(ring, chain.delta) == brute["delta"]
        assert subgroup_elements(ring, chain.k_ideal) == brute["k"]
        assert subgroup_elements(ring, chain.l_ideal) == brute["l"]
        assert subgroup_elements(ring, chain.o_ideal) == brute["o"]


@announce(3, "classification table reproduced with matching citations")
def test_criterion_3_classification_table():
    reports = {name: classify_ring(builder()) for name, builder in NAMED_RINGS.items()}

    r = reports["z"]
    assert r.tame and r.qfa == "yes" and r.bi_interpretable == "yes"
    assert any(
        line == "qfa=yes: thm:Main1" for line in r.justifications
    )
    assert any(
        line == "bi_interpretable=yes: thm:Main3" for line in r.justifications
    )

    r = reports["twoz"]
    assert r.tame and r.qfa == "yes"
    assert r.super_tame == "yes" and r.bi_interpretable == "yes"
    assert any(line == "super_tame=yes: spec0-rule" for line in r.justifications)

    r = reports["z0"]
    assert not r.tame and r.qfa == "no" and r.bi_interpretable == "no"
    assert any(line == "qfa=no: thm:Main1" for line in r.justifications)

    r = reports["zxz0"]
    assert r.bi_interpretable == "no"
    assert any(
        line == "bi_interpretable=no: thm:main2" for line in r.justifications
    )

    r = reports["w"]
    assert not r.tame and r.qfa == "no" and not r.regular

    r = reports["zx2"]
    assert r.tame and r.qfa == "yes"

    for report in reports.values():
        if report.super_tame == "yes":
            assert report.bi_interpretable == "yes"
        if report.bi_interpretable == "yes":
            assert report.qfa == "yes"
        if report.qfa == "yes":
            assert report.tame


@announce(4, "largest scalar rings: axioms, actions, and brute-force equality")
def test_criterion_4_pf_correctness():
    cases = {
        "z": z_ring,
        "zx2": NAMED_RINGS["zx2"],
        "w": w_ring,
        "z4": lambda: z_mod(4),
    }
    for name, builder in cases.items():
        ring = builder()
        induced = induced_bilinear_map(ring)
        action = pf_ring(induced.map)
        scalar = action.ring
        assert scalar.is_commutative(), name
        assert scalar.is_associative(), name
        assert scalar.unity() == action.unity, name
        f = action.bilinear
        m, n = f.domain_rank, f.codomain_rank
        gens = [tuple(1 if t == i else 0 for t in range(m)) for i in range(m)]
        for phi_mat, psi_mat in zip(action.action_on_domain, action.action_on_codomain):
            for i in range(m):
                for j in range(m):
                    target = f.reduce_codomain(
                        row_times_matrix(f.values[i][j], psi_mat)
                    )
                    assert f.evaluate(phi_mat.row(i), gens[j]) == target, name
                    assert f.evaluate(gens[i], phi_mat.row(j)) == target, name
        # the multiplication action of the base ring's image is in the lattice
        for g in range(ring.rank):
            gen = ring.generator(g)
            phi_rows = [
                row_times_matrix(
                    ring.mul(gen, induced.domain_lift.row(i)), induced.domain_project
                )
                for i in range(m)
            ]
            psi_rows = [
                induced.codomain_express(ring.mul(gen, induced.codomain_embed.row(k)))
                for k in range(n)
            ]
            pair = tuple(v for row in phi_rows for v in row) + tuple(
                v for row in psi_rows for v in row
            )
            assert lattice_contains(action.pair_basis.data, pair), name
        if ring.order is not None:
            brute = brute_force_pairs(f)
            lattice_pairs = set()
            for coords in scalar.elements():
                phi_mat, psi_mat = action.pair_of(coords)
                cphi = tuple(
                    phi_mat[(i, k)] % f.domain_orders[k]
                    for i in range(m)
                    for k in range(m)
                )
                cpsi = tuple(
                    psi_mat[(i, k)] % f.codomain_orders[k]
                    for i in range(n)
                    for k in range(n)
                )
                lattice_pairs.add((cphi, cpsi))
            assert lattice_pairs == brute, name


@announce(5, "the square is first-order definable across corpus quotients")
def test_criterion_5_definability_at_finite_scale():
    started = time.perf_counter()
    for name, builder in NAMED_RINGS.items():
        ring = builder()
        for n in (2, 3, 4):
            quotient = reduce_mod_n(ring, n)
            if quotient.rank == 0:
                continue
            k = quotient.rank
            if not evaluate(quotient, phi(k)):
                continue
            defined = set(map(tuple, defined_set(quotient, theta(k))))
            chain = characteristic_ideals(quotient)
            assert defined == subgroup_elements(quotient, chain.sq), (name, n)
    assert time.perf_counter() - started < 30


@announce(6, "cocycle identities, extension classes, and named extensions")
def test_criterion_6_cocycles_and_extensions():
    # cocycle identity for all e <= 6, exhaustively on tables
    for e in range(1, 7):
        for target in ((0,), (4,), (2, 2)):
            value = tuple(1 for _ in target)
            table = TableCocycle.of(cyclic_cocycle(e, value, target))
            assert table_cocycle_defect(table) is None, (e, target)

    # extension classes match brute-force extension enumeration
    for e in (2, 3, 4):
        for d_orders in ((2,), (4,), (8,), (2, 2), (2, 4), (3,), (6,)):
            target = FgAbelianGroup.from_orders(d_orders)
            elements = list(target.elements())
            for d1, d2 in itertools.product(elements, repeat=2):
                c1 = cyclic_cocycle(e, d1, d_orders)
                c2 = cyclic_cocycle(e, d2, d_orders)
                same = (
                    cocycle_analyze(c1).ext_classes
                    == cocycle_analyze(c2).ext_classes
                )
                found = False
                for delta in elements:
                    acc = (tuple([0]), tuple([0] * len(d_orders)))
                    base = (tuple([0]), tuple([0] * len(d_orders)))
                    for _ in range(e):
                        acc = cocycle_pair_add(c2, acc, ((1,), delta))
                        base = cocycle_pair_add(
                            c1, base, ((1,), tuple([0] * len(d_orders)))
                        )
                    if target.reduce(
                        [a - b for a, b in zip(acc[1], base[1])]
                    ) == target.zero():
                        found = True
                        break
                assert found == same, (e, d_orders, d1, d2)

    ext = build_group_extension(cyclic_cocycle(2, (1,), (2,)))
    assert ext.group.invariant_factors == (4,)
    ext = build_group_extension(cyclic_cocycle(2, (1,), (0,)))
    assert ext.group.invariant_factors == (0,)
    assert ext.group.subgroup(list(ext.embed_target.data)).index() == 2


@announce(7, "deformations: trivial ones collapse, the twisted one stays equivalent")
def test_criterion_7_deformation_suite():
    for name, builder in NAMED_RINGS.items():
        base = builder()
        result = build_deformation(DeformationSpec(base=base))
        found = iso_search(base, result.ring, coeff_bound=5)
        assert found.kind == "yes", name

    w = w_ring()
    ctx = DeformationContext(w)
    g = ctx.ambient_annihilator_cocycle(0, (0, 1, 0))
    deformed = build_deformation(DeformationSpec(base=w, g=g)).ring
    assert invariant_profile(w).first_mismatch(invariant_profile(deformed)) is None
    assert verify_sixterm(w, deformed).status == "commutes"
    assert equivalence_verdict(w, deformed).kind != "not_equivalent"


@announce(8, "the index-three self-embedding passes; the doubling map fails")
def test_criterion_8_embedding_witnesses():
    w = w_ring()
    report = verify_embedding(
        w, w, IntMatrix([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    )
    assert report.passed
    assert report.index == 3 and report.torsion_quotient_order == 2

    report = verify_embedding(z_ring(), z_ring(), IntMatrix([[2]]))
    assert not report.passed


@announce(9, "isomorphism search agrees with bijection enumeration on all pairs")
def test_criterion_9_eqcheck_oracle():
    rng = random.Random(9009)
    rings = [random_finite_ring(rng, max_order=12) for _ in range(50)]
    for i, a in enumerate(rings):
        for b in rings[i:]:
            expected = brute_force_isomorphic(a, b)
            got = iso_search(a, b, coeff_bound=12)
            assert got.kind in ("yes", "no")
            assert (got.kind == "yes") == expected
