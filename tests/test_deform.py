import inspect
import itertools
import os
import random
import sys

import pytest

from fdzring.deform import (
    CocycleError,
    DeformationContext,
    DeformationError,
    DeformationSpec,
    SymmetricCocycle,
    build_deformation,
    build_group_extension,
    cocycle_analyze,
    cyclic_cocycle,
    verify_sixterm,
    zero_cocycle,
)
from fdzring.eqcheck import _iso_witnesses, equivalence_verdict, invariant_profile, iso_search
from fdzring.groups import FgAbelianGroup
from fdzring.rings import FdzRing, characteristic_ideals, subring_presentation
from fdzring.intlinalg import IntMatrix, row_times_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from oracles import (
    NAMED_RINGS,
    ReferenceDeformationContext,
    TableCocycle,
    built_rings,
    cocycle_pair_add,
    corpus_ring,
    corpus_rings,
    element_order,
    k_to_ambient,
    random_finite_ring,
    random_lattice_preserving_unimodular,
    random_mixed_ring,
    random_ring_of_rank,
    random_ring_over,
    reference_deformation_closing,
    reference_sixterm,
    table_cocycle_defect,
    table_ext_classes,
    table_is_coboundary,
    transport,
)


def test_cyclic_cocycle_values():
    c = cyclic_cocycle(2, (1,), (0,))
    assert c.evaluate((1,), (1,)) == (1,)
    assert c.evaluate((0,), (1,)) == (0,)
    unit_order = cyclic_cocycle(1, (7,), (0,))
    assert unit_order.evaluate((0,), (0,)) == (0,)
    c3 = cyclic_cocycle(3, (1,), (5,))
    hits = {(i, j) for i in range(3) for j in range(3) if any(c3.evaluate((i,), (j,)))}
    assert hits == {(1, 2), (2, 1), (2, 2)}


def test_cyclic_cocycles_satisfy_identity():
    for e in range(1, 7):
        for target in ((0,), (4,), (2, 3)):
            value = tuple(1 if i == 0 else 2 for i in range(len(target)))
            c = TableCocycle.of(cyclic_cocycle(e, value, target))
            assert table_cocycle_defect(c) is None


def test_cocycle_analyze_classes():
    # d outside 2D: not a coboundary
    analysis = cocycle_analyze(cyclic_cocycle(2, (1,), (0,)))
    assert not analysis.is_coboundary and analysis.ext_classes == ((1,),)
    # d = 2d' is a shift
    analysis = cocycle_analyze(cyclic_cocycle(2, (2,), (0,)))
    assert analysis.is_coboundary
    analysis = cocycle_analyze(zero_cocycle((4,), (2,)))
    assert analysis.is_coboundary and analysis.ext_classes == ((0,),)


def test_cocycle_analyze_table_matches_cyclic():
    cocycles = [cyclic_cocycle(e, (d,), (4,)) for e in (2, 3, 4) for d in range(4)]
    # several factors: the value at (x, y) sums the values of the factors that wrap
    rng = random.Random(58)
    for source in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)):
        for target in ((4,), (2, 2), (6,)):
            target_elements = list(FgAbelianGroup.from_orders(target).elements())
            values = [rng.choice(target_elements) for _ in source]
            cocycles.append(SymmetricCocycle(source, target, cyclic_values=values))
    for c in cocycles:
        t = TableCocycle.of(c)
        a_c = cocycle_analyze(c)
        assert table_cocycle_defect(t) is None, c.cyclic_values
        assert a_c.is_coboundary == table_is_coboundary(t), c.cyclic_values
        assert a_c.ext_classes == table_ext_classes(t), c.cyclic_values


def test_table_oracle_refuses_broken_tables():
    def table(orders, target, value):
        elements = list(FgAbelianGroup.from_orders(orders).elements())
        values = {(x, y): value(x, y) for x in elements for y in elements}
        return TableCocycle(orders, target, values)

    # the bilinear form x0·y1 on (Z/2)^2 is normalized and meets the
    # three-term identity, but c(e0, e1) = 1 while c(e1, e0) = 0
    asymmetric = table((2, 2), (2,), lambda x, y: (x[0] * y[1],))
    assert table_cocycle_defect(asymmetric) == "not symmetric"
    # the constant 1 on Z/2 is symmetric and meets the three-term identity,
    # but c(0, x) = 1
    constant = table((2,), (2,), lambda x, y: (1,))
    assert table_cocycle_defect(constant) == "not normalized"
    # symmetric and normalized, but at (1, 1, 2) on Z/3:
    # c(1, 1) + c(2, 2) = 1 while c(1, 2) + c(1, 0) = 0
    lone = table((3,), (3,), lambda x, y: (int(x == y == (1,)),))
    assert table_cocycle_defect(lone) == "three-term identity fails"
    # while the staircase on the same group passes
    assert table_cocycle_defect(TableCocycle.of(cyclic_cocycle(3, (1,), (3,)))) is None


def test_table_requires_finite_source():
    with pytest.raises(ValueError, match="finite source"):
        TableCocycle((0,), (2,), {((0,), (0,)): (0,)})


def test_cocycles_and_specs_compare_by_value():
    w = corpus_ring("w")
    ctx = DeformationContext(w)
    g1 = ctx.ambient_annihilator_cocycle(0, (0, 1, 0))
    g2 = ctx.ambient_annihilator_cocycle(0, (0, 1, 0))
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert g1 != zero_cocycle(ctx.n_orders, ctx.d_orders)
    specs = {DeformationSpec(base=w, g=g1), DeformationSpec(base=corpus_ring("w"), g=g2)}
    assert len(specs) == 1
    assert DeformationSpec(base=w, g=g1) != DeformationSpec(base=w)
    # equal normal forms are equal cocycles: values reduce modulo the target
    # orders, and the fields become tuples of ints
    c = SymmetricCocycle((2, 3), (0, 4), cyclic_values=[(1, 5), (-2, -1)])
    assert c == SymmetricCocycle([2, 3], [0, 4], [[1, 1], [-2, 3]])
    assert c.cyclic_values == ((1, 1), (-2, 3)) and c.source_orders == (2, 3)
    assert c != SymmetricCocycle((2, 3), (0, 4), [(1, 1), (-2, 2)])
    assert len({c, cyclic_cocycle(2, (1,), (2,)), cyclic_cocycle(2, (3,), (2,))}) == 2


def test_infinite_factor_value_must_vanish():
    with pytest.raises(CocycleError):
        SymmetricCocycle((0,), (0,), cyclic_values=[(1,)])


def test_cocycle_values_of_the_wrong_length_are_refused():
    # each value has one coordinate per target factor: a longer one is not
    # cut to fit, and a shorter one does not reach the Hermite layer
    with pytest.raises(CocycleError):
        SymmetricCocycle((2,), (0,), [(1, 7, 9)])
    with pytest.raises(CocycleError):
        SymmetricCocycle((2,), (0, 4), [(1,)])
    ctx = DeformationContext(corpus_ring("w"))
    assert (ctx.n_orders, ctx.d_orders) == ((2,), (0, 0, 2))
    with pytest.raises(CocycleError):
        ctx.build(SymmetricCocycle(ctx.n_orders, ctx.d_orders, [(1,)]))


def test_extension_examples():
    ext = build_group_extension(cyclic_cocycle(2, (1,), (0,)))
    assert ext.group.invariant_factors == (0,)
    kernel_image = ext.group.subgroup(list(ext.embed_target.data))
    assert kernel_image.index() == 2

    ext = build_group_extension(cyclic_cocycle(2, (1,), (2,)))
    assert ext.group.invariant_factors == (4,)
    assert element_order(ext.group, (1, 0)) == 4

    ext = build_group_extension(zero_cocycle((2,), (2,)))
    assert ext.group.invariant_factors == (2, 2)


def test_extension_order_and_kernel():
    for e in (2, 3, 4):
        for d_orders in ((2,), (4,), (2, 2)):
            value = tuple(1 for _ in d_orders)
            ext = build_group_extension(cyclic_cocycle(e, value, d_orders))
            d_order = 1
            for d in d_orders:
                d_order *= d
            assert ext.group.order == e * d_order
            # the embedded target is exactly the kernel of the projection
            kernel_rows = []
            group, basis = ext.group.full_subgroup().as_group()
            for coords in group.elements():
                vec = ext.group.reduce(row_times_matrix(coords, basis))
                if not any(row_times_matrix(vec, ext.project_source)):
                    kernel_rows.append(vec)
            embedded = ext.group.subgroup(list(ext.embed_target.data))
            assert ext.group.subgroup(kernel_rows) == embedded


def test_group_extension_relations_are_the_e_fold_sums():
    # e_i·g_i = beta_i, where beta_i is what adding (g_i, 0) to itself e_i
    # times leaves in the target; order-1 factors leave nothing
    rng = random.Random(60)
    for e in range(1, 9):
        for target in ((0,), (5,), (0, 4), (2, 6), (3, 0, 9)):
            rt = len(target)
            for _ in range(3):
                source = (e,) + tuple(rng.choice((0, 1, 2, 3, 5)) for _ in range(rng.randint(0, 2)))
                rs = len(source)
                values = [[rng.randint(-7, 7) if d else 0 for _ in target] for d in source]
                c = SymmetricCocycle(source, target, cyclic_values=values)
                rows = [[0] * rs + [d * int(j == k) for j in range(rt)] for k, d in enumerate(target)]
                for i, d in enumerate(source):
                    gen = tuple(int(j == i) for j in range(rs))
                    acc = ((0,) * rs, (0,) * rt)
                    for _ in range(d):
                        acc = cocycle_pair_add(c, acc, (gen, (0,) * rt))
                    assert not any(acc[0])
                    rows.append([d * x for x in gen] + [-v for v in acc[1]])
                expected = FgAbelianGroup(rs + rt, rows)
                assert build_group_extension(c).group == expected, c.cyclic_values


def test_ext_classification_against_brute_force():
    for e in (2, 3, 4):
        for d_orders in ((2,), (4,), (8,), (2, 2), (2, 4), (3,), (6,)):
            target = FgAbelianGroup.from_orders(d_orders)
            elements = list(target.elements())
            for d1, d2 in itertools.product(elements, repeat=2):
                c1 = cyclic_cocycle(e, d1, d_orders)
                c2 = cyclic_cocycle(e, d2, d_orders)
                same_class = (
                    cocycle_analyze(c1).ext_classes == cocycle_analyze(c2).ext_classes
                )
                # brute force: an equivalence fixing the kernel and inducing
                # the identity on the quotient shifts the section by some
                # kernel element
                gen = (1,)
                equivalent = False
                for delta in elements:
                    acc = (tuple([0]), tuple([0] * len(d_orders)))
                    for _ in range(e):
                        acc = cocycle_pair_add(c2, acc, (gen, delta))
                    assert not any(acc[0])
                    # compare against the relation constant of the first
                    # extension, computed the same concrete way
                    base = (tuple([0]), tuple([0] * len(d_orders)))
                    for _ in range(e):
                        base = cocycle_pair_add(c1, base, (gen, tuple([0] * len(d_orders))))
                    if target.reduce(
                        [a - b for a, b in zip(acc[1], base[1])]
                    ) == target.zero():
                        equivalent = True
                        break
                assert equivalent == same_class, (e, d_orders, d1, d2)


def test_trivial_deformations_isomorphic():
    for name in NAMED_RINGS:
        base = corpus_ring(name)
        result = build_deformation(DeformationSpec(base=base))
        res = iso_search(base, result.ring, coeff_bound=5)
        assert res.kind == "yes", name


def test_trivial_deformations_random_finite():
    rng = random.Random(55)
    for _ in range(15):
        base = random_finite_ring(rng, max_order=12)
        result = build_deformation(DeformationSpec(base=base))
        # finite searches are exhaustive, so a miss here would be definitive
        assert iso_search(base, result.ring).kind == "yes", base


def test_trivial_deformations_random_mixed_profiles():
    rng = random.Random(56)
    for _ in range(15):
        base = random_mixed_ring(rng)
        result = build_deformation(DeformationSpec(base=base))
        assert (
            invariant_profile(base).first_mismatch(invariant_profile(result.ring))
            is None
        ), base


def test_deformation_annihilator_contains_designated():
    for name in ("z", "w"):
        result = build_deformation(DeformationSpec(base=corpus_ring(name)))
        chain = characteristic_ideals(result.ring)
        for row in result.annihilator_embedding.data:
            assert chain.ann.contains(row)


def test_w_deformation_suite():
    w = corpus_ring("w")
    ctx = DeformationContext(w)
    assert ctx.n_orders == (2,)
    g = ctx.ambient_annihilator_cocycle(0, (0, 1, 0))
    result = build_deformation(DeformationSpec(base=w, g=g))
    deformed = result.ring
    assert invariant_profile(w).first_mismatch(invariant_profile(deformed)) is None
    verdict = equivalence_verdict(w, deformed)
    assert verdict.kind != "not_equivalent"
    report = verify_sixterm(w, deformed)
    assert report.status == "commutes"


def test_coordinate_round_trips():
    # k = delta ⊕ A0 and ann = A0 ⊕ O, so reduced coordinates are unique
    import random

    from oracles import random_mixed_ring

    rng = random.Random(57)
    rings = [(name, corpus_ring(name)) for name in NAMED_RINGS]
    rings += [(f"mixed {i}", random_mixed_ring(rng)) for i in range(12)]
    checked = 0
    for name, ring in rings:
        try:
            ctx = DeformationContext(ring)
        except DeformationError:
            continue
        checked += 1
        kr = len(ctx.k_orders)

        def shifted(vec):
            return tuple(v + rng.randint(-2, 2) * d for v, d in zip(vec, ring.orders))

        for x in itertools.product(range(-1, 3), repeat=min(kr, 3)):
            kvec = tuple(
                v % d if d else v for v, d in zip(x + (0,) * (kr - len(x)), ctx.k_orders)
            )
            ambient = k_to_ambient(ctx, kvec)
            assert ctx.ambient_to_k(ambient) == kvec, name
            # the same element, written off its canonical representative
            assert ctx.ambient_to_k(shifted(ambient)) == kvec, name
        # the d-coordinates are read over the addition basis, then o's lifts
        o_lift = subring_presentation(ring, ctx.chain.o_ideal).lift
        assert ctx.d_basis.data == ctx.addition_basis.data + o_lift.data, name
        for i, row in enumerate(ctx.d_basis.data):
            unit = tuple(int(j == i) for j in range(len(ctx.d_orders)))
            assert ctx.ambient_to_d(row) == unit, name
            assert ctx.ambient_to_d(shifted(row)) == unit, name
    assert checked


def test_independence_hypothesis_can_refuse_the_zero_cocycle():
    # the zero-cocycle deformation of a ring is the ring itself, but its beta
    # addition invariant is 5, so the construction's hypothesis fails mod 5
    ring = FdzRing(
        (0, 0, 3, 6),
        [
            [[2, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]],
            [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 3], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 1, 4]],
        ],
    )
    with pytest.raises(DeformationError, match="hypothesis of the construction fails modulo 5"):
        build_deformation(DeformationSpec(base=ring))


@pytest.mark.parametrize("bound", [0, -3])
def test_sixterm_rejects_a_bound_below_one(bound):
    w = corpus_ring("w")
    with pytest.raises(ValueError, match="coeff_bound"):
        verify_sixterm(w, w, coeff_bound=bound)


def test_w_deformation_value_must_be_annihilator():
    ctx = DeformationContext(corpus_ring("w"))
    with pytest.raises(DeformationError):
        ctx.ambient_annihilator_cocycle(0, (1, 0, 0))


def test_deformation_spec_validation():
    w = corpus_ring("w")
    ctx = DeformationContext(w)
    bad_g = zero_cocycle((3,), ctx.d_orders)
    with pytest.raises(DeformationError):
        build_deformation(DeformationSpec(base=w, g=bad_g))


def test_sixterm_reflexive_and_deformed():
    for name in ("z", "w"):
        ring = corpus_ring(name)
        assert verify_sixterm(ring, ring).status == "commutes"
    w = corpus_ring("w")
    trivial = build_deformation(DeformationSpec(base=w)).ring
    assert verify_sixterm(w, trivial).status == "commutes"


def test_sixterm_commutes_for_corpus_deformations():
    for name in NAMED_RINGS:
        base = corpus_ring(name)
        deformed = build_deformation(DeformationSpec(base=base)).ring
        assert verify_sixterm(base, deformed).status == "commutes", name


def test_sixterm_negative_control():
    w = corpus_ring("w")
    # corrupt the tensor: make the square land outside the torsion
    corrupted = FdzRing(
        (0, 0, 2),
        (
            ((0, 2, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ),
    )
    report = verify_sixterm(w, corrupted)
    assert report.status == "no"
    assert "invariants differ" in report.detail


def test_sixterm_reports_inner_budget_exhaustion():
    # (Z/2)^5 with e1·e1 = e2: the annihilator quotient is Z/2, so the outer
    # search over it completes in one node, while delta is the whole ring
    # and its compatible isomorphism lies past the first few hundred nodes
    tensor = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    tensor[0][0][1] = 1
    ring = FdzRing((2,) * 5, tensor)
    hat = characteristic_ideals(ring).hat.ring
    assert hat.orders == (2,)
    assert None not in list(_iso_witnesses(hat, hat, 5, 400))
    report = verify_sixterm(ring, ring, max_nodes=400)
    assert report.status == "unknown"
    assert report.detail == "search budget exhausted"
    assert verify_sixterm(ring, ring).status == "commutes"


def _sixterm_traced(a, b, max_nodes):
    """``verify_sixterm(a, b)``'s report, and each line of its source that
    ran, as the stripped text of the line before it."""
    lines, first = inspect.getsourcelines(verify_sixterm)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is verify_sixterm.__code__:
            if event == "line":
                ran.add(frame.f_lineno)
            return trace
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        report = verify_sixterm(a, b, max_nodes=max_nodes)
    finally:
        sys.settrace(previous)
    return report, {lines[n - first - 1].strip() for n in ran}


def _pair(orders, *products):
    """A ring with the given orders and products ((i, j), value), 1-based."""
    n = len(orders)
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), value in products:
        tensor[i - 1][j - 1] = list(value)
    return FdzRing(orders, tensor)


COMMUTES = ("commutes", "all three squares commute")
BUDGET = ("unknown", "search budget exhausted")
SIXTERM_PATHS = [
    # Z + Z/4 with e2·e1 = 2e2 against itself: the first phi moves the image
    # of k, and a later one commutes
    ("k_image", _pair((0, 4), ((2, 1), (0, 2))), None, 3000, "if not all(k_image_b.contains", COMMUTES),
    # Z + Z/3 with e1·e1 = e2 = e2·e1, against e1·e1 = 2e2: a psi that
    # fails the middle square comes before one that passes
    (
        "middle_square",
        _pair((0, 3), ((1, 1), (0, 1)), ((2, 1), (0, 1))),
        _pair((0, 3), ((1, 1), (0, 2)), ((2, 1), (0, 1))),
        3000,
        "if [hat_b.reduce(row) for row in psi.mul(delta_to_hat_b).data]",
        COMMUTES,
    ),
    ("phi_budget", corpus_ring("zx2"), None, 5, "if phi is None:", BUDGET),
    ("psi_budget", corpus_ring("w_mod2"), None, 2, "if psi is None:", BUDGET),
    # x·x = -x against x·x = -2x, beside Z/3: equal chain invariants, not
    # isomorphic, and every candidate is tried within the budget
    (
        "no_compatible",
        _pair((0, 3), ((1, 1), (-1, 0))),
        _pair((0, 3), ((1, 1), (-2, 0))),
        3000,
        None,
        ("unknown", "no compatible isomorphism found within the coefficient bound"),
    ),
]


@pytest.mark.parametrize(
    "a, b, max_nodes, guard, expected",
    [case[1:] for case in SIXTERM_PATHS],
    ids=[case[0] for case in SIXTERM_PATHS],
)
def test_sixterm_rejection_paths(a, b, max_nodes, guard, expected):
    # the final report's detail names its path; the others are told apart
    # by the statement after their guard
    report, ran_after = _sixterm_traced(a, a if b is None else b, max_nodes)
    assert (report.status, report.detail) == expected
    assert guard is None or any(text.startswith(guard) for text in ran_after)


def _sixterm_pairs(rng):
    """Each base against itself, its zero-cocycle deformation (where the
    construction applies), a transport of itself and a random ring on the
    same orders; the bases are the corpus and seeded random rings."""
    bases = corpus_rings()
    bases += [random_mixed_ring(rng) for _ in range(16)]
    bases += [random_finite_ring(rng, max_order=12) for _ in range(8)]
    bases += [random_ring_of_rank(rng, rng.randint(2, 4)) for _ in range(8)]
    pairs = []
    for a in bases:
        pairs.append((a, a))
        try:
            pairs.append((a, build_deformation(DeformationSpec(base=a)).ring))
        except DeformationError:
            pass
        pairs.append((a, transport(a, *random_lattice_preserving_unimodular(rng, a.orders))))
        pairs.append((a, random_ring_over(rng, a.orders)))
    return pairs


def _transported(orders, products, t, tinv):
    """A ring given as for ``_pair`` and its transport by the base change t."""
    a = _pair(orders, *products)
    return a, transport(a, IntMatrix(t, cols=len(orders)), IntMatrix(tinv, cols=len(orders)))


# transported pairs on which a phi fails the k-image prefilter (both) and a
# psi fails the middle square (the second) before a later pair commutes
PREFILTER_PAIRS = [
    # Z^2 + Z/4 with e2·e3 = 2e3
    _transported((0, 0, 4), [((2, 3), (0, 0, 2))], [[1, 0, -2], [0, 1, 1], [0, 0, 1]],
                 [[1, 0, 2], [0, 1, -1], [0, 0, 1]]),
    # Z + (Z/2)^2 with e1·e3 = e2
    _transported((0, 2, 2), [((1, 3), (0, 1, 0))], [[1, 0, -1], [0, 1, 0], [0, 2, 1]],
                 [[1, -2, 1], [0, 1, 0], [0, -2, 1]]),
]


def test_sixterm_matches_the_reference_with_its_rechecks():
    # the maps on A/k and on o are induced by phi and psi; the reference
    # still builds and re-checks them, and every report must agree
    pairs = _sixterm_pairs(random.Random(30)) + PREFILTER_PAIRS
    mine = [verify_sixterm(a, b, max_nodes=2000) for a, b in pairs]
    theirs = [reference_sixterm(a, b, max_nodes=2000) for a, b in pairs]
    assert len(pairs) >= 130
    assert [(r.status, r.detail) for r in mine] == [(r.status, r.detail) for r in theirs]
    assert {r.status for r in mine} == {"commutes", "no", "unknown"}
    # the pairs run both rejections inside the search: each guard is the
    # line before a ``continue`` that ran
    ran = set().union(*(_sixterm_traced(a, b, 2000)[1] for a, b in PREFILTER_PAIRS))
    for guard in ("if not all(k_image_b.contains", "if [hat_b.reduce(row) for row in psi"):
        assert any(text.startswith(guard) for text in ran), guard


def _chain_rings(*rings) -> set[int]:
    """The ids of the rings A/ann and delta on the chains of ``rings``."""
    chains = [characteristic_ideals(ring) for ring in rings]
    return {id(r) for c in chains for r in (c.hat.ring, c.delta_pres.ring)}


def test_sixterm_builds_no_presentation_of_o_or_a_mod_k():
    # every ring built during the call, on fresh chains, is A/ann or delta
    # of a chain, so none is a multiplication table for sq, o, the addition
    # A0 or A/k; and the call still decides: each corpus ring commutes with
    # itself and its zero deformation at the default budget, and the other
    # bases get the reference's report at 2,000 nodes
    rng = random.Random(33)
    others = [random_mixed_ring(rng) for _ in range(12)] + [a for a, _ in PREFILTER_PAIRS]
    cases = [(ring, {}) for ring in corpus_rings()] + [(ring, {"max_nodes": 2000}) for ring in others]
    for base, budget in cases:
        characteristic_ideals.cache_clear()
        with built_rings() as built:
            DeformationContext(base)
        assert built and {id(r) for r in built} <= _chain_rings(base), base
        try:
            deformed = build_deformation(DeformationSpec(base=base)).ring
        except DeformationError:
            assert budget, base
            deformed = base
        for b in (base, deformed):
            characteristic_ideals.cache_clear()
            with built_rings() as built:
                report = verify_sixterm(base, b, **budget)
            assert built and {id(r) for r in built} <= _chain_rings(base, b), base
            if budget:
                expected = reference_sixterm(base, b, **budget)
                assert (report.status, report.detail) == (expected.status, expected.detail), base
            else:
                assert report.status == "commutes", base


def _random_annihilator_cocycle(rng, ctx):
    """A cocycle on the torsion quotient whose values are random elements of
    the annihilator."""
    values = []
    for _ in ctx.n_orders:
        vec = [0] * ctx.base.rank
        for row in ctx.chain.ann.lift_basis:
            c = rng.randint(-2, 2)
            vec = [a + c * b for a, b in zip(vec, row)]
        values.append(ctx.ambient_to_d(vec))
    return SymmetricCocycle(ctx.n_orders, ctx.d_orders, cyclic_values=values)


def _deformation_outcome(ctx, g):
    try:
        result = ctx.build(g)
    except DeformationError as exc:
        return str(exc)
    return result.ring, result.annihilator_embedding


def test_deformation_matches_the_chain_presentations():
    # the context reads o, A0 and A/k as groups and carries d into k through
    # A; the reference reads them as rings and goes through o in delta
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(7)
    rings = corpus_rings() + [FdzRing(*random_ring_data(rng, rng.randint(2, 5))) for _ in range(160)]
    twisted = refused = 0
    for ring in rings:
        ctx, ref = DeformationContext(ring), ReferenceDeformationContext(ring)
        assert (ctx.d_orders, ctx.k_orders) == (ref.d_orders, ref.k_orders), ring
        for unit in IntMatrix.identity(len(ctx.d_orders)).data:
            assert ctx.d_to_k(unit) == ref.d_to_k(unit), ring
        assert (ctx.free_section, ctx.n_orders, ctx.n_lift_ambient) == (
            ref.free_section, ref.n_orders, ref.n_lift_ambient
        ), ring
        # one draw of annihilator elements, read in d-coordinates by both
        twin = random.Random()
        twin.setstate(rng.getstate())
        g = _random_annihilator_cocycle(rng, ctx)
        assert g == _random_annihilator_cocycle(twin, ref), ring
        for cocycle in (None, g):
            outcome = _deformation_outcome(ctx, cocycle)
            assert outcome == _deformation_outcome(ref, cocycle), ring
            refused += isinstance(outcome, str)
        twisted += any(map(any, g.cyclic_values))
    assert twisted >= 10 and refused >= 10, (twisted, refused)


def test_deformation_relations_match_the_transversal_loop(monkeypatch):
    # the closed form beta_i = k(e_i·t_i) + d_i against the e-step sum of
    # transversal defects and cocycle values, on the corpus, the search
    # workload's deformation catalog and seeded rings with random g
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rings = [corpus_ring(name) for name in NAMED_RINGS]
    catalog = workloads.catalog(workloads.DEFORM_CATALOG_SEED, workloads.DEFORM_RANKS)
    rings += [FdzRing(*data) for data in catalog]
    rng = random.Random(61)
    rings += [FdzRing(*random_ring_data(rng, rng.randint(2, 6))) for _ in range(220)]
    specs = []
    for ring in rings:
        ctx = DeformationContext(ring)
        for g in (zero_cocycle(ctx.n_orders, ctx.d_orders), _random_annihilator_cocycle(rng, ctx)):
            assert ctx.extension_betas(g) == reference_deformation_closing(ctx, g), ring
            specs.append(DeformationSpec(base=ring, g=g))
    closed = [_deformation_outcome(DeformationContext(spec.base), spec.g) for spec in specs]
    monkeypatch.setattr(DeformationContext, "extension_betas", reference_deformation_closing)
    looped = [_deformation_outcome(DeformationContext(spec.base), spec.g) for spec in specs]
    assert closed == looped
    twisted = sum(1 for spec in specs if spec.g is not None and any(map(any, spec.g.cyclic_values)))
    refused = sum(1 for outcome in closed if isinstance(outcome, str))
    # of the 460 specs, 36 carry a nonzero twist and 27 are refused
    assert twisted >= 30 and refused >= 20
