import itertools
import os
import random
import sys
from collections import Counter
from math import isqrt

import pytest

import fdzring.eqcheck as eqcheck
from fdzring.corpus import NAMED_RINGS, twoz_ring, w_ring, z_ring, zx2_ring
from fdzring.deform import DeformationSpec, build_deformation
from fdzring.eqcheck import (
    SEEDED_POOL_LIMIT,
    SearchPoolError,
    _candidate_images,
    _extends_to_basis,
    _FoldedLevel,
    _iso_witnesses,
    _LazyPool,
    _search,
    equivalence_verdict,
    invariant_profile,
    iso_search,
    verify_embedding,
    verify_iso_witness,
)
from fdzring.intlinalg import IntMatrix, hermite_rows
from fdzring.ringfile import load_ring
from fdzring.rings import FdzRing, characteristic_ideals, direct_product, transport, z0_ring

from oracles import (
    brute_force_isomorphic,
    maximal_minors_gcd,
    pair_checks_at,
    pair_checks_ok,
    profile_fingerprints_oracle,
    random_finite_ring,
    random_lattice_preserving_unimodular,
    random_ring_of_rank,
    random_ring_over,
    reference_iso_witnesses,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _corpus_rings() -> list[FdzRing]:
    """Every ring under ``corpus/``, in file-name order."""
    folder = os.path.join(ROOT, "corpus")
    return [load_ring(os.path.join(folder, name)) for name in sorted(os.listdir(folder))]


def _twisted_w() -> FdzRing:
    """W in permuted, sheared coordinates."""
    return FdzRing(
        (2, 0, 0),
        (
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ),
    )


def test_profile_reflexive():
    for builder in NAMED_RINGS.values():
        p = invariant_profile(builder())
        assert p.first_mismatch(p) is None


def test_profile_separations():
    pz = invariant_profile(z_ring())
    assert pz.first_mismatch(invariant_profile(twoz_ring())) == "mod_square"
    assert pz.first_mismatch(invariant_profile(z0_ring())) == "ann"
    p2 = invariant_profile(twoz_ring())
    p3 = invariant_profile(FdzRing((0,), (((3,),),)))
    assert p2.first_mismatch(p3) is not None


def test_closed_form_fingerprints_match_the_subgroup_oracle():
    corpus = _corpus_rings()
    rng = random.Random(23)
    generated = [random_ring_of_rank(rng, 2 + n % 6) for n in range(210)]
    # the square's lift basis holds the relations, so it is empty only for
    # a free ring with zero square
    zero_square = FdzRing((0, 0), [[[0] * 2] * 2] * 2)
    torsion_zero_square = FdzRing((0, 4, 6), [[[0] * 3] * 3] * 3)
    rank_zero = FdzRing((), ())
    rings = corpus + [direct_product(z0_ring(), r) for r in corpus] + generated
    rings += [zero_square, torsion_zero_square, rank_zero]
    assert not characteristic_ideals(zero_square).sq.lift_basis
    assert any(r.rank == 7 and 0 < r.orders.count(0) < 7 for r in generated)
    for ring in rings:
        assert invariant_profile(ring).fingerprints == profile_fingerprints_oracle(ring), ring


def test_profile_invariants_match_the_presented_groups():
    # every field is read off a transform-free Smith diagonal; the diagonal
    # presentations of the same groups, built on Smith with transforms,
    # must agree
    corpus = _corpus_rings()
    rng = random.Random(43)
    generated = [random_ring_of_rank(rng, 1 + n % 7) for n in range(100)]
    rings = corpus + [direct_product(z0_ring(), r) for r in corpus] + generated
    rings.append(FdzRing((), ()))
    for ring in rings:
        chain = characteristic_ideals(ring)
        profile = invariant_profile(ring)
        for name, field in (
            ("ann", "ann"), ("sq", "square"), ("delta", "delta"), ("k_ideal", "k_ideal"),
            ("l_ideal", "l_ideal"),
        ):
            group = getattr(chain, name).as_group()[0]
            assert getattr(profile, field) == group.diagonal.orders, (ring, name)
        assert profile.additive == ring.additive.diagonal.orders
        assert profile.m_quot == chain.m_quot.diagonal.orders
        assert profile.n_quot == chain.n_quot.diagonal.orders
        assert profile.mod_square == chain.sq.quotient().diagonal.orders


def _profile_pairs() -> list[tuple[FdzRing, FdzRing]]:
    """Seeded pairs: unrelated rings, rings over equal orders, transports."""
    rng = random.Random(31)
    pairs = []
    for n in range(60):
        rank = 2 + n % 4
        a = random_ring_of_rank(rng, rank)
        pairs.append((a, random_ring_of_rank(rng, rank)))
        pairs.append((a, random_ring_over(rng, a.orders)))
        t, tinv = random_lattice_preserving_unimodular(rng, a.orders)
        pairs.append((a, transport(a, t, tinv)))
    corpus = _corpus_rings()
    return pairs + [(a, b) for a in corpus for b in corpus]


def test_padding_keeps_profile_equality():
    # the profile of Z0 x X is a function of the profile of X, so one
    # comparison before the padded search decides both
    equal = unequal = equal_orders_unequal = 0
    for a, b in _profile_pairs():
        same = invariant_profile(a) == invariant_profile(b)
        pa, pb = (invariant_profile(direct_product(z0_ring(), r)) for r in (a, b))
        assert (pa == pb) == same, (a, b)
        equal += same
        unequal += not same
        equal_orders_unequal += a.orders == b.orders and not same
    assert equal >= 60 and unequal >= 60 and equal_orders_unequal >= 10


def test_equivalence_verdict_matches_the_padded_iso_search():
    kinds = {"yes": "equivalent", "no": "not_equivalent", "unknown": "unknown"}
    outcomes = set()
    corpus = _corpus_rings()
    assert len(corpus) == 8
    for a in corpus:
        for b in corpus:
            for seed in range(4):
                old = iso_search(
                    direct_product(z0_ring(), a),
                    direct_product(z0_ring(), b),
                    max_nodes=2_000,
                    seed=seed,
                )
                new = equivalence_verdict(a, b, max_nodes=2_000, seed=seed)
                assert new.kind == kinds[old.kind], (a, b, seed)
                assert new.reason == old.reason and new.witness == old.witness
                outcomes.add(new.kind)
    assert outcomes == {"equivalent", "not_equivalent", "unknown"}


def test_equivalence_verdict_builds_two_profiles_and_no_padded_chain():
    w, twisted = w_ring(), _twisted_w()
    assert w != twisted
    invariant_profile.cache_clear()
    characteristic_ideals.cache_clear()
    assert equivalence_verdict(w, twisted).kind == "equivalent"
    assert invariant_profile.cache_info().misses == 2
    assert characteristic_ideals.cache_info().currsize == 2
    characteristic_ideals(w)
    characteristic_ideals(twisted)
    assert characteristic_ideals.cache_info().currsize == 2


def test_padded_search_never_refutes():
    # a padded ring has a free generator, so even a search that runs out of
    # candidates on two non-isomorphic rings is not exhaustive
    zero, unit = FdzRing((2,), (((0,),),)), FdzRing((2,), (((1,),),))
    assert _search(zero, unit, 5, 150_000, 0).kind == "no"
    z0 = z0_ring()
    padded = _search(direct_product(z0, zero), direct_product(z0, unit), 5, 150_000, 0)
    assert padded.kind == "unknown" and padded.reason == "bounded search exhausted"


def test_finite_pair_refuted_by_exhausted_padded_search():
    f2 = FdzRing((2,), (((1,),),))
    f2xf2 = direct_product(f2, f2)
    # F4 = F2[x]/(x^2 + x + 1) on the basis 1, x
    f4 = FdzRing((2, 2), (((1, 0), (0, 1)), ((0, 1), (1, 1))))
    assert invariant_profile(f4) == invariant_profile(f2xf2)
    for seed in range(3):
        for bound in (1, 5):
            res = equivalence_verdict(f4, f2xf2, coeff_bound=bound, seed=seed)
            assert res.kind == "not_equivalent" and "isomorphi" in res.reason
            assert equivalence_verdict(f4, f4, coeff_bound=bound, seed=seed).kind == "equivalent"
    # running out of budget is never a refutation
    assert equivalence_verdict(f4, f2xf2, max_nodes=3).kind == "unknown"


def test_finite_verdicts_agree_with_brute_force_isomorphism():
    rng = random.Random(47)
    kinds = Counter()
    for n in range(150):
        a = random_finite_ring(rng)
        if n % 3 == 2:
            b = transport(a, *random_lattice_preserving_unimodular(rng, a.orders))
        else:
            b = random_ring_over(rng, a.orders)
        if invariant_profile(a) != invariant_profile(b):
            continue
        res = equivalence_verdict(a, b, max_nodes=20_000)
        assert res.kind in ("equivalent", "not_equivalent"), (a, b, res)
        assert (res.kind == "equivalent") == brute_force_isomorphic(a, b), (a, b)
        kinds[res.kind] += 1
    assert kinds["equivalent"] >= 20 and kinds["not_equivalent"] >= 10, kinds


def test_iso_search_identity_and_null():
    for builder in NAMED_RINGS.values():
        ring = builder()
        res = iso_search(ring, ring)
        assert res.kind == "yes"
        assert res.witness is not None and res.witness.verified
        assert verify_iso_witness(ring, ring, res.witness.matrix)
    null2 = direct_product(z0_ring(), z0_ring())
    res = iso_search(null2, null2)
    assert res.kind == "yes"


@pytest.mark.parametrize("bound", [0, -3])
def test_searches_reject_a_bound_below_one(bound):
    # with no free image in range, zx2 against itself would end ``unknown``
    zx2 = zx2_ring()
    with pytest.raises(ValueError, match="coeff_bound"):
        iso_search(zx2, zx2, coeff_bound=bound)
    with pytest.raises(ValueError, match="coeff_bound"):
        equivalence_verdict(zx2, zx2, coeff_bound=bound)


def test_iso_search_profile_refutation():
    res = iso_search(twoz_ring(), FdzRing((0,), (((3,),),)))
    assert res.kind == "no" and "mismatch" in res.reason


def test_iso_search_twisted_presentation():
    # W presented in permuted, sheared coordinates is still found isomorphic
    res = iso_search(w_ring(), _twisted_w())
    assert res.kind == "yes"


def test_embedding_identity_all_corpus():
    for builder in NAMED_RINGS.values():
        ring = builder()
        report = verify_embedding(ring, ring, IntMatrix.identity(ring.rank))
        assert report.passed and report.index == 1


def test_embedding_w_index_three():
    w = w_ring()
    h = IntMatrix([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    report = verify_embedding(w, w, h)
    assert report.passed
    assert report.index == 3
    assert report.torsion_quotient_order == 2


def test_embedding_doubling_fails():
    report = verify_embedding(z_ring(), z_ring(), IntMatrix([[2]]))
    assert not report.passed
    names = {name: ok for name, ok, _ in report.checks}
    assert not names["saturated_square_isomorphism"]
    assert not names["ring_homomorphism"]
    assert names["injective"] and names["finite_index"]


def test_embedding_even_index_fails_coprimality():
    w = w_ring()
    h = IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    report = verify_embedding(w, w, h)
    assert report.index == 2
    names = {name: ok for name, ok, _ in report.checks}
    assert not names["index_coprime"]
    assert not report.passed


def test_embedding_shape_check():
    with pytest.raises(ValueError):
        verify_embedding(z_ring(), z_ring(), IntMatrix([[1, 0]]))


def test_equivalence_examples():
    assert equivalence_verdict(z_ring(), z_ring()).kind == "equivalent"
    res = equivalence_verdict(z_ring(), twoz_ring())
    assert res.kind == "not_equivalent"
    res = equivalence_verdict(z0_ring(), z_ring())
    assert res.kind == "not_equivalent" and "ann" in res.reason


def test_equivalence_symmetric_kind_on_corpus():
    builders = list(NAMED_RINGS.values())
    for i, first in enumerate(builders):
        for second in builders[i:]:
            a, b = first(), second()
            assert (
                equivalence_verdict(a, b, max_nodes=300_000).kind
                == equivalence_verdict(b, a, max_nodes=300_000).kind
            )


def test_unknown_on_budget_exhaustion():
    # identical profiles, but a one-node budget cannot find the identity
    res = iso_search(zx2_ring(), zx2_ring(), max_nodes=1)
    assert res.kind == "unknown"
    verdict = equivalence_verdict(zx2_ring(), zx2_ring(), max_nodes=1)
    assert verdict.kind == "unknown"


def test_self_equivalence_every_seed():
    w = w_ring()
    for seed in range(8):
        assert equivalence_verdict(w, w, seed=seed).kind == "equivalent", seed


def test_extends_to_basis_against_minors_gcd():
    rng = random.Random(11)
    outcomes = []
    for n in range(300):
        f = rng.randint(1, 4)
        k = f if n % 3 == 0 else rng.randint(1, f)
        rows = [[rng.randint(-3, 3) for _ in range(f)] for _ in range(k)]
        if n % 5 == 1:
            rows[rng.randrange(k)] = [0] * f
        elif n % 5 == 2 and k >= 2:
            first, second = rng.sample(range(k), 2)
            rows[second] = [rng.choice((1, -1)) * x for x in rows[first]]
        expected = maximal_minors_gcd(rows, f) == 1
        assert _extends_to_basis(rows, f) == expected, rows
        outcomes.append(expected)
    assert 30 <= sum(outcomes) <= 270
    # unimodular but not triangular, index 2, and more rows than columns
    assert _extends_to_basis([[2, 3], [1, 2]], 2)
    assert not _extends_to_basis([[1, 1], [1, -1]], 2)
    assert not _extends_to_basis([[1], [0]], 1)
    assert not _extends_to_basis([[]], 0)


def _transported_gen_pairs(count: int) -> list[tuple[FdzRing, FdzRing]]:
    """Benchmark-generator rings of rank 2-5, each against a base change."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import base_change, random_ring_data, transport_data
    finally:
        sys.path.pop(0)
    rng = random.Random(5)
    pairs = []
    for n in range(count):
        orders, tensor = random_ring_data(rng, 2 + n % 4)
        t, tinv = base_change(rng, orders)
        moved = transport_data(orders, tensor, t, tinv)
        pairs.append((FdzRing(orders, tensor), FdzRing(orders, moved)))
    return pairs


def test_basis_pruning_keeps_the_witness_sequence(monkeypatch):
    # the pruning only cuts subtrees without a witness, so under one budget
    # the pruned search meets every witness the independence-only search
    # meets, in the same order, and meets them after fewer nodes
    def independent_only(rows, width):
        return len(hermite_rows(rows, width)) == len(rows)

    padded = [direct_product(z0_ring(), b()) for b in NAMED_RINGS.values()]
    pairs = [(r, r) for r in padded] + _transported_gen_pairs(20)
    compared = 0
    for a, b in pairs:
        for seed in range(4):
            # coefficient bound 2 keeps the independence-only leaves cheap
            pruned = list(itertools.islice(_iso_witnesses(a, b, 2, 3_000, seed), 3))
            with monkeypatch.context() as patch:
                patch.setattr(eqcheck, "_extends_to_basis", independent_only)
                plain = list(itertools.islice(_iso_witnesses(a, b, 2, 3_000, seed), 3))
            found = plain[: plain.index(None)] if None in plain else plain
            assert pruned[: len(found)] == found, (a, seed)
            if None not in plain:
                assert pruned == plain, (a, seed)
            compared += len(found)
    assert compared >= 100


def _sixterm_search_pairs() -> list[tuple[FdzRing, FdzRing]]:
    """The A/ann and delta pairs ``verify_sixterm`` searches for each corpus
    ring against its zero-cocycle deformation."""
    pairs = []
    for ring in _corpus_rings():
        deformed = build_deformation(DeformationSpec(base=ring)).ring
        chain_a, chain_b = characteristic_ideals(ring), characteristic_ideals(deformed)
        pairs.append((chain_a.hat.ring, chain_b.hat.ring))
        pairs.append((chain_a.delta_pres.ring, chain_b.delta_pres.ring))
    return pairs


def test_folded_search_matches_the_reference_search():
    # the folded level test accepts exactly what the per-pair checks accept,
    # so under every budget and seed the witnesses, their order and the
    # closing None are those of the per-pair search
    padded = [(direct_product(z0_ring(), r), direct_product(z0_ring(), r)) for r in _corpus_rings()]
    pairs = padded + _transported_gen_pairs(20) + _sixterm_search_pairs()
    witnesses = exhausted = 0
    for a, b in pairs:
        for seed in range(4):
            for budget in (1, 7, 50, 3_000):
                folded = list(_iso_witnesses(a, b, 2, budget, seed))
                assert folded == list(reference_iso_witnesses(a, b, 2, budget, seed)), (a, seed, budget)
                witnesses += len(folded) - (None in folded)
                exhausted += None in folded
    assert witnesses >= 200 and exhausted >= 100, (witnesses, exhausted)


def _drop_square(level: _FoldedLevel) -> _FoldedLevel:
    level.square = ()
    return level


def _fold_disagreements(build) -> tuple[int, Counter]:
    """Compare a level build against the per-pair checks on random prefixes.

    Prefix images are the rows of a known isomorphism, one or all of them
    perturbed or replaced by vectors the search never takes (unreduced
    torsion coordinates, coefficients beyond any bound, wrong orders, zero,
    which makes whole columns of a level constant);
    candidates are the true image, small perturbations of it and random
    vectors.  Returns the number of disagreements and the counts of check
    kinds and outcomes seen.
    """
    rng = random.Random(23)
    seen: Counter = Counter()
    wrong = 0
    for _ in range(60):
        a = random_ring_of_rank(rng, rng.randint(2, 5))
        t, tinv = random_lattice_preserving_unimodular(rng, a.orders)
        b = transport(a, t, tinv)
        h = t if verify_iso_witness(a, b, t) else tinv
        assert verify_iso_witness(a, b, h)
        gen_order = list(range(a.rank))
        rng.shuffle(gen_order)
        checks_at = pair_checks_at(a, gen_order)

        def wild(row):
            choice = rng.random()
            if choice < 0.6:
                return row
            if choice < 0.75:
                return tuple(x + rng.choice((-1, 0, 0, 1)) for x in row)
            if choice < 0.9:
                return tuple(rng.randint(-40, 40) for _ in row)
            return (0,) * len(row)

        for pos, idx in enumerate(gen_order):
            for n in range(6):
                # a true prefix, one changed image, or every image drawn wild
                images = {i: h.row(i) if n < 4 else wild(h.row(i)) for i in gen_order[:pos]}
                if pos and n in (1, 2, 3):
                    changed = rng.choice(gen_order[:pos])
                    images[changed] = wild(images[changed])
                checks = checks_at[pos]
                for p, q, _ in checks:
                    seen["square" if p == q == idx else "one-sided" if idx in (p, q) else "support"] += 1
                level = build(b, idx, checks, images)
                for _ in range(6):
                    cand = wild(h.row(idx))
                    expected = pair_checks_ok(b, checks, {**images, idx: cand})
                    seen[expected] += 1
                    wrong += level.accepts(cand) != expected
    return wrong, seen


def test_folded_level_accepts_exactly_what_the_pair_checks_accept():
    wrong, seen = _fold_disagreements(_FoldedLevel)
    assert wrong == 0
    assert min(seen["square"], seen["one-sided"], seen["support"]) >= 50, seen
    assert min(seen[True], seen[False]) >= 500, seen
    # the comparison sees a build that forgets the quadratic check
    dropped, _ = _fold_disagreements(lambda *args: _drop_square(_FoldedLevel(*args)))
    assert dropped > 0


def test_seeded_pool_guard():
    z = z_ring()
    # padded Z has two free coordinates: (2·bound + 1)^2 candidates
    limit_bound = (isqrt(SEEDED_POOL_LIMIT) - 1) // 2
    assert equivalence_verdict(z, z, coeff_bound=limit_bound, seed=1).kind == "equivalent"
    with pytest.raises(SearchPoolError, match="SEEDED_POOL_LIMIT"):
        equivalence_verdict(z, z, coeff_bound=limit_bound + 1, seed=1)
    zz = direct_product(z, z)
    with pytest.raises(SearchPoolError, match="SEEDED_POOL_LIMIT"):
        iso_search(zz, zz, coeff_bound=limit_bound + 1, seed=2)
    assert issubclass(SearchPoolError, ValueError)
    # seed 0 takes candidates lazily and needs no guard
    assert equivalence_verdict(z, z, coeff_bound=1000).kind == "equivalent"


def test_seeded_ordering_still_finds_witnesses():
    for seed in (0, 1, 7):
        res = iso_search(w_ring(), w_ring(), seed=seed)
        assert res.kind == "yes"
        assert verify_iso_witness(w_ring(), w_ring(), res.witness.matrix)


def test_lazy_candidate_pool_keeps_order_and_stores_only_what_is_taken():
    b = direct_product(w_ring(), z0_ring())
    pool = _LazyPool(_candidate_images(b, 0, 2))
    full = list(_candidate_images(b, 0, 2))
    # nested passes over one pool, as two free generators share it in the DFS
    pairs = [(x, y) for x in itertools.islice(pool, 3) for y in pool]
    assert pairs == [(x, y) for x in full[:3] for y in full]
    counting = _LazyPool(itertools.count())
    assert list(itertools.islice(counting, 4)) == [0, 1, 2, 3]
    assert list(itertools.islice(counting, 2)) == [0, 1]
    assert len(counting._seen) == 4


def test_finite_oracle_agreement():
    rng = random.Random(100)
    rings = [random_finite_ring(rng, max_order=8) for _ in range(12)]
    for i, a in enumerate(rings):
        for b in rings[i:]:
            expected = brute_force_isomorphic(a, b)
            got = iso_search(a, b, coeff_bound=8)
            assert got.kind in ("yes", "no")
            assert (got.kind == "yes") == expected, (a, b)
