import itertools
import os
import random
import sys
from collections import Counter
from math import gcd, isqrt, lcm, prod

import pytest

import fdzring.eqcheck as eqcheck
from fdzring.deform import DeformationSpec, build_deformation
from fdzring.eqcheck import (
    FINGERPRINT_MODULI,
    SEEDED_POOL_LIMIT,
    SearchPoolError,
    _ann_columns,
    _ann_prune,
    _BLOCK_CAP,
    _completes_basis,
    _FoldedLevel,
    _iso_witnesses,
    _linear_ok,
    _padded_ann_prune,
    _ProductPool,
    _search,
    _square_forms,
    equivalence_verdict,
    invariant_profile,
    iso_search,
    verify_embedding,
    verify_iso_witness,
)
from fdzring.intlinalg import (
    IntMatrix, hermite_rows, reduce_mod_orders, right_kernel, row_times_matrix, smith_diagonal,
)
from fdzring.rings import FdzRing, characteristic_ideals, direct_product, z0_ring

from oracles import (
    NAMED_RINGS,
    brute_force_isomorphic,
    candidate_images,
    corpus_ring,
    corpus_rings,
    extends_to_basis,
    full_profile_first_mismatch,
    full_profile_oracle,
    maximal_minors_gcd,
    pair_checks_at,
    pair_checks_ok,
    profile_fingerprints_oracle,
    random_finite_ring,
    random_lattice_preserving_unimodular,
    random_ring_of_rank,
    random_ring_over,
    reference_fingerprints,
    reference_iso_witnesses,
    transport,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


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
    for name in NAMED_RINGS:
        p = invariant_profile(corpus_ring(name))
        assert p.first_mismatch(p) is None


def test_profile_separations():
    pz = invariant_profile(corpus_ring("z"))
    assert pz.first_mismatch(invariant_profile(corpus_ring("twoz"))) == "mod_square"
    assert pz.first_mismatch(invariant_profile(z0_ring())) == "ann"
    p2 = invariant_profile(corpus_ring("twoz"))
    p3 = invariant_profile(FdzRing((0,), (((3,),),)))
    assert p2.first_mismatch(p3) is not None


def _coprime_sum(x: tuple, y: tuple) -> tuple:
    """Invariant factors of G + H from those of G and H of coprime orders:
    align the chains at their largest factor and multiply."""
    width = max(len(x), len(y))
    x, y = (1,) * (width - len(x)) + x, (1,) * (width - len(y)) + y
    return tuple(p * q for p, q in zip(x, y))


def test_closed_form_fingerprints_match_the_subgroup_oracle():
    corpus = corpus_rings()
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
    composite = 0
    for ring in rings:
        profile = invariant_profile(ring)
        oracle = {n: entry for n, *entry in profile_fingerprints_oracle(ring)}
        assert profile.fingerprints == tuple((n, oracle[n][2]) for n in FINGERPRINT_MODULI), ring
        # the entries the profile leaves out follow from the ones it keeps
        for n, (order, quotient, image) in oracle.items():
            assert quotient == tuple(g for g in (gcd(n, e) for e in profile.additive) if g != 1)
            assert order == prod(quotient) == prod(gcd(n, d) for d in ring.orders)
            if n not in FINGERPRINT_MODULI:
                a = next(a for a in FINGERPRINT_MODULI if n % a == 0 and gcd(a, n // a) == 1)
                assert n // a in FINGERPRINT_MODULI
                assert image == _coprime_sum(oracle[a][2], oracle[n // a][2]), (ring, n)
                composite += len(image) > 1
    assert composite > 100


@pytest.mark.parametrize(
    "orders, shared",
    [
        # torsion of 2s and 3s: the moduli 5, 7, 11 and 13 share
        ((2, 3, 4, 6, 0, 0), (5, 7, 11, 13)),
        # torsion 5·7·11·13: the powers of 2 and 3 share
        ((5, 7, 11, 13, 0, 0), (2, 3, 4, 8, 9, 16)),
        # every prime below 16 divides the torsion: none shares
        ((6, 5 * 7 * 11 * 13, 0, 0), ()),
        # no torsion: all share
        ((0, 0, 0, 0), FINGERPRINT_MODULI),
    ],
)
def test_fingerprints_prime_to_the_torsion_share_one_smith(monkeypatch, orders, shared):
    # each fingerprint n prime to the torsion is gcd(e, n) over the integer
    # Smith diagonal of the square's free columns, one diagonal for them
    # all; the others eliminate mod n, and both agree with an elimination
    # mod n for every modulus
    calls = []

    def recording(rows, width, modulus=None):
        calls.append(modulus)
        return smith_diagonal(rows, width, modulus)

    monkeypatch.setattr(eqcheck, "smith_diagonal", recording)
    rng = random.Random(len(orders) + sum(orders))
    r = len(orders)
    # a zero square, and one whose free diagonal holds 35 and a zero
    special = [[[0] * r for _ in range(r)] for _ in range(r)]
    fixed = [FdzRing(orders, special)]
    special[r - 1][r - 1] = [0] * (r - 1) + [35]
    special[r - 2][r - 1] = [0] * (r - 1) + [70]
    fixed.append(FdzRing(orders, special))
    rings = fixed + [random_ring_over(rng, orders, max_entry=rng.choice((2, 6))) for _ in range(30)]
    for ring in rings:
        invariant_profile.cache_clear()
        calls.clear()
        profile = invariant_profile(ring)
        assert profile.fingerprints == reference_fingerprints(ring), ring
        assert sorted(m for m in calls if m) == sorted(set(FINGERPRINT_MODULI) - set(shared))
        assert calls.count(None) == (1 if shared else 0)
    for ring in fixed:
        oracle = {n: image for n, _, _, image in profile_fingerprints_oracle(ring)}
        assert invariant_profile(ring).fingerprints == tuple((n, oracle[n]) for n in FINGERPRINT_MODULI)
    assert len({invariant_profile(ring).fingerprints for ring in rings}) > 2


def test_profile_invariants_match_the_presented_groups():
    # every field is read off a transform-free Smith diagonal; the diagonal
    # presentations of the same groups, built on Smith with transforms,
    # must agree
    corpus = corpus_rings()
    rng = random.Random(43)
    generated = [random_ring_of_rank(rng, 1 + n % 7) for n in range(100)]
    rings = corpus + [direct_product(z0_ring(), r) for r in corpus] + generated
    rings.append(FdzRing((), ()))
    for ring in rings:
        chain = characteristic_ideals(ring)
        profile = invariant_profile(ring)
        for name, field in (("ann", "ann"), ("sq", "square"), ("k_ideal", "k_ideal")):
            group = getattr(chain, name).as_group()[0]
            assert getattr(profile, field) == group.diagonal.orders, (ring, name)
        assert profile.additive == ring.additive.diagonal.orders
        assert profile.n_quot == chain.n_quot.diagonal.orders
        assert profile.mod_square == chain.sq.quotient().diagonal.orders
        # delta and l are saturated, so each is T(A) plus a free part of the
        # rank of sq and of k, and A/l is free of the rest of the rank
        torsion = tuple(d for d in profile.additive if d)
        sq_rank, k_rank = profile.square.count(0), profile.k_ideal.count(0)
        assert chain.delta.as_group()[0].diagonal.orders == torsion + (0,) * sq_rank, ring
        assert chain.l_ideal.as_group()[0].diagonal.orders == torsion + (0,) * k_rank, ring
        assert chain.m_quot.diagonal.orders == (0,) * (profile.additive.count(0) - k_rank)


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
    corpus = corpus_rings()
    return pairs + [(a, b) for a in corpus for b in corpus]


def _same_rank_gen_pairs() -> list[tuple[FdzRing, FdzRing]]:
    """Every pair of equal rank among 175 seeded benchmark-generator rings
    of ranks 1-7."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(3)
    rings = [FdzRing(*random_ring_data(rng, 1 + n % 7)) for n in range(175)]
    return [(a, b) for i, a in enumerate(rings) for b in rings[i + 1:] if a.rank == b.rank]


def test_first_mismatch_matches_the_full_profile():
    # the profile leaves out the entries its earlier fields determine, so
    # it names the field the full profile names, on every pair
    z0 = z0_ring()
    padded = [direct_product(z0, r) for r in corpus_rings()]
    full = {}

    def expected(a: FdzRing, b: FdzRing) -> str | None:
        for ring in (a, b):
            if ring not in full:
                full[ring] = full_profile_oracle(ring)
        return full_profile_first_mismatch(full[a], full[b])

    def mismatches(pairs) -> Counter:
        seen = Counter()
        for a, b in pairs:
            name = invariant_profile(a).first_mismatch(invariant_profile(b))
            assert name == expected(a, b), (a, b)
            seen[name] += 1
        return seen

    mismatches(_profile_pairs() + [(a, b) for a in padded for b in padded])
    # the generator pairs reach a first mismatch at every kept chain field
    kept = {"additive", "ann", "square", "k_ideal", "n_quot", "mod_square", None}
    generated = mismatches(_same_rank_gen_pairs())
    assert kept <= set(generated), generated


def _ring_with(orders, products):
    """A ring on ``orders`` whose only nonzero products are e_i·e_j = value
    for ((i, j), value) in ``products``, 1-based."""
    n = len(orders)
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), value in products:
        tensor[i - 1][j - 1] = list(value)
    return FdzRing(orders, tensor)


def test_a_fingerprint_alone_separates_two_rings(monkeypatch):
    # in Z/8 + Z/4 + Z/2 the squares <2e1, e3> and <e2, 4e1> are both
    # Z/2 + Z/4 with quotient Z/2 + Z/4, but their images mod 4 differ
    orders = (8, 4, 2, 0, 0)
    a = _ring_with(orders, [((4, 4), (2, 0, 0, 0, 0)), ((4, 5), (0, 0, 1, 0, 0))])
    b = _ring_with(orders, [((4, 4), (0, 1, 0, 0, 0)), ((4, 5), (4, 0, 0, 0, 0))])
    pa, pb = invariant_profile(a), invariant_profile(b)
    assert pa.first_mismatch(pb) == "mod_4"
    assert full_profile_first_mismatch(full_profile_oracle(a), full_profile_oracle(b)) == "mod_4"

    def no_search(*args, **kwargs):
        raise AssertionError("a profile mismatch charges no search node")

    monkeypatch.setattr(eqcheck, "_iso_witnesses", no_search)
    result = iso_search(a, b)
    assert (result.kind, result.reason) == ("no", "invariant mismatch: mod_4")
    verdict = equivalence_verdict(a, b)
    assert (verdict.kind, verdict.reason) == ("not_equivalent", "invariant mismatch: mod_4")


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
    corpus = corpus_rings()
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
    w, twisted = corpus_ring("w"), _twisted_w()
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
    for name in NAMED_RINGS:
        ring = corpus_ring(name)
        res = iso_search(ring, ring)
        assert res.kind == "yes"
        assert res.witness is not None
        assert verify_iso_witness(ring, ring, res.witness.matrix)
    null2 = direct_product(z0_ring(), z0_ring())
    res = iso_search(null2, null2)
    assert res.kind == "yes"


@pytest.mark.parametrize("bound", [0, -3])
def test_searches_reject_a_bound_below_one(bound):
    # with no free image in range, zx2 against itself would end ``unknown``
    zx2 = corpus_ring("zx2")
    with pytest.raises(ValueError, match="coeff_bound"):
        iso_search(zx2, zx2, coeff_bound=bound)
    with pytest.raises(ValueError, match="coeff_bound"):
        equivalence_verdict(zx2, zx2, coeff_bound=bound)


def test_iso_search_profile_refutation():
    res = iso_search(corpus_ring("twoz"), FdzRing((0,), (((3,),),)))
    assert res.kind == "no" and "mismatch" in res.reason


def test_iso_search_twisted_presentation():
    # W presented in permuted, sheared coordinates is still found isomorphic
    res = iso_search(corpus_ring("w"), _twisted_w())
    assert res.kind == "yes"


def test_embedding_identity_all_corpus():
    for name in NAMED_RINGS:
        ring = corpus_ring(name)
        report = verify_embedding(ring, ring, IntMatrix.identity(ring.rank))
        assert report.passed and report.index == 1


def test_embedding_w_index_three():
    w = corpus_ring("w")
    h = IntMatrix([[1, 0, 0], [0, 3, 0], [0, 0, 1]])
    report = verify_embedding(w, w, h)
    assert report.passed
    assert report.index == 3
    assert report.torsion_quotient_order == 2


def test_embedding_doubling_fails():
    report = verify_embedding(corpus_ring("z"), corpus_ring("z"), IntMatrix([[2]]))
    assert not report.passed
    names = {name: ok for name, ok, _ in report.checks}
    assert not names["saturated_square_isomorphism"]
    assert not names["ring_homomorphism"]
    assert names["injective"] and names["finite_index"]


def test_embedding_even_index_fails_coprimality():
    w = corpus_ring("w")
    h = IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    report = verify_embedding(w, w, h)
    assert report.index == 2
    names = {name: ok for name, ok, _ in report.checks}
    assert not names["index_coprime"]
    assert not report.passed


def test_embedding_shape_check():
    with pytest.raises(ValueError):
        verify_embedding(corpus_ring("z"), corpus_ring("z"), IntMatrix([[1, 0]]))


def test_equivalence_examples():
    assert equivalence_verdict(corpus_ring("z"), corpus_ring("z")).kind == "equivalent"
    res = equivalence_verdict(corpus_ring("z"), corpus_ring("twoz"))
    assert res.kind == "not_equivalent"
    res = equivalence_verdict(z0_ring(), corpus_ring("z"))
    assert res.kind == "not_equivalent" and "ann" in res.reason


def test_equivalence_symmetric_kind_on_corpus():
    rings = [corpus_ring(name) for name in NAMED_RINGS]
    for i, a in enumerate(rings):
        for b in rings[i:]:
            assert (
                equivalence_verdict(a, b, max_nodes=300_000).kind
                == equivalence_verdict(b, a, max_nodes=300_000).kind
            )


def test_unknown_on_budget_exhaustion():
    # identical profiles, but a one-node budget cannot find the identity
    res = iso_search(corpus_ring("zx2"), corpus_ring("zx2"), max_nodes=1)
    assert res.kind == "unknown"
    verdict = equivalence_verdict(corpus_ring("zx2"), corpus_ring("zx2"), max_nodes=1)
    assert verdict.kind == "unknown"


def test_self_equivalence_every_seed():
    w = corpus_ring("w")
    for seed in range(8):
        assert equivalence_verdict(w, w, seed=seed).kind == "equivalent", seed


def _basis_prefix(rng: random.Random, f: int, k: int) -> list[list[int]]:
    """k rows of a random unimodular f x f matrix: a prefix that extends to
    a basis of Z^f, its entries mixed by random row and column operations."""
    m = [[int(i == j) for j in range(f)] for i in range(f)]
    for _ in range(3 * f):
        i, j = rng.sample(range(f), 2)
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    rng.shuffle(m)
    return m[:k]


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
        assert extends_to_basis(rows, f) == expected, rows
        outcomes.append(expected)
    assert 30 <= sum(outcomes) <= 270
    # unimodular but not triangular, index 2, and more rows than columns
    assert extends_to_basis([[2, 3], [1, 2]], 2)
    assert not extends_to_basis([[1, 1], [1, -1]], 2)
    assert not extends_to_basis([[1], [0]], 1)
    assert not extends_to_basis([[]], 0)
    # the search's per-level kernel test: for a prefix that extends to a
    # basis of Z^f, a candidate row passes exactly when prefix + row has
    # maximal minors of gcd 1
    rng = random.Random(29)
    kernel_outcomes = Counter()
    for n in range(600):
        f = rng.randint(0, 5)
        k = rng.randint(0, f)
        prefix = _basis_prefix(rng, f, k) if f >= 2 else [[1] * f][:k]
        kernel = right_kernel(prefix, f)
        assert len(kernel) == f - k
        for w in kernel:
            assert all(sum(x * y for x, y in zip(r, w)) == 0 for r in prefix)
        if n % 4 == 1 and prefix:
            # a prefix row again, up to sign
            row = [rng.choice((1, -1)) * x for x in rng.choice(prefix)]
        else:
            row = [rng.randint(-3, 3) for _ in range(f)]
            if n % 4 == 2:
                # shifted by a combination of the prefix rows
                for r in prefix:
                    c = rng.randint(-2, 2)
                    row = [x + c * y for x, y in zip(row, r)]
        expected = maximal_minors_gcd(prefix + [row], f) == 1
        assert _completes_basis(kernel, row) == expected, (prefix, row)
        kernel_outcomes[k == 0, expected] += 1
    # the first free level, where the kernel is the identity, and f = 0
    assert right_kernel([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _completes_basis(right_kernel([], 3), [2, -3, 4])
    assert not _completes_basis(right_kernel([], 3), [2, 0, 4])
    assert right_kernel([], 0) == ()
    assert not _completes_basis(right_kernel([], 0), [])
    assert not _completes_basis(right_kernel([[1, 0], [0, 1]], 2), [1, 1])
    assert len(kernel_outcomes) == 4 and min(kernel_outcomes.values()) >= 40, kernel_outcomes


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
    loosened = Counter()

    def independent_only(kernel, row):
        # row lies outside the rational span of the prefix iff it does not
        # vanish on the prefix's kernel
        independent = any(sum(x * y for x, y in zip(row, w)) for w in kernel)
        loosened[independent and not _completes_basis(kernel, row)] += 1
        return independent

    padded = [direct_product(z0_ring(), corpus_ring(name)) for name in NAMED_RINGS]
    pairs = [(r, r) for r in padded] + _transported_gen_pairs(20)
    compared = 0
    for a, b in pairs:
        for seed in range(4):
            # coefficient bound 2 keeps the independence-only leaves cheap
            pruned = list(itertools.islice(_iso_witnesses(a, b, 2, 3_000, seed), 3))
            with monkeypatch.context() as patch:
                patch.setattr(eqcheck, "_completes_basis", independent_only)
                plain = list(itertools.islice(_iso_witnesses(a, b, 2, 3_000, seed), 3))
            found = plain[: plain.index(None)] if None in plain else plain
            assert pruned[: len(found)] == found, (a, seed)
            if None not in plain:
                assert pruned == plain, (a, seed)
            compared += len(found)
    assert compared >= 100
    # the independence-only searches took candidates the kernel test refuses
    assert loosened[True] >= 100, loosened


def _sixterm_search_pairs() -> list[tuple[FdzRing, FdzRing]]:
    """The A/ann and delta pairs ``verify_sixterm`` searches for each corpus
    ring against its zero-cocycle deformation."""
    pairs = []
    for ring in corpus_rings():
        deformed = build_deformation(DeformationSpec(base=ring)).ring
        chain_a, chain_b = characteristic_ideals(ring), characteristic_ideals(deformed)
        pairs.append((chain_a.hat.ring, chain_b.hat.ring))
        pairs.append((chain_a.delta_pres.ring, chain_b.delta_pres.ring))
    return pairs


def test_folded_search_matches_the_reference_search():
    # the folded level test accepts exactly what the per-pair checks accept,
    # and the block scan charges one node per candidate in pool order, so
    # under every budget and seed the witnesses, their order and the closing
    # None are those of the per-pair search
    padded = [(direct_product(z0_ring(), r), direct_product(z0_ring(), r)) for r in corpus_rings()]
    pairs = padded + _transported_gen_pairs(20) + _sixterm_search_pairs()
    cases = [(a, b, 2, range(4)) for a, b in pairs]
    f1009 = direct_product(FdzRing((1009,), (((1,),),)), corpus_ring("z"))
    padded_z = direct_product(z0_ring(), corpus_ring("z"))
    cases += [
        # a rank-0 target, whose pools have no coordinates to split
        (FdzRing((5,), (((0,),),)), FdzRing((), ()), 2, range(4)),
        # a torsion coordinate above the block cap
        (f1009, f1009, 2, range(4)),
        # 2,001 values per free coordinate: seed 0 only, the seeded pool
        # would be refused
        (padded_z, padded_z, 1000, (0,)),
    ]
    witnesses = exhausted = 0
    for a, b, bound, seeds in cases:
        for seed in seeds:
            for budget in (1, 7, 50, 3_000):
                folded = list(_iso_witnesses(a, b, bound, budget, seed))
                assert folded == list(reference_iso_witnesses(a, b, bound, budget, seed)), (a, seed, budget)
                witnesses += len(folded) - (None in folded)
                exhausted += None in folded
    assert witnesses >= 200 and exhausted >= 100, (witnesses, exhausted)


def test_search_runs_out_at_the_reference_node_under_every_budget():
    # every budget from 1 to two past the nodes the reference search
    # charges (at most 60) gives the same witnesses and the same closing
    # None, so the scan charges skipped candidates exactly one node each
    f4 = FdzRing((2, 2), (((1, 0), (0, 1)), ((0, 1), (1, 1))))
    f2xf2 = FdzRing((2, 2), (((1, 0), (0, 0)), ((0, 0), (0, 1))))
    padded_z = direct_product(z0_ring(), corpus_ring("z"))
    gen = _transported_gen_pairs(5)
    pairs = [
        (f4, f4), (f4, f2xf2), (corpus_ring("zx2"), corpus_ring("zx2")), (padded_z, padded_z),
        gen[0], gen[1], gen[4], (corpus_ring("w"), _twisted_w()), gen[2],
    ]
    swept = out_of_budget = witnesses = 0
    for a, b in pairs:
        for seed in (0, 1):
            budget, spare = 0, 2
            while spare and budget < 60:
                budget += 1
                expected = list(reference_iso_witnesses(a, b, 2, budget, seed))
                assert list(_iso_witnesses(a, b, 2, budget, seed)) == expected, (a, seed, budget)
                spare -= None not in expected
                witnesses += len(expected) - (None in expected)
                swept += 1
            out_of_budget += spare == 2
    assert out_of_budget >= 4 and witnesses >= 500 and swept >= 500, (out_of_budget, witnesses, swept)


def _no_ann_columns(idx, rows, images, ann):
    return ()


def _sheared_zxz0() -> FdzRing:
    """Z x Z0 on the basis (1, 0), (1, 1): every product is e1, so ann is
    spanned by e1 - e2, and neither generator lies in it."""
    return FdzRing((0, 0), [[(1, 0), (1, 0)], [(1, 0), (1, 0)]])


def _ann_pairs() -> list[tuple[FdzRing, FdzRing]]:
    """Padded self pairs of the corpus rings, the mod_4 pair and the
    sheared Z x Z0, where the prune decides what the budget did not."""
    rings = corpus_rings() + _mod4_rings() + [_sheared_zxz0()]
    return [(direct_product(z0_ring(), r), direct_product(z0_ring(), r)) for r in rings]


def test_ann_prune_keeps_the_witness_sequence(monkeypatch):
    # every isomorphism maps ann A into ann B, so the prune cuts only
    # subtrees without a witness: under one budget the pruned search meets
    # every witness the unpruned one meets, in the same order, and equals it
    # where that one did not run out; on some pairs it meets more.  (A
    # seeded pool of padded mod_4 at bound 5 would exceed SEEDED_POOL_LIMIT.)
    cases = [(a, b, 5, (0,) if 8 in a.orders else range(8)) for a, b in _ann_pairs()]
    cases += [(a, b, 2, range(8)) for a, b in _transported_gen_pairs(20) + _sixterm_search_pairs()]
    compared = gained = 0
    for a, b, bound, seeds in cases:
        for seed in seeds:
            pruned = list(itertools.islice(_iso_witnesses(a, b, bound, 5_000, seed), 3))
            with monkeypatch.context() as patch:
                patch.setattr(eqcheck, "_ann_columns", _no_ann_columns)
                plain = list(itertools.islice(_iso_witnesses(a, b, bound, 5_000, seed), 3))
            found = plain[: plain.index(None)] if None in plain else plain
            assert pruned[: len(found)] == found, (a, seed)
            if None not in plain:
                assert pruned == plain, (a, seed)
            compared += len(found)
            gained += len(pruned) - (None in pruned) > len(found)
    assert compared >= 100 and gained >= 5, (compared, gained)


def test_search_sees_the_ann_constant_dropped(monkeypatch):
    # a build that forgets the earlier images' share of h(c) tests
    # c_idx·x in ann B instead of h(c) in ann B; the comparison with the
    # reference search, as in test_folded_search_matches_the_reference_search,
    # sees it
    plain = _ann_columns

    def constant_dropped(idx, rows, images, ann):
        return ((column, 0, d) for column, _, d in plain(idx, rows, images, ann))

    monkeypatch.setattr(eqcheck, "_ann_columns", constant_dropped)
    sheared = _sheared_zxz0()
    differ = 0
    for a, b in [(sheared, sheared), _ann_pairs()[-1]]:
        for seed in range(4):
            for budget in (50, 3_000):
                differ += list(_iso_witnesses(a, b, 2, budget, seed)) != list(
                    reference_iso_witnesses(a, b, 2, budget, seed)
                )
    assert differ > 0


def test_padded_ann_prune_reads_the_padded_chains():
    # ann(Z0 x A) = Z0 + ann A and (Z0 x B)/ann = B/ann B, so the data
    # derived from the chains of A and B tests membership in the padded
    # annihilator as the padded chain does
    rng = random.Random(35)
    pairs = [(r, r) for r in corpus_rings()] + _transported_gen_pairs(10)
    for a, b in pairs:
        padded_a, padded_b = direct_product(z0_ring(), a), direct_product(z0_ring(), b)
        derived = _padded_ann_prune(a, b)
        direct = _ann_prune(padded_a, padded_b)
        assert hermite_rows(derived.rows, padded_a.rank) == direct.rows
        assert derived.orders == direct.orders
        ann_b = characteristic_ideals(padded_b).ann
        for _ in range(30):
            x = [rng.randint(-3, 3) for _ in range(padded_b.rank)]
            if rng.random() < 0.5:
                # an element of ann, moved by a relation and a null-line multiple
                x = [sum(c * row[t] for c, row in zip(x, ann_b.lift_basis)) for t in range(padded_b.rank)]
            inside = not any(reduce_mod_orders(row_times_matrix(x, derived.project), derived.orders))
            assert inside == ann_b.contains(x), (b, x)


def _mod4_rings() -> list[FdzRing]:
    """Orders 8 4 2 0 0 with e4·e4 = 2e1, e4·e5 = e3, and with e4·e4 = e2,
    e4·e5 = 4e1: the pair whose profiles differ first at mod_4."""
    rings = []
    for products in ({(3, 3): (2, 0, 0, 0, 0), (3, 4): (0, 0, 1, 0, 0)},
                     {(3, 3): (0, 1, 0, 0, 0), (3, 4): (4, 0, 0, 0, 0)}):
        tensor = [[products.get((i, j), (0,) * 5) for j in range(5)] for i in range(5)]
        rings.append(FdzRing((8, 4, 2, 0, 0), tensor))
    return rings


def test_every_corpus_ring_is_equivalent_to_itself_under_every_seed():
    for ring in corpus_rings():
        for seed in range(8):
            res = equivalence_verdict(ring, ring, max_nodes=5_000, seed=seed)
            assert res.kind == "equivalent", (ring, seed)


def test_mod4_rings_are_equivalent_to_themselves():
    a, b = _mod4_rings()
    assert invariant_profile(a).first_mismatch(invariant_profile(b)) == "mod_4"
    for ring in (a, b):
        res = equivalence_verdict(ring, ring)
        padded = direct_product(z0_ring(), ring)
        assert res.kind == "equivalent" and verify_iso_witness(padded, padded, res.witness.matrix)


def test_zero_cocycle_deformations_within_a_small_budget():
    # each of the 8 corpus rings and 150 generator rings against its own
    # zero-cocycle deformation, an isomorphic ring: at least 100 of the 158
    # verdicts are decided at 5,000 nodes, and none refutes
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(7)
    rings = corpus_rings() + [FdzRing(*random_ring_data(rng, rng.randint(2, 5))) for _ in range(150)]
    kinds = Counter(
        equivalence_verdict(build_deformation(DeformationSpec(base=ring)).ring, ring, max_nodes=5_000).kind
        for ring in rings
    )
    assert kinds["equivalent"] >= 100 and not kinds["not_equivalent"], kinds


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
                    accepted = _linear_ok(level.linear, cand) and level.square_ok(cand)
                    wrong += accepted != expected
    return wrong, seen


def _drop_cross_half(b: FdzRing) -> tuple:
    """B's square forms with the T[j][i] half left out of the first cross
    term (i < j) where T[j][i][k] is not 0."""
    forms = [dict(((i, j), c) for i, j, c in form) for form in _square_forms(b)]
    for k, form in enumerate(forms):
        cross = [(i, j) for i in range(b.rank) for j in range(i + 1, b.rank) if b.tensor[j][i][k]]
        if cross:
            i, j = cross[0]
            form[i, j] = b.tensor[i][j][k]
            break
    return tuple(tuple((i, j, c) for (i, j), c in sorted(form.items()) if c) for form in forms)


def test_folded_level_accepts_exactly_what_the_pair_checks_accept():
    def folded(b, *args):
        return _FoldedLevel(b, *args, _square_forms(b))

    wrong, seen = _fold_disagreements(folded)
    assert wrong == 0
    assert min(seen["square"], seen["one-sided"], seen["support"]) >= 50, seen
    assert min(seen[True], seen[False]) >= 500, seen
    # the comparison sees a build that forgets the quadratic check
    dropped, _ = _fold_disagreements(lambda *args: _drop_square(folded(*args)))
    assert dropped > 0


def test_folded_level_sees_a_cross_term_half_dropped():
    # the quadratic form sums T[i][j] and T[j][i] on each cross term; on the
    # non-commutative rings the comparison draws, a form that keeps only
    # T[i][j] on one of them accepts what the pair checks refuse, or the reverse
    halved, _ = _fold_disagreements(lambda b, *args: _FoldedLevel(b, *args, _drop_cross_half(b)))
    assert halved > 0


def test_seeded_pool_guard():
    z = corpus_ring("z")
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


def test_seed_zero_bound_past_the_budget_changes_nothing():
    # seed 0 clamps the bound to max_nodes: a coefficient past position
    # max_nodes of the order 0, 1, -1, ... is reached only after the budget
    # is spent, so bound max_nodes and bound 10^9 give the same results, and
    # those of the unclamped reference search at a bound above max_nodes
    kinds = Counter()
    for ring in corpus_rings():
        padded = direct_product(z0_ring(), ring)
        for max_nodes in (50, 500, 5_000):
            for search, pair in ((iso_search, (padded, padded)), (equivalence_verdict, (ring, ring))):
                at_budget, huge = (
                    search(*pair, coeff_bound=bound, max_nodes=max_nodes)
                    for bound in (max_nodes, 10**9)
                )
                assert (huge.kind, huge.reason, huge.witness) == (
                    at_budget.kind, at_budget.reason, at_budget.witness
                ), (ring, max_nodes)
                kinds[huge.kind] += 1
            if max_nodes < 5_000:
                reference = reference_iso_witnesses(padded, padded, 2 * max_nodes + 1, max_nodes)
                assert list(_iso_witnesses(padded, padded, 10**9, max_nodes)) == list(reference)
    assert kinds["unknown"] >= 20 and kinds["yes"] + kinds["equivalent"] >= 6, kinds


def test_seeded_ordering_still_finds_witnesses():
    for seed in (0, 1, 7):
        res = iso_search(corpus_ring("w"), corpus_ring("w"), seed=seed)
        assert res.kind == "yes"
        assert verify_iso_witness(corpus_ring("w"), corpus_ring("w"), res.witness.matrix)


def test_product_scan_takes_the_candidate_images_in_pool_order():
    # with no linear columns every candidate passes the lookup, so a scan
    # yields each candidate image at its pool position and closes its last
    # block on the pool size; no tail table exceeds the cap
    targets = [
        direct_product(z0_ring(), corpus_ring("w")),
        FdzRing((), ()),
        FdzRing((12,), (((1,),),)),
        corpus_ring("z"),
        direct_product(FdzRing((1009,), (((0,),),)), corpus_ring("z")),
        direct_product(corpus_ring("z"), FdzRing((1009,), (((0,),),))),
    ]
    scanned = 0
    for b in targets:
        exponent = lcm(*(d for d in b.orders if d))
        for order in [0] + [d for d in range(1, exponent + 1) if exponent % d == 0]:
            pool = _ProductPool(b, order, 2)
            assert len(pool.tails) <= _BLOCK_CAP
            steps = list(pool.scan(()))
            images = list(candidate_images(b, order, 2))
            assert [(n - 1, x) for n, x in steps if x is not None] == list(enumerate(images))
            assert (steps[-1][0] if steps else 0) == len(images), (b, order)
            scanned += len(images)
    assert scanned > 3_000
    # a 2,001-value coordinate lies above the cap: blocks of one candidate
    padded_z = direct_product(z0_ring(), corpus_ring("z"))
    wide = _ProductPool(padded_z, 0, 1000)
    assert wide.tails == [()]
    first = list(itertools.islice(wide.scan(()), 4))
    assert first == [(1, (0, 1)), (1, None), (2, (0, -1)), (2, None)]


def test_finite_oracle_agreement():
    rng = random.Random(100)
    rings = [random_finite_ring(rng, max_order=8) for _ in range(12)]
    for i, a in enumerate(rings):
        for b in rings[i:]:
            expected = brute_force_isomorphic(a, b)
            got = iso_search(a, b, coeff_bound=8)
            assert got.kind in ("yes", "no")
            assert (got.kind == "yes") == expected, (a, b)
