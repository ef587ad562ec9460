import itertools
import random

import pytest

from fdzring.corpus import NAMED_RINGS, twoz_ring, w_ring, z_ring, zx2_ring
from fdzring.eqcheck import (
    _candidate_images,
    _LazyPool,
    equivalence_verdict,
    invariant_profile,
    iso_search,
    verify_embedding,
    verify_iso_witness,
)
from fdzring.intlinalg import IntMatrix
from fdzring.rings import FdzRing, direct_product, z0_ring

from oracles import brute_force_isomorphic, random_finite_ring


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


def test_iso_search_profile_refutation():
    res = iso_search(twoz_ring(), FdzRing((0,), (((3,),),)))
    assert res.kind == "no" and "mismatch" in res.reason


def test_iso_search_twisted_presentation():
    # W presented in permuted, sheared coordinates is still found isomorphic
    w = w_ring()
    twisted = FdzRing(
        (2, 0, 0),
        (
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ),
    )
    res = iso_search(w, twisted)
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
