import importlib
import json
import os
import random
import subprocess
import sys

import pytest

import fdzring
import fdzring.classify as classify_module
from fdzring.bilinear import BilinearMapError, induced_bilinear_map, pa_ring, pf_ring
from fdzring.classify import (
    CITATION_TAGS,
    FactorizationIncomplete,
    NO,
    NOT_APPLICABLE,
    UNKNOWN,
    YES,
    ScalarRingRequired,
    classify_ring,
    idempotents,
    indecomposable_factors,
    spec0_connected_rule,
)
from fdzring.eqcheck import verify_iso_witness
from fdzring.fomc import defined_set, parse_formula
from fdzring.intlinalg import IntMatrix, row_times_matrix
from fdzring.ringfile import serialize_ring
from fdzring.rings import FdzRing, direct_product, reduce_mod_n, z0_ring

from oracles import (
    CORPUS,
    NAMED_RINGS,
    corpus_ring,
    corpus_rings,
    sympy_free_idempotents,
    transport,
    z_mod,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def zx_mod(tail):
    """Z[x]/(f) in the basis 1, x, ..., x^(n-1), for the monic
    f = x^n + tail[n-1]·x^(n-1) + ... + tail[0]."""
    n = len(tail)

    def power(k):
        v = [int(i == k) for i in range(2 * n)]
        for d in range(2 * n - 1, n - 1, -1):
            c, v[d] = v[d], 0
            for i, t in enumerate(tail):
                v[d - n + i] -= c * t
        return v[:n]

    return FdzRing([0] * n, [[power(i + j) for j in range(n)] for i in range(n)])


# monic f for zx_mod whose Q[x]/(f) has a semisimple part of dimension 2 or
# 3: x^3 - x, x^2 - 1, (x^2 - 1)^2, x^3 - x^2, x^2 - x - 4 (a domain in which
# 2 splits), (x - 3)(x + 2), x^3 - 2x and x^2 - x + 1 (2 inert)
ZX_TAILS = ([0, -1, 0], [-1, 0], [1, 0, -2, 0], [0, 0, -1], [-4, -1], [-6, -1], [0, -2, 0], [1, -1])


def test_idempotents_examples():
    assert idempotents(corpus_ring("z")) == [(0,), (1,)]
    zz = direct_product(corpus_ring("z"), corpus_ring("z"))
    assert idempotents(zz) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert idempotents(corpus_ring("zx2")) == [(0, 0), (1, 0)]
    assert idempotents(z_mod(6)) == [(0,), (1,), (3,), (4,)]
    # Z^3: every 0/1 vector
    z3 = direct_product(zz, corpus_ring("z"))
    assert idempotents(z3) == sorted(
        tuple((mask >> i) & 1 for i in range(3)) for mask in range(8)
    )
    # Q[x]/(x^3 - x) = Q^3 has 8 idempotents, only 4 of them integral
    assert idempotents(zx_mod([0, -1, 0])) == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, -1),
        (1, 0, 0),
    ]
    # (1 ± x)/2 are not integral, with or without the nilpotent x^2 - 1
    assert idempotents(zx_mod([-1, 0])) == [(0, 0), (1, 0)]
    assert idempotents(zx_mod([1, 0, -2, 0])) == [(0, 0, 0, 0), (1, 0, 0, 0)]
    # a base change carries the idempotents along
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import base_change, random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(4)
    tested = 0
    while tested < 6:
        orders, tensor = random_ring_data(rng, 2 + tested % 4)
        try:
            scalar = pa_ring(FdzRing(orders, tensor)).ring
        except BilinearMapError:
            continue
        tested += 1
        for extra in (zx_mod([0, -1, 0]), zx_mod([0, 0, -1]), z_mod(6)):
            p = direct_product(scalar, extra)
            t, tinv = base_change(rng, p.orders)
            t, tinv = IntMatrix(t), IntMatrix(tinv)
            moved = transport(p, t, tinv)
            expected = sorted(p.reduce(row_times_matrix(e, t)) for e in idempotents(p))
            assert idempotents(moved) == expected


def test_idempotents_match_the_sympy_route():
    # the sympy route factors a characteristic polynomial over Q, where the
    # library lifts idempotents mod 2 to the integers; the two are compared
    # on each torsion-free part ``idempotents`` meets
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(20261019)
    sources = corpus_rings()
    sources += [FdzRing(*random_ring_data(rng, rng.randint(2, 8))) for _ in range(300)]
    rings = []
    for a in sources:
        try:
            pa = pa_ring(a)
        except BilinearMapError:
            continue
        rings += [pa.parent.ring, pa.ring]  # the parent of the pa ring is the pf ring
    # orders with a semisimple part of dimension 2-6, then Z^2 to Z^12
    z = corpus_ring("z")
    singles = [zx_mod(tail) for tail in ZX_TAILS]
    rings += singles + [direct_product(z, s) for s in singles]
    rings += [direct_product(s, t) for i, s in enumerate(singles) for t in singles[i:]]
    power = z
    for _ in range(11):
        power = direct_product(power, z)
        rings.append(power)
    free_idempotents = classify_module._free_idempotents
    compared = []

    def against_sympy(free):
        found = free_idempotents(free)
        assert found == sympy_free_idempotents(free), free
        compared.append(len(found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify_module, "_free_idempotents", against_sympy)
        for p in set(rings):
            idempotents(p)
    split = sum(n > 2 for n in compared)
    assert len(rings) >= 650 and split >= 50, (len(rings), split)


def test_import_leaves_sympy_out(tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, fdzring, fdzring.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # a local torsion-free part (semisimple part Q) has only 0 and 1: no factoring
    probe = (
        "import sys; from fdzring.classify import idempotents; "
        "from fdzring.ringfile import load_ring; "
        f"z, zx2 = (load_ring({os.path.join(CORPUS, 'z.ring')!r}), "
        f"load_ring({os.path.join(CORPUS, 'zx2.ring')!r})); "
        "print(idempotents(z), idempotents(zx2), 'sympy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[(0,), (1,)] [(0, 0), (1, 0)] False"
    # Z[x]/(x^3 - x) has a semisimple part Q^3 and four integral idempotents;
    # classifying it splits its scalar ring, still without sympy
    ring = tmp_path / "zx3.ring"
    ring.write_text(serialize_ring(zx_mod([0, -1, 0])))
    probe = (
        "import sys; from fdzring.classify import classify_ring, indecomposable_factors; "
        "from fdzring.ringfile import load_ring; "
        f"a = load_ring({str(ring)!r}); "
        "print(len(indecomposable_factors(a).idempotents), classify_ring(a).super_tame, "
        "'sympy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "4 no False"


# The library modules each subcommand loads besides ``fdzring.cli``: every
# one reads a ring and its ideal chain, and adds only the modules it runs.
CHAIN_MODULES = {"rings", "groups", "intlinalg", "ringfile"}
SUBCOMMAND_MODULES = [
    (["analyze", "corpus/w.ring"], set()),
    (["classify", "corpus/w.ring"], {"bilinear", "classify"}),
    (["corpus", "corpus"], {"bilinear", "classify"}),
    (["pf", "corpus/w.ring"], {"bilinear"}),
    (["eqcheck", "corpus/zx2.ring", "corpus/zx2.ring"], {"eqcheck"}),
    (["deform", "corpus/w.ring", "--check-sixterm"], {"deform", "eqcheck"}),
    (["modelcheck", "corpus/w.ring", "--mod", "2", "--builtin", "theta,k=2"], {"fomc"}),
]
LOADED_PROBE = (
    "import contextlib, io, json, sys\n"
    "from fdzring.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('fdzring.') and m != 'fdzring.cli')\n"
    "heavy = [m for m in ('sympy', 'dataclasses', 'inspect') if m in sys.modules]\n"
    "print(json.dumps([code, loaded, heavy]))\n"
)


def fresh_interpreter(*args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True)


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    for argv, extra in SUBCOMMAND_MODULES:
        out = fresh_interpreter("-c", LOADED_PROBE, *argv)
        code, loaded, heavy = json.loads(out.stdout)
        assert code == 0, argv
        assert loaded == sorted(f"fdzring.{m}" for m in CHAIN_MODULES | extra), argv
        assert heavy == [], argv
    # a failing run maps its error to an exit code without the modules of
    # the other error classes loaded beforehand
    invalid = tmp_path / "invalid.ring"
    invalid.write_text("rank: 2\norders: 2 0\nmult 1 1 : 0 1\n")
    out = fresh_interpreter("-c", LOADED_PROBE, "analyze", str(invalid))
    assert json.loads(out.stdout)[0] == 3 and out.stderr.startswith("error: ")


def test_package_namespace_is_lazy():
    out = fresh_interpreter("-c", "import sys, fdzring; print(sorted(m for m in sys.modules if 'fdzring' in m))")
    assert out.stdout.strip() == "['fdzring']"
    assert len(fdzring.__all__) == 67 and set(fdzring.__all__) == set(fdzring._EXPORTS)
    for name in fdzring.__all__:
        home = importlib.import_module(f"fdzring.{fdzring._EXPORTS[name]}")
        assert getattr(fdzring, name) is getattr(home, name), name
    namespace = {}
    exec("from fdzring import *", namespace)
    assert all(namespace[name] is getattr(fdzring, name) for name in fdzring.__all__)
    assert set(fdzring.__all__) <= set(dir(fdzring))
    assert fdzring.rings is importlib.import_module("fdzring.rings")
    with pytest.raises(AttributeError):
        fdzring.no_such_name


def test_idempotents_mixed_torsion():
    mixed = direct_product(corpus_ring("z"), z_mod(2))
    assert idempotents(mixed) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    big = direct_product(z_mod(4), z_mod(9))
    found = idempotents(big)
    brute = sorted(e for e in big.elements() if big.mul(e, e) == e)
    assert found == brute
    # free-times-torsion with a nilpotent part
    nil_mixed = direct_product(corpus_ring("zx2"), z_mod(3))
    assert idempotents(nil_mixed) == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]


def test_idempotents_of_finite_scalar_rings_match_enumeration():
    # a finite ring takes the general path, with a torsion-free quotient of
    # rank 0; the element-by-element filter is the oracle, and the model
    # checker, a second engine, defines the same set by x·x = x
    idempotent = parse_formula("(eq (mul x x) x)")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rng = random.Random(5)
    checked = split = 0
    for n in range(70):
        a = FdzRing(*random_ring_data(rng, 2 + n % 4))
        for ring in [a] + [reduce_mod_n(a, m) for m in (2, 3, 4, 6, 8)]:
            try:
                p = pf_ring(induced_bilinear_map(ring)).ring
            except BilinearMapError:
                continue
            if p.order is None:
                continue
            expected = sorted(e for e in p.elements() if p.mul(e, e) == e)
            assert idempotents(p) == expected == defined_set(p, idempotent), p
            checked += 1
            split += len(expected) > 2
    assert checked >= 300 and split >= 50, (checked, split)


def test_idempotents_requires_scalar():
    with pytest.raises(ScalarRingRequired):
        idempotents(z0_ring())


def test_idempotent_set_closure_properties():
    for ring in (
        direct_product(corpus_ring("z"), corpus_ring("z")),
        direct_product(corpus_ring("z"), z_mod(2)),
        z_mod(12),
        corpus_ring("zx2"),
    ):
        idems = set(idempotents(ring))
        unity = ring.unity()
        for e in idems:
            assert ring.sub(unity, e) in idems
            for f in idems:
                assert ring.mul(e, f) in idems


def test_indecomposable_factors():
    sa = indecomposable_factors(corpus_ring("z"))
    assert len(sa.factors) == 1 and sa.spec0_connected == YES

    sa = indecomposable_factors(direct_product(corpus_ring("z"), corpus_ring("z")))
    assert len(sa.factors) == 2
    assert sa.infinite_factor_count == 2
    assert sa.spec0_connected == NO

    sa = indecomposable_factors(direct_product(corpus_ring("z"), z_mod(2)))
    assert sa.infinite_factor_count == 1
    assert sa.spec0_connected == YES
    orders = sorted(f.order for f in sa.factors if f.order is not None)
    assert orders == [2]


def test_factor_product_reassembly():
    for ring in (
        direct_product(corpus_ring("z"), z_mod(3)),
        direct_product(z_mod(4), z_mod(9)),
        corpus_ring("zx2"),
    ):
        sa = indecomposable_factors(ring)
        product = sa.factors[0]
        for factor in sa.factors[1:]:
            product = direct_product(product, factor)
        assert verify_iso_witness(ring, product, sa.product_map)


def test_spec0_rule():
    assert spec0_connected_rule(0) == YES
    assert spec0_connected_rule(1) == YES
    assert spec0_connected_rule(2) == NO


def test_classification_table():
    expectations = {
        "z": dict(tame=True, qfa=YES, super_tame=YES, bi_interpretable=YES),
        "twoz": dict(tame=True, qfa=YES, super_tame=YES, bi_interpretable=YES),
        "z0": dict(tame=False, qfa=NO, bi_interpretable=NO),
        "zxz0": dict(bi_interpretable=NO),
        "w": dict(tame=False, qfa=NO, regular=False),
        "zx2": dict(tame=True, qfa=YES),
    }
    for name in NAMED_RINGS:
        report = classify_ring(corpus_ring(name))
        for field, expected in expectations[name].items():
            assert getattr(report, field) == expected, (name, field)
        for line in report.justifications:
            tag = line.split(": ")[-1]
            assert tag in CITATION_TAGS, line


def test_justification_citations():
    report = classify_ring(corpus_ring("zxz0"))
    assert any(
        line.startswith("bi_interpretable=no") and line.endswith("thm:main2")
        for line in report.justifications
    )
    report = classify_ring(corpus_ring("z"))
    assert any(
        line.startswith("qfa=yes") and line.endswith("thm:Main1")
        for line in report.justifications
    )
    assert any(
        line.startswith("bi_interpretable=yes") and line.endswith("thm:Main3")
        for line in report.justifications
    )


def test_verdict_consistency_corpus():
    for name in NAMED_RINGS:
        report = classify_ring(corpus_ring(name))
        if report.super_tame == YES:
            assert report.bi_interpretable == YES
        if report.bi_interpretable == YES:
            assert report.qfa == YES
        if report.qfa == YES:
            assert report.tame


def test_finite_rings_not_applicable():
    report = classify_ring(z_mod(4))
    assert not report.infinite
    assert report.qfa == NOT_APPLICABLE
    assert report.bi_interpretable == NOT_APPLICABLE


def test_classify_with_pa():
    report = classify_ring(corpus_ring("z"), use_pa_ring=True)
    assert report.super_tame == YES and report.bi_interpretable == YES


def test_unknown_verdict_on_disconnected_spectrum():
    # Z x Z: tame and QFA, but the scalar ring splits into two infinite
    # factors, so neither sufficient nor necessary criterion fires
    zz = direct_product(corpus_ring("z"), corpus_ring("z"))
    report = classify_ring(zz)
    assert report.tame and report.qfa == YES
    assert report.super_tame == NO
    assert report.bi_interpretable == UNKNOWN
    assert any(
        line.startswith("bi_interpretable=unknown") for line in report.justifications
    )


def test_degree_bound_guard():
    # a free scalar ring of rank 13 exceeds DEGREE_BOUND, the rank up to
    # which the 2-adic lifting is run
    n = 13
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            tensor[i][j][k] = 1  # the group algebra of Z/13 over Z
    ring = FdzRing([0] * n, tensor)
    with pytest.raises(FactorizationIncomplete):
        idempotents(ring)


@pytest.mark.parametrize("use_pa", [False, True])
def test_torsion_past_the_element_limit_leaves_super_tame_unknown(use_pa):
    # the idempotents of a scalar ring with torsion above ELEMENT_LIMIT
    # (4096) are not enumerated: spec0 is unknown, and so is super_tame
    # wherever the side condition holds
    cases = [
        (FdzRing((4099,), [[[1]]]), UNKNOWN, NOT_APPLICABLE),
        (FdzRing((0, 4099), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), UNKNOWN, UNKNOWN),
        (FdzRing((4096,), [[[1]]]), YES, NOT_APPLICABLE),
    ]
    for ring, super_tame, bi in cases:
        report = classify_ring(ring, use_pa_ring=use_pa)
        assert (report.super_tame, report.bi_interpretable) == (super_tame, bi), ring.orders
        assert f"super_tame={super_tame}: spec0-rule" in report.justifications
    assert "bi_interpretable=unknown: outside-criteria" in classify_ring(cases[1][0]).justifications
