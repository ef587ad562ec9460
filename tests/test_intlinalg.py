import os
import random
import sys
from math import gcd

import pytest

import fdzring.bilinear as bilinear_module
from fdzring.bilinear import BilinearMap, BilinearMapError, _pair_conditions, induced_bilinear_map
from fdzring.classify import classify_ring
from fdzring.eqcheck import EquivalenceResult, IsoResult
from fdzring.fomc import Add, Mul, Var, Zero
from fdzring.intlinalg import (
    IntMatrix,
    _echelon,
    _smith_columns,
    _sparse_rows,
    affine_preimage,
    diagonal_presentation,
    hermite_coordinates,
    hermite_reduce,
    hermite_rows,
    left_kernel,
    preimage_lattice,
    record,
    row_times_matrix,
    smith_diagonal,
    solve_congruences,
    vec_add,
)
from fdzring.rings import FdzRing, _pairing_equations, characteristic_ideals
from oracles import (
    corpus_ring,
    corpus_rings,
    lattice_contains,
    reference_affine_preimage,
    reference_diagonal_presentation,
    reference_hermite_rows,
    reference_pair_conditions,
    reference_pairing_equations,
    reference_preimage_lattice,
    reference_solve_congruences,
    smith,
    smith_left_kernel,
    sparse_rows,
    zero_matrix,
)


def test_record_contract():
    x = Var("x")
    add, mul = Add(x, Zero()), Mul(x, Zero())
    # equality and hashing only within one class, on the field tuple
    assert add == Add(Var("x"), Zero()) and add != mul and len({add, mul}) == 2
    assert IsoResult("no") != EquivalenceResult("no")
    assert hash(add) == hash((x, Zero())) and hash(x) == hash(("x",)) and hash(Zero()) == hash(())
    assert repr(add) == "Add(left=Var(name='x'), right=Zero())"
    with pytest.raises(AttributeError):
        add.left = Zero()
    with pytest.raises(AttributeError):
        del add.left
    for bad in ((x,), (x, Zero(), Zero())):
        with pytest.raises(TypeError):
            Add(*bad)
    with pytest.raises(TypeError):
        Add(x, Zero(), middle=x)
    with pytest.raises(TypeError):
        Add(x, left=x)
    # keyword construction with trailing defaults
    result = IsoResult(kind="no", reason="orders differ")
    assert (result.kind, result.witness, result.reason) == ("no", None, "orders differ")
    assert result == IsoResult("no", None, "orders differ")
    match Mul(add, x):
        case Mul(Add(left, Zero()), Var(name)):
            assert left is x and name == "x"
        case _:
            pytest.fail("positional pattern did not destructure")
    # cached_property keeps its value in the instance dict
    chain = characteristic_ideals(corpus_ring("w"))
    assert chain.hat is chain.hat
    # __post_init__ runs on construction
    with pytest.raises(BilinearMapError):
        BilinearMap((2, 2), (2,), (((1,), (0,)),))

    @record
    class Pair:
        first: int
        second: int = 0

    assert Pair(1) == Pair(first=1, second=0) and Pair.__match_args__ == ("first", "second")
    assert vars(Pair(second=2, first=1)) == {"first": 1, "second": 2}


def check_smith(a):
    """The library's Smith kernel on A: V·V⁻¹ = I, D is a divisor chain,
    and A·V spans the row lattice of D (A·V = U⁻¹·D with U unimodular, so
    no U is needed to check it).  Returns the diagonal of D."""
    diag, v_cols, vinv = _smith_columns(a.data, a.cols)
    v = IntMatrix(list(zip(*v_cols)), cols=a.cols)
    assert v.mul(IntMatrix(vinv, cols=a.cols)) == IntMatrix.identity(a.cols)
    assert len(diag) == a.cols and not any(diag[a.rows:])
    for i in range(len(diag)):
        assert diag[i] >= 0
        if i and diag[i - 1]:
            assert diag[i] % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert diag[i] == 0
    d_rows = [[x if j == i else 0 for j in range(a.cols)] for i, x in enumerate(diag)]
    assert hermite_rows(a.mul(v).data, a.cols) == hermite_rows(d_rows, a.cols)
    return tuple(diag[:a.rows])


def test_smith_identity_and_zero():
    assert check_smith(IntMatrix.identity(2)) == (1, 1)
    assert check_smith(zero_matrix(2, 3)) == (0, 0)
    assert check_smith(IntMatrix([], cols=2)) == ()


def test_smith_divisibility_example():
    assert check_smith(IntMatrix([[2, 4], [6, 8]])) == (2, 4)
    # 2 and 3 are alone in their rows and columns, yet 2 does not divide 3
    assert check_smith(IntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert diagonal_presentation([[2, 0], [0, 3]], 2).orders == (6,)


def test_smith_random():
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        check_smith(IntMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]))


def test_affine_preimage_basic():
    x, kernel = affine_preimage(IntMatrix([[2]]), (), [4])
    assert x == (2,) and kernel == ()
    assert affine_preimage(IntMatrix([[2]]), (), [3]) is None
    # 2x = 3 (mod 5) -> x = 4 (mod 5), reduced into [0, 5)
    x, kernel = affine_preimage(IntMatrix([[2]]), [(5,)], [3])
    assert x == (4,) and kernel == ((5,),)
    with pytest.raises(ValueError):
        affine_preimage(IntMatrix([[2]]), (), [1, 2])


def test_affine_preimage_with_kernel():
    # A·x = b for A = [[1, 2], [2, 4]] and b = (3, 6), written as x·Aᵀ = b
    res = affine_preimage(IntMatrix([[1, 2], [2, 4]]), (), [3, 6])
    assert res is not None
    x, kernel = res
    # substitute and check both rows
    assert x[0] + 2 * x[1] == 3 and 2 * x[0] + 4 * x[1] == 6
    assert len(kernel) == 1
    k = kernel[0]
    assert k[0] + 2 * k[1] == 0 and (k[0], k[1]) != (0, 0)
    assert hermite_reduce(kernel, x) == x


def test_affine_preimage_random_consistency():
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        x = [rng.randint(-5, 5) for _ in range(m)]
        b = row_times_matrix(x, a)
        res = affine_preimage(a, (), b)
        assert res is not None
        got, kernel = res
        assert row_times_matrix(got, a) == b
        for k in kernel:
            assert row_times_matrix(k, a) == (0,) * n


def _other_basis(rng, rows, width):
    """The same lattice as ``rows``, from shuffled, mixed and padded
    generators."""
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    for _ in range(4):
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    if rows and rng.random() < 0.5:
        c = rng.randint(-2, 2)
        rows.append([c * x for x in rows[0]])
    if rng.random() < 0.3:
        rows.append([0] * width)
    return rows


def test_affine_preimage_random_systems():
    rng = random.Random(43)
    counts = {"none": 0, "solved": 0, "no_target": 0, "empty_w": 0, "zero_row": 0}
    for trial in range(400):
        n = rng.randint(1, 5)
        m = 0 if trial % 20 == 0 else rng.randint(1, 5)
        w = IntMatrix(_random_rows(rng, m, n), cols=n)
        target = [] if trial % 3 == 0 else _random_rows(rng, rng.randint(1, 4), n)
        if trial % 2:
            # reachable: a combination of the rows, moved off it along L(T)
            rhs = row_times_matrix([rng.randint(-4, 4) for _ in range(m)], w)
            shift = [rng.randint(-2, 2) for _ in target]
            rhs = vec_add(rhs, row_times_matrix(shift, IntMatrix(target, cols=n)))
        else:
            rhs = tuple(rng.randint(-6, 6) for _ in range(n))
        res = affine_preimage(w, target, rhs)
        reachable = hermite_rows(list(w.data) + target, n)
        assert (res is None) == (not lattice_contains(reachable, rhs))
        counts["no_target"] += not target
        counts["empty_w"] += not m
        counts["zero_row"] += any(not any(r) for r in w.data)
        counts["none" if res is None else "solved"] += 1
        if res is None:
            continue
        x, kernel = res
        lattice = hermite_rows(target, n)
        diff = tuple(p - q for p, q in zip(row_times_matrix(x, w), rhs))
        assert lattice_contains(lattice, diff)
        assert kernel == preimage_lattice(w, target)
        assert hermite_reduce(kernel, x) == x
        # the particular solution depends only on the solution set
        assert affine_preimage(w, _other_basis(rng, target, n), rhs)[0] == x
        if target:
            moved = vec_add(rhs, row_times_matrix(
                [rng.randint(-3, 3) for _ in target], IntMatrix(target, cols=n)
            ))
            assert affine_preimage(w, target, moved)[0] == x
    assert counts["none"] > 60 and counts["solved"] > 100
    assert counts["no_target"] > 50 and counts["empty_w"] >= 10 and counts["zero_row"] > 50


def test_hermite_canonical():
    assert hermite_rows([(2, 0), (0, 3)], 2) == ((2, 0), (0, 3))
    assert hermite_rows([(2, 2)], 2) == ((2, 2),)
    # same lattice, different generators -> same canonical basis
    assert hermite_rows([(2, 0), (2, 3)], 2) == hermite_rows([(4, 3), (2, 3), (2, 0)], 2)


def test_hermite_reduce_membership():
    basis = hermite_rows([(2, 0), (0, 3)], 2)
    assert hermite_reduce(basis, (4, 6)) == (0, 0)
    assert hermite_reduce(basis, (5, 7)) == (1, 1)
    assert lattice_contains(basis, (2, 3))
    assert not lattice_contains(basis, (1, 0))


def test_left_kernel():
    rows = left_kernel(IntMatrix([[1, 2], [2, 4]]))
    assert len(rows) == 1
    y = rows[0]
    assert y[0] * 1 + y[1] * 2 == 0 and y[0] * 2 + y[1] * 4 == 0


def test_solve_congruences():
    # x = 1 mod 2 and x = 2 mod 3 -> x = 5 mod 6
    res = solve_congruences(sparse_rows([[1], [1]]), [2, 3], rhs=[1, 2], unknowns=1)
    assert res is not None
    x, kernel = res
    assert x[0] % 2 == 1 and x[0] % 3 == 2
    assert kernel and kernel[0][0] % 6 == 0


def test_solve_congruences_rejects_a_mismatched_rhs():
    # checked on the system as given, before any equation is dropped
    for eqs, moduli, rhs in (
        ([[1]], [2], [1, 2]),
        ([[2, 4]], [2], [0, 1]),
        ([[1, 0], [1, 0]], [3, 3], [1]),
        ([], [], [0]),
    ):
        with pytest.raises(ValueError, match="right-hand side length mismatch"):
            solve_congruences(sparse_rows(eqs), moduli, rhs=rhs, unknowns=2)


def test_solve_congruences_rejects_a_column_outside_the_unknowns():
    for eqs in ([{2: 1}], [{0: 1}, {-1: 3}], [{}, {0: 1, 5: 2}]):
        with pytest.raises(ValueError, match="equation column outside the unknowns"):
            solve_congruences(eqs, [0] * len(eqs), unknowns=2)
    # a column past the unknowns is refused even where its coefficient
    # vanishes modulo m
    with pytest.raises(ValueError, match="equation column outside the unknowns"):
        solve_congruences([{0: 1, 2: 4}], [4], unknowns=2)


def test_solve_congruences_rejects_a_moduli_length_mismatch():
    for eqs, moduli in (([{0: 1}], []), ([{0: 1}], [2, 3]), ([], [0])):
        with pytest.raises(ValueError, match="one modulus per equation required"):
            solve_congruences(eqs, moduli, unknowns=1)


def test_preimage_lattice():
    w = IntMatrix([[2]])
    assert preimage_lattice(w, [(4,)]) == ((2,),)
    # {x : x * [1 1] in span{(2, 0), (0, 2)}} = 2Z
    w2 = IntMatrix([[1, 1]])
    assert preimage_lattice(w2, [(2, 0), (0, 2)]) == ((2,),)


def _random_rows(rng, count, width, density=0.6, bound=6):
    rows = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(width)]
        for _ in range(count)
    ]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(count)] = [0] * width
    return rows


def test_left_kernel_matches_smith_oracle():
    rng = random.Random(23)
    cases = [zero_matrix(3, 2), IntMatrix([[], []]), IntMatrix([], cols=3)]
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 6)
        cases.append(IntMatrix(_random_rows(rng, m, n), cols=n))
    for a in cases:
        kernel = left_kernel(a)
        assert kernel == hermite_rows(smith_left_kernel(a), a.rows)
        for y in kernel:
            assert row_times_matrix(y, a) == (0,) * a.cols


def test_preimage_lattice_matches_smith_oracle():
    rng = random.Random(31)
    for _ in range(150):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
        w = IntMatrix(_random_rows(rng, m, n), cols=n)
        target = _random_rows(rng, k, n)
        stacked = IntMatrix(list(w.data) + [[-x for x in t] for t in target], cols=n)
        expect = hermite_rows([y[:m] for y in smith_left_kernel(stacked)], m)
        assert preimage_lattice(w, target) == expect


def test_congruence_kernel_matches_smith_oracle():
    rng = random.Random(37)
    for trial in range(200):
        nunk = rng.randint(0, 5)
        neq = 0 if trial % 10 == 0 else rng.randint(1, 6)
        eqs = _random_rows(rng, neq, nunk)
        moduli = [rng.choice((0, 0, 2, 3, 4, 6, 12)) for _ in range(neq)]
        part, kernel = solve_congruences(sparse_rows(eqs), moduli, unknowns=nunk)
        assert part == (0,) * nunk
        # the right kernel of [E | -m_r·e_r], truncated to the unknowns
        slack = [r for r, m in enumerate(moduli) if m]
        transposed = [[e[j] for e in eqs] for j in range(nunk)] + [
            [-moduli[r] if i == r else 0 for i in range(neq)] for r in slack
        ]
        old = smith_left_kernel(IntMatrix(transposed, cols=neq))
        assert kernel == hermite_rows([y[:nunk] for y in old], nunk)
        for z in kernel:
            for e, m in zip(eqs, moduli):
                value = sum(c * x for c, x in zip(e, z))
                assert (value == 0) if m == 0 else (value % m == 0)


def test_hermite_coordinates_random_bases():
    rng = random.Random(41)
    checked_outside = 0
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        basis = hermite_rows(_random_rows(rng, k, n, density=0.7, bound=5), n)
        coeffs = tuple(rng.randint(-4, 4) for _ in basis)
        as_matrix = IntMatrix(basis, cols=n)
        vec = row_times_matrix(coeffs, as_matrix)
        coords = hermite_coordinates(basis, vec)
        assert coords == coeffs  # Hermite rows are independent
        assert row_times_matrix(coords, as_matrix) == vec
        eqs = [[b[j] for b in basis] for j in range(n)]
        res = solve_congruences(sparse_rows(eqs), [0] * n, rhs=list(vec), unknowns=len(basis))
        assert res is not None and res[0] == coords
        off = tuple(rng.randint(-3, 3) for _ in range(n))
        if not lattice_contains(basis, off):
            outside = vec_add(vec, off)
            assert hermite_coordinates(basis, outside) is None
            assert solve_congruences(
                sparse_rows(eqs), [0] * n, rhs=list(outside), unknowns=len(basis)
            ) is None
            checked_outside += 1
    assert checked_outside > 100
    with pytest.raises(ValueError):
        hermite_coordinates(((1, 0),), (1, 0, 0))


def check_diagonal_presentation(relations, rank):
    pres = diagonal_presentation(relations, rank)
    k = len(pres.orders)
    assert all(d == 0 or d > 1 for d in pres.orders)
    assert pres.project.rows == rank and pres.project.cols == k
    assert pres.lift.rows == k and pres.lift.cols == rank
    assert pres.lift.mul(pres.project) == IntMatrix.identity(k)
    lattice = hermite_rows(relations, rank)
    for row in relations:
        image = row_times_matrix(row, pres.project)
        assert all(x % d == 0 if d else x == 0 for x, d in zip(image, pres.orders))
        assert pres.coordinates(row) == tuple([0] * k)
    # v - (v·project)·lift is linear in v, so the unit vectors suffice
    for e in range(rank):
        v = tuple(1 if j == e else 0 for j in range(rank))
        back = row_times_matrix(row_times_matrix(v, pres.project), pres.lift)
        assert lattice_contains(lattice, tuple(x - y for x, y in zip(v, back)))
    return pres


def test_diagonal_presentation():
    # no relations, all-unit factors, an empty rank, zero rows
    edges = {
        ((), 3): (0, 0, 0),
        (((2, 1), (1, 1)), 2): (),
        (((1,),), 1): (),
        ((), 0): (),
        (((2, 4), (6, 8)), 2): (2, 4),
        (((0, 0), (0, 6)), 2): (6, 0),
    }
    for (relations, rank), orders in edges.items():
        assert check_diagonal_presentation(relations, rank).orders == orders
    rng = random.Random(17)
    for _ in range(150):
        rank = rng.randint(1, 5)
        relations = [
            [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(rank)]
            for _ in range(rng.randint(0, 5))
        ]
        check_diagonal_presentation(relations, rank)


def _build_action_relations(rank):
    """The relation matrices ``bilinear._build_action`` hands to
    ``diagonal_presentation`` while classifying the generator's first ring
    of this rank under ``Random(1)``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    seen = []

    def recording(relations, width):
        seen.append((relations, width))
        return diagonal_presentation(relations, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bilinear_module, "diagonal_presentation", recording)
        classify_ring(FdzRing(*random_ring_data(random.Random(1), rank)))
    assert seen
    return seen


def test_diagonal_presentation_matches_the_four_transform_smith():
    """Same orders, project and lift as the oracle Smith form on every shape
    the elimination has to get right, so its pivots and steps are the
    oracle's."""
    rng = random.Random(31)
    cases = [([], 0), ([], 3), ([[], []], 0), ([[0, 0], [0, 0]], 2), ([[2, 0], [0, 3]], 2)]
    for n in range(400):
        m, w = rng.randint(1, 7), rng.randint(1, 7)
        if n % 4 == 0:
            m = w + rng.randint(1, 3)
        elif n % 4 == 1:
            w = m + rng.randint(1, 3)
        rows = _random_rows(rng, m, w, bound=10**12 if n % 7 == 0 else 20)
        if n % 5 == 2 and m >= 2:
            first, second = rng.sample(range(m), 2)
            rows[second] = [rng.choice((-3, 2, 5)) * x for x in rows[first]]
        cases.append((rows, w))
    for _ in range(40):
        # wide and sparse: nearly every pivot is a unit
        m = rng.randint(5, 30)
        w = m + rng.randint(1, 10)
        cases.append((_random_rows(rng, m, w, density=0.08, bound=2), w))
    cases += _build_action_relations(12) + _build_action_relations(16)
    shapes = set()
    for rows, width in cases:
        pres = diagonal_presentation(rows, width)
        assert pres == reference_diagonal_presentation(rows, width), (rows, width)
        shapes.add(
            "empty" if not rows else "narrow" if not width else
            "tall" if len(rows) > width else "wide" if len(rows) < width else "square"
        )
        if pres.orders.count(0) > width - min(len(rows), width):
            shapes.add("deficient")
        if any(abs(x) >= 10**12 for r in rows for x in r):
            shapes.add("large")
        if len(rows) >= 5 and width - len(pres.orders) >= len(rows) - 1:
            shapes.add("units")
    assert shapes == {"empty", "narrow", "tall", "wide", "square", "deficient", "large", "units"}


def _smith_diagonal_cases():
    """Seeded matrices with the shapes the elimination has to get right."""
    rng = random.Random(41)
    cases = [
        ([], 3),
        ([[], []], 0),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[2, 4], [6, 8]], 2),
        ([[0, 0], [0, 6]], 2),
        ([[-4, 0], [0, -6]], 2),
        ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 3),
        ([[4], [6], [10], [0]], 1),
    ]
    for n in range(300):
        m, w = rng.randint(1, 7), rng.randint(1, 6)
        if n % 4 == 0:
            m = w + rng.randint(1, 3)
        rows = _random_rows(rng, m, w, bound=20)
        if n % 5 == 1 and m >= 2:
            # rank-deficient: one row a multiple of another
            first, second = rng.sample(range(m), 2)
            rows[second] = [rng.choice((-3, 2, 5)) * x for x in rows[first]]
        cases.append((rows, w))
    return cases


def test_smith_diagonal_over_z_matches_smith():
    shapes = set()
    for rows, width in _smith_diagonal_cases():
        expect = smith(IntMatrix(rows, cols=width)).diagonal
        assert smith_diagonal(rows, width) == expect, rows
        shapes.add(
            "empty" if not rows else "narrow" if not width else
            "tall" if len(rows) > width else "deficient" if 0 in expect else "full"
        )
    assert shapes == {"empty", "narrow", "tall", "deficient", "full"}


def test_smith_diagonal_over_z_mod_n_is_gcd_with_n():
    for rows, width in _smith_diagonal_cases():
        integral = smith(IntMatrix(rows, cols=width)).diagonal
        for n in range(2, 17):
            assert smith_diagonal(rows, width, n) == tuple(gcd(d, n) for d in integral), (rows, n)


def test_smith_diagonal_rejects_ragged_rows():
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]], 2)


def _congruence_system(rng):
    """A random system with moduli of both signs and 0, equations that
    vanish mod their modulus, right-hand sides that are multiples of it,
    and exact or near repeats."""
    nunk, neq = rng.randint(0, 5), rng.randint(0, 7)
    moduli = [rng.choice((0, 0, 1, 2, 3, 4, 6, 12, -4, -6)) for _ in range(neq)]
    eqs = _random_rows(rng, neq, nunk)
    for r, m in enumerate(moduli):
        if m and rng.random() < 0.3:
            eqs[r] = [m * rng.randint(-2, 2) for _ in range(nunk)]
    z = [rng.randint(-3, 3) for _ in range(nunk)]
    solvable = rng.random() < 0.6
    rhs = [
        sum(c * x for c, x in zip(e, z)) + m * rng.randint(-2, 2) if solvable else rng.randint(-6, 6)
        for e, m in zip(eqs, moduli)
    ]
    for _ in range(rng.choice((0, 0, 1, 3))):
        if eqs:
            r = rng.randrange(len(eqs))
            eqs.append(list(eqs[r]))
            moduli.append(rng.choice((moduli[r], moduli[r], -moduli[r], 2 * moduli[r])))
            rhs.append(rhs[r] + rng.choice((0, 0, moduli[r], 1)))
    return eqs, moduli, rhs, nunk


def _single_entry_rows(rng, width):
    """Rows m·e_c, often several in one column with different m."""
    rows = []
    for _ in range(rng.randint(0, 4) if width else 0):
        c = rng.randrange(width)
        for m in rng.sample((2, 3, 4, 6, -4, -9, 12), rng.randint(1, 3)):
            rows.append([m if j == c else 0 for j in range(width)])
    return rows


def _corpus_pair_systems():
    for ring in corpus_rings():
        f = induced_bilinear_map(ring)
        eqs, moduli = reference_pair_conditions(f)
        yield eqs, moduli, f.domain_rank ** 2 + f.codomain_rank ** 2


def test_sparse_kernel_matches_the_dense_reference():
    """The sparse echelon and the pre-reduced congruence solve give the
    same bytes as the dense echelon on the system as written."""

    def same_solve(eqs, moduli, rhs, nunk):
        sparse = sparse_rows(eqs)
        assert solve_congruences(sparse, moduli, unknowns=nunk) == reference_solve_congruences(
            eqs, moduli, unknowns=nunk
        )
        got = solve_congruences(sparse, moduli, rhs=rhs, unknowns=nunk)
        assert got == reference_solve_congruences(eqs, moduli, rhs=rhs, unknowns=nunk)
        return got

    def same_lattices(rows, width, target, rhs):
        assert hermite_rows(rows, width) == reference_hermite_rows(rows, width)
        w = IntMatrix(rows, cols=width)
        assert preimage_lattice(w, target) == reference_preimage_lattice(w, target)
        assert affine_preimage(w, target, rhs) == reference_affine_preimage(w, target, rhs)

    # width 0, no rows, zero rows, zero equations with a nonzero rhs
    same_lattices([[], []], 0, [], [])
    same_lattices([], 3, [[0, 0, 0]], [1, 0, 0])
    same_lattices([[0, 0], [0, 0]], 2, [[2, 0], [3, 0], [0, -4], [0, 6]], [1, 1])
    assert same_solve([], [], [], 0) == ((), ())
    assert same_solve([[], []], [0, 5], [0, 5], 0) == ((), ())
    assert same_solve([[0, 0]], [0], [3], 2) is None
    assert same_solve([[6, 0]], [3], [1], 2) is None
    assert same_solve([[6, -3]], [-3], [9], 2) == ((0, 0), ((1, 0), (0, 1)))
    assert same_solve([[1, 0], [1, 0]], [4, 6], [1, 1], 2) == ((1, 0), ((12, 0), (0, 1)))
    rng = random.Random(53)
    counts = {"none": 0, "solved": 0}
    for trial in range(400):
        eqs, moduli, rhs, nunk = _congruence_system(rng)
        counts["none" if same_solve(eqs, moduli, rhs, nunk) is None else "solved"] += 1
        rows = _random_rows(rng, rng.randint(0, 5), nunk, bound=9) + _single_entry_rows(rng, nunk)
        rng.shuffle(rows)
        width = rng.randint(0, 4)
        target = _random_rows(rng, rng.randint(0, 3), width) + _single_entry_rows(rng, width)
        w_rows = _random_rows(rng, rng.randint(0, 5), width, bound=9)
        same_lattices(rows, nunk, [], [0] * nunk)
        same_lattices(w_rows, width, target, [rng.randint(-5, 5) for _ in range(width)])
    assert counts["none"] > 80 and counts["solved"] > 150
    for eqs, moduli, nunk in _corpus_pair_systems():
        same_solve(eqs, moduli, [0] * len(eqs), nunk)


def _differential_rings() -> list[FdzRing]:
    """The corpus, 200 generator rings of ranks 2-8 and the first rank-12
    ring of ``Random(1)``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        from gen import random_ring_data
    finally:
        sys.path.pop(0)
    rings = corpus_rings()
    rng = random.Random(19)
    rings += [FdzRing(*random_ring_data(rng, 2 + i % 7)) for i in range(200)]
    return rings + [FdzRing(*random_ring_data(random.Random(1), 12))]


def test_sparse_systems_match_the_dense_reference():
    """The library's sparse pairing equations and pair conditions are the
    reference's dense rows, row for row in the same order (the pair
    conditions without the reference's order rows of phi), and solve to the
    reference solution of all the dense rows: the annihilator's equations, the
    same with unity's right-hand side, and the pair conditions.  The dense
    echelon is quadratic in the rows, so the pair systems of more than 300
    rows (ranks 6-8 and 12) are checked row for row only."""
    solved_pairs = 0
    for ring in _differential_rings():
        r = ring.rank
        eqs, moduli = _pairing_equations(ring.tensor, ring.orders, r, range(r))
        dense, dense_moduli = reference_pairing_equations(ring.tensor, ring.orders, r, range(r))
        assert eqs == sparse_rows(dense) and moduli == dense_moduli
        assert solve_congruences(eqs, moduli, unknowns=r) == reference_solve_congruences(
            dense, moduli, unknowns=r
        )
        rhs = [1 if j == k else 0 for j in range(r) for k in range(r) for _ in range(2)]
        assert solve_congruences(eqs, moduli, rhs=rhs, unknowns=r) == reference_solve_congruences(
            dense, moduli, rhs=rhs, unknowns=r
        )
        f = induced_bilinear_map(ring)
        if f.domain_group.is_trivial or f.codomain_group.is_trivial:
            continue
        eqs, moduli = _pair_conditions(f)
        dense, dense_moduli = reference_pair_conditions(f)
        # the library leaves out the reference's leading order rows of phi,
        # which the psi order rows imply for a nondegenerate f
        phi_rows = f.domain_rank * sum(1 for d in f.domain_orders if d)
        assert eqs == sparse_rows(dense[phi_rows:]) and moduli == dense_moduli[phi_rows:]
        if len(dense) <= 300:
            nunk = f.domain_rank ** 2 + f.codomain_rank ** 2
            assert solve_congruences(eqs, moduli, unknowns=nunk) == reference_solve_congruences(
                dense, dense_moduli, unknowns=nunk
            )
            solved_pairs += 1
    assert solved_pairs > 100


def test_echelon_keeps_modulus_columns_reduced():
    """Right of its pivot, every echelon row keeps the entries of a column
    holding single-entry rows m·e_c below g, the gcd of those m; without the
    reduction they grow with each Euclid step."""
    rng = random.Random(59)
    checked = 0
    for _ in range(300):
        width = rng.randint(2, 7)
        rows = _random_rows(rng, rng.randint(2, 8), width, density=0.8, bound=40)
        rows += _single_entry_rows(rng, width)
        rng.shuffle(rows)
        g = {}
        for r in rows:
            support = [j for j, x in enumerate(r) if x]
            if len(support) == 1:
                g[support[0]] = gcd(g.get(support[0], 0), r[support[0]])
        basis = _echelon(_sparse_rows(rows, width), width)
        assert hermite_rows(rows, width) == reference_hermite_rows(rows, width)
        for col, row in basis:
            assert row[col] > 0 and min(row) == col
            for j, x in row.items():
                if j > col and j in g:
                    assert abs(x) < g[j]
                    checked += 1
    assert checked > 200
