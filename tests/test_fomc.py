import random

import pytest

from fdzring import fomc
from fdzring.fomc import (
    CARRIER_GUARD,
    Add,
    And,
    Eq,
    Exists,
    Forall,
    FormulaError,
    FormulaParseError,
    Implies,
    NESTING_GUARD,
    Mul,
    Neg,
    Not,
    Or,
    Var,
    Zero,
    builtin,
    defined_set,
    evaluate,
    exists_closure,
    forall_block,
    format_formula,
    free_variables,
    parse_formula,
    phi,
    psi,
    theta,
    _eval,
    _Model,
)
from fdzring.rings import FdzRing, characteristic_ideals, reduce_mod_n, z0_ring

from oracles import (
    NAMED_RINGS,
    brute_force_chain,
    complete_singletons,
    corpus_ring,
    random_finite_ring,
    subgroup_elements,
    sums_of_products,
    tarski_defined_set,
    tarski_evaluate,
    z_mod,
)


def quantifier_count(f, kind):
    match f:
        case Exists(_, body):
            return (1 if kind == "exists" else 0) + quantifier_count(body, kind)
        case Forall(_, body):
            return (1 if kind == "forall" else 0) + quantifier_count(body, kind)
        case Eq(_, _):
            return 0
        case Not(x):
            return quantifier_count(x, kind)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return quantifier_count(l, kind) + quantifier_count(r, kind)
    raise AssertionError


def test_builtin_shapes():
    assert free_variables(theta(1)) == {"x"}
    assert free_variables(theta(3)) == {"x"}
    for n in (1, 2, 3):
        f = phi(n)
        assert not free_variables(f)
        assert quantifier_count(f, "forall") == 2 * (n + 1)
        assert quantifier_count(f, "exists") == 2 * n
        p = psi(n)
        assert free_variables(p) == {f"x{i}" for i in range(1, n + 1)}
    with pytest.raises(FormulaError):
        builtin("nope", 1)
    with pytest.raises(FormulaError):
        theta(0)


def test_evaluate_examples():
    z4 = z_mod(4)
    assert evaluate(z4, theta(1), {"x": (3,)})
    null2 = reduce_mod_n(z0_ring(), 2)
    assert not evaluate(null2, theta(1), {"x": (1,)})
    assert evaluate(z4, phi(1))


def test_defined_set_examples():
    z4 = z_mod(4)
    assert defined_set(z4, theta(1)) == [(0,), (1,), (2,), (3,)]
    null2 = reduce_mod_n(z0_ring(), 2)
    assert defined_set(null2, theta(1)) == [(0,)]
    wm2 = reduce_mod_n(corpus_ring("w"), 2)
    assert defined_set(wm2, theta(3)) == [(0, 0, 0), (0, 0, 1)]


def test_evaluate_guards():
    with pytest.raises(FormulaError):
        evaluate(corpus_ring("z"), phi(1))
    with pytest.raises(FormulaError):
        evaluate(z_mod(4), theta(1))  # unassigned free variable
    with pytest.raises(FormulaError):
        defined_set(z_mod(4), phi(1))


def test_square_definability_on_corpus_quotients():
    for name in NAMED_RINGS:
        ring = corpus_ring(name)
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


def test_square_definability_on_random_finite():
    rng = random.Random(77)
    checked = 0
    while checked < 15:
        ring = random_finite_ring(rng, max_order=16)
        k = ring.rank
        if not evaluate(ring, phi(k)):
            continue
        defined = set(map(tuple, defined_set(ring, theta(k))))
        assert defined == brute_force_chain(ring)["sq"]
        checked += 1


def test_psi_matches_complete_system_kernel():
    # cross-module oracle: a lifted generator subset satisfies psi exactly
    # when the pairing-kernel test of the complete-system search passes
    import itertools

    from fdzring.bilinear import induced_bilinear_map
    from fdzring.rings import pairing_kernel

    for ring in (z_mod(4), reduce_mod_n(corpus_ring("w"), 2), reduce_mod_n(corpus_ring("zx2"), 2)):
        f = induced_bilinear_map(ring)
        hat = characteristic_ideals(ring).hat
        m = f.domain_rank
        for size in range(1, m + 1):
            for combo in itertools.combinations(range(m), size):
                lifted = [hat.lift.row(i) for i in combo]
                assignment = {f"x{t+1}": v for t, v in enumerate(lifted)}
                truth = evaluate(ring, psi(size), assignment)
                kernel = pairing_kernel(f.values, f.codomain_orders, f.domain_group, combo)
                assert truth == kernel.is_zero(), (
                    ring.orders,
                    combo,
                )


def test_annihilator_definability():
    # the defining condition of the annihilator, evaluated by the model
    # checker, matches the lattice computation
    annihilates = Forall(
        "z",
        And(
            Eq(Mul(Var("x"), Var("z")), Zero()),
            Eq(Mul(Var("z"), Var("x")), Zero()),
        ),
    )
    for ring in (z_mod(4), reduce_mod_n(corpus_ring("w"), 2)):
        chain = characteristic_ideals(ring)
        defined = set(map(tuple, defined_set(ring, annihilates)))
        assert defined == subgroup_elements(ring, chain.ann)


def test_psi_matches_pairing_kernel():
    rng = random.Random(3)
    for ring in (z_mod(4), reduce_mod_n(corpus_ring("w"), 2)):
        elements = list(ring.elements())
        ann = brute_force_chain(ring)["ann"]
        for _ in range(12):
            n = rng.randint(1, 2)
            tuple_choice = [rng.choice(elements) for _ in range(n)]
            assignment = {f"x{i+1}": v for i, v in enumerate(tuple_choice)}
            truth = evaluate(ring, psi(n), assignment)
            kernel = {
                y
                for y in elements
                if all(
                    ring.mul(y, x) == ring.zero() and ring.mul(x, y) == ring.zero()
                    for x in tuple_choice
                )
            }
            assert truth == (kernel <= ann)


def test_logical_equivalences_randomized():
    rng = random.Random(123)
    rings = [z_mod(2), z_mod(3), reduce_mod_n(corpus_ring("zx2"), 2)]

    def rand_term(depth, names):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(names)) if rng.random() < 0.8 else Zero()
        kind = rng.choice(["add", "mul", "neg"])
        if kind == "neg":
            return Neg(rand_term(depth - 1, names))
        left, right = rand_term(depth - 1, names), rand_term(depth - 1, names)
        return Add(left, right) if kind == "add" else Mul(left, right)

    names = ["u", "v"]
    for _ in range(120):
        body = Eq(rand_term(2, names), rand_term(2, names))
        ring = rng.choice(rings)
        # double negation
        closed = exists_closure(body)
        assert evaluate(ring, closed) == evaluate(ring, Not(Not(closed)))
        # prenex commutation of like quantifiers
        fa = Forall("u", Forall("v", body))
        fb = Forall("v", Forall("u", body))
        assert evaluate(ring, fa) == evaluate(ring, fb)
        ea = Exists("u", Exists("v", body))
        eb = Exists("v", Exists("u", body))
        assert evaluate(ring, ea) == evaluate(ring, eb)


def test_optimizer_matches_naive():
    rng = random.Random(9)
    rings = [z_mod(2), z_mod(3), z_mod(4), reduce_mod_n(corpus_ring("w"), 2)]

    def rand_term(depth, names):
        if depth == 0 or rng.random() < 0.35:
            return Var(rng.choice(names)) if rng.random() < 0.8 else Zero()
        kind = rng.choice(["add", "mul", "neg"])
        if kind == "neg":
            return Neg(rand_term(depth - 1, names))
        left, right = rand_term(depth - 1, names), rand_term(depth - 1, names)
        return Add(left, right) if kind == "add" else Mul(left, right)

    def rand_formula(depth, names):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return Eq(rand_term(2, names), rand_term(2, names))
        if roll < 0.5:
            return Not(rand_formula(depth - 1, names))
        if roll < 0.75:
            ctor = Exists if rng.random() < 0.5 else Forall
            return ctor(rng.choice(names), rand_formula(depth - 1, names))
        ctor = rng.choice([And, Or, Implies])
        return ctor(rand_formula(depth - 1, names), rand_formula(depth - 1, names))

    names = ["u", "v", "w"]
    for _ in range(400):
        formula = exists_closure(rand_formula(3, names))
        ring = rng.choice(rings)
        assert evaluate(ring, formula) == tarski_evaluate(ring, formula), format_formula(formula)


def test_optimizer_matches_naive_wider_carriers():
    # same agreement property over carriers up to order 16, where the block
    # paths actually fire on multi-variable equations
    rng = random.Random(41)
    rings = [z_mod(16), reduce_mod_n(corpus_ring("w"), 2), reduce_mod_n(corpus_ring("zx2"), 3)]

    def rand_term(depth, names):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(names)) if rng.random() < 0.85 else Zero()
        kind = rng.choice(["add", "add", "mul", "neg"])
        if kind == "neg":
            return Neg(rand_term(depth - 1, names))
        left, right = rand_term(depth - 1, names), rand_term(depth - 1, names)
        return Add(left, right) if kind == "add" else Mul(left, right)

    names = ["p", "q", "r"]
    for _ in range(150):
        body = Eq(rand_term(3, names), rand_term(3, names))
        prefix = list(names)
        rng.shuffle(prefix)
        formula = body
        for var in prefix[: rng.randint(1, 3)]:
            ctor = Exists if rng.random() < 0.5 else Forall
            formula = ctor(var, formula)
        formula = exists_closure(formula)
        ring = rng.choice(rings)
        assert evaluate(ring, formula) == tarski_evaluate(ring, formula), format_formula(formula)


def test_defined_set_matches_naive(monkeypatch):
    # one free variable x under every connective, with quantifiers nested
    # below connectives and binders that shadow x or an outer binder; each
    # formula also runs with blocks of 3, so that an early exit after one
    # block and a connective's narrowed domain cross block boundaries
    rng = random.Random(2026)
    rings = [
        z_mod(6),
        reduce_mod_n(corpus_ring("w"), 2),
        reduce_mod_n(corpus_ring("zx2"), 3),
        reduce_mod_n(corpus_ring("zxz0"), 4),
        reduce_mod_n(corpus_ring("zx2"), 8),
    ]
    assert max(ring.order for ring in rings) == 64
    names = ["x", "u", "v"]

    def rand_term(depth):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(names)) if rng.random() < 0.85 else Zero()
        kind = rng.choice(["add", "mul", "mul", "neg"])
        if kind == "neg":
            return Neg(rand_term(depth - 1))
        left, right = rand_term(depth - 1), rand_term(depth - 1)
        return Add(left, right) if kind == "add" else Mul(left, right)

    def rand_formula(depth, quantifiers):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return Eq(rand_term(2), rand_term(2))
        if roll < 0.45:
            return Not(rand_formula(depth - 1, quantifiers))
        if roll < 0.65 and quantifiers:
            ctor = Exists if rng.random() < 0.5 else Forall
            return ctor(rng.choice(names), rand_formula(depth - 1, quantifiers - 1))
        ctor = rng.choice([And, Or, Implies])
        return ctor(rand_formula(depth - 1, quantifiers), rand_formula(depth - 1, quantifiers))

    def nesting(f):
        match f:
            case Exists(_, body) | Forall(_, body):
                return 1 + nesting(body)
            case Not(x):
                return nesting(x)
            case And(l, r) | Or(l, r) | Implies(l, r):
                return max(nesting(l), nesting(r))
        return 0

    checked = 0
    while checked < 300:
        ring = rng.choice(rings)
        formula = rand_formula(3, 2)
        for name in sorted(free_variables(formula) - {"x"}):
            formula = (Exists if rng.random() < 0.5 else Forall)(name, formula)
        # the naive evaluator pays a factor N per nested quantifier
        if free_variables(formula) != {"x"} or ring.order ** (nesting(formula) + 1) > 5000:
            continue
        expected = tarski_defined_set(ring, formula)
        assert defined_set(ring, formula) == expected, (ring.orders, format_formula(formula))
        with monkeypatch.context() as patch:
            patch.setattr(fomc, "BLOCK", 3)
            assert defined_set(ring, formula) == expected, (ring.orders, format_formula(formula))
        checked += 1
    for ring in (reduce_mod_n(corpus_ring("w"), 2), reduce_mod_n(corpus_ring("zx2"), 3)):
        free = sorted(free_variables(psi(2)))
        for closure in (exists_closure(psi(2)), forall_block(free, psi(2))):
            assert evaluate(ring, closure) == tarski_evaluate(ring, closure), ring.orders


def test_block_evaluation_work_bound(monkeypatch):
    # counted, not timed: every call of _eval, the recursive ones included.
    # One recursion per element made 102,744 calls for psi(1) here (about
    # 1.6 N^2) and 2,919 for the existential closure of psi(2)
    ring = reduce_mod_n(corpus_ring("zx2"), 16)
    assert ring.order == 256
    calls = 0
    plain = fomc._eval

    def counted(*args):
        nonlocal calls
        calls += 1
        return plain(*args)

    monkeypatch.setattr(fomc, "_eval", counted)
    assert defined_set(ring, psi(1)) == sorted(complete_singletons(ring))
    assert calls <= 8 * ring.order
    calls = 0
    assert evaluate(ring, exists_closure(psi(2)))
    assert calls <= 2919


def test_value_set_path_speed():
    # the eight-universal-variable sentence on an order-32 quotient is only
    # tractable through the value-set path; this run doubles as a regression
    # guard for it
    wm4 = reduce_mod_n(corpus_ring("w"), 4)
    assert wm4.order == 32
    assert evaluate(wm4, phi(3))


def test_compiled_tables_match_ring_arithmetic():
    rng = random.Random(29)
    rings = [reduce_mod_n(corpus_ring(name), n) for name in NAMED_RINGS for n in range(2, 7)]
    rings += [random_finite_ring(rng, max_order=24) for _ in range(10)]
    rings.append(FdzRing([], []))
    assert any(ring.rank == 0 for ring in rings)
    for ring in rings:
        model = _Model(ring)
        elements = list(ring.elements())
        assert model.carrier == elements
        assert [model.index(vec) for vec in elements] == list(range(len(elements)))
        for a, x in enumerate(elements):
            assert elements[model.neg(a)] == ring.neg(x)
            add_row, mul_row = model.add_row(a), model.mul_row(a)
            for b, y in enumerate(elements):
                assert elements[add_row[b]] == ring.add(x, y), (ring.orders, x, y)
                assert elements[mul_row[b]] == ring.mul(x, y), (ring.orders, x, y)


def test_compiled_rows_are_built_on_demand():
    # a quantifier-free formula on the largest carrier the guard admits
    # touches one multiplication row, the rank-many addition rows it is
    # built from, and one addition row: never the N x N tables
    ring = reduce_mod_n(corpus_ring("zx2"), 64)
    assert ring.order == CARRIER_GUARD
    model = _Model(ring)
    x, y = (3, 5), (7, 11)
    formula = Eq(Mul(Var("x"), Var("y")), Add(Var("y"), Var("x")))
    truth = _eval(model, formula, {"x": model.index(x), "y": model.index(y)})
    assert truth == tarski_evaluate(ring, formula, {"x": x, "y": y})
    assert model.rows_built <= ring.rank + 2


def test_memo_reuse_matches_plain():
    # one subterm or subformula object evaluated under different bindings
    yy = Mul(Var("y"), Var("y"))
    formulas = [
        # shadowed binder: the inner y is not the outer one
        Exists("y", And(Eq(Var("x"), yy), Exists("y", Eq(Add(Var("x"), Var("y")), yy)))),
        # the same object quantified in one place and bound from outside in
        # another, next to a value set that depends on the defined variable
        And(
            Exists("y", Eq(Var("x"), yy)),
            Forall("y", Exists("z", Eq(Mul(Var("z"), Var("x")), yy))),
        ),
        Or(Forall("y", Eq(Mul(Var("x"), yy), Zero())), Exists("y", Eq(yy, Neg(Var("x"))))),
    ]
    rings = [reduce_mod_n(corpus_ring("w"), 4), reduce_mod_n(corpus_ring("zx2"), 4), z_mod(6)]
    for ring in rings:
        for formula in formulas:
            assert defined_set(ring, formula) == tarski_defined_set(ring, formula), (
                ring.orders,
                format_formula(formula),
            )
    for ring in (reduce_mod_n(corpus_ring("w"), 2), reduce_mod_n(corpus_ring("zx2"), 3)):
        for closure in (Exists("x2", psi(2)), Forall("x2", psi(2))):
            for v in ring.elements():
                assert evaluate(ring, closure, {"x1": v}) == tarski_evaluate(
                    ring, closure, {"x1": v}
                ), (ring.orders, v, format_formula(closure))


def test_definability_formulas_against_sumsets():
    for ring in (
        reduce_mod_n(corpus_ring("w"), 4),
        reduce_mod_n(corpus_ring("zx2"), 8),
        reduce_mod_n(corpus_ring("zxz0"), 6),
    ):
        once, twice = sums_of_products(ring, 1), sums_of_products(ring, 2)
        assert defined_set(ring, theta(1)) == sorted(once)
        assert defined_set(ring, theta(2)) == sorted(twice)
        assert evaluate(ring, phi(1)) == (twice <= once)
        assert defined_set(ring, psi(1)) == sorted(complete_singletons(ring))


def test_parse_and_format():
    text = "(exists x1 (eq x (mul x1 x1)))"
    parsed = parse_formula(text)
    assert format_formula(parsed) == text
    for f in (theta(2), phi(1), psi(2)):
        assert parse_formula(format_formula(f)) == f
    sugar = parse_formula("(eq (sub u v) 0)")
    assert sugar == Eq(Add(Var("u"), Neg(Var("v"))), Zero())
    assert format_formula(sugar) == "(eq (sub u v) 0)"


# one formula per operator of the syntax table, and the same operator with
# one argument too many or too few
OPERATOR_CASES = [
    ("(eq (add x y) 0)", "(eq (add x) 0)"),
    ("(eq (mul x y) 0)", "(eq (mul x y x) 0)"),
    ("(eq (neg x) 0)", "(eq (neg x y) 0)"),
    ("(eq (sub x y) 0)", "(eq (sub x) 0)"),
    ("(eq x y)", "(eq x y 0)"),
    ("(not (eq x 0))", "(not (eq x 0) (eq y 0))"),
    ("(and (eq x 0) (eq y 0))", "(and (eq x 0))"),
    ("(or (eq x 0) (eq y 0))", "(or (eq x 0))"),
    ("(implies (eq x 0) (eq y 0))", "(implies (eq x 0))"),
    ("(exists y (eq x y))", "(exists y)"),
    ("(forall y (eq x y))", "(forall y z (eq x y))"),
]


@pytest.mark.parametrize("text, wrong_arity", OPERATOR_CASES)
def test_each_operator_round_trips_and_checks_its_arity(text, wrong_arity):
    parsed = parse_formula(text)
    assert format_formula(parsed) == text
    assert parse_formula(format_formula(parsed)) == parsed
    with pytest.raises(FormulaParseError, match="bad (term|formula) operator"):
        parse_formula(wrong_arity)


def test_and_or_fold_left():
    a, b, c = (Eq(Var(v), Zero()) for v in "abc")
    assert parse_formula("(and (eq a 0) (eq b 0) (eq c 0))") == And(And(a, b), c)
    assert parse_formula("(or (eq a 0) (eq b 0) (eq c 0))") == Or(Or(a, b), c)
    assert format_formula(And(And(a, b), c)) == "(and (and (eq a 0) (eq b 0)) (eq c 0))"


def paren_depth(text):
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def test_builtin_refuses_what_the_parser_would():
    builders = {"theta": theta, "phi": phi, "psi": psi}
    for name, build in builders.items():
        for n in range(1, 8):
            assert builtin(name, n) == build(n)
        # the largest accepted arity prints to text the parser takes back;
        # the next one nests past the parser's guard and is refused unbuilt
        largest = max(n for n in range(1, 120) if paren_depth(format_formula(build(n))) <= NESTING_GUARD)
        text = format_formula(builtin(name, largest))
        assert paren_depth(text) <= NESTING_GUARD
        assert parse_formula(text) == build(largest)
        with pytest.raises(FormulaParseError):
            parse_formula(format_formula(build(largest + 1)))
        for n in (largest + 1, 300, 100_000, 10**18):
            with pytest.raises(FormulaError, match="beyond the limit"):
                builtin(name, n)
        # below arity 1 the refusal names k, not the builders' n
        for n in (0, -1):
            with pytest.raises(FormulaError, match=f"builtin {name} needs k at least 1, got k={n}"):
                builtin(name, n)


def test_parse_errors():
    for bad in ("", "(", "(eq x)", "(frob x y)", "(eq x y) trailing", "(exists 0 (eq x x))"):
        with pytest.raises(FormulaParseError):
            parse_formula(bad)
