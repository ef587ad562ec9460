"""First-order model checking on finite rings, in the language of rings
without unity: variables, 0, +, -, ., =, connectives, and quantifiers.

Evaluation is Tarskian over the full carrier.  Plain quantifier recursion
is exponential in the quantifier count, which the definability formulas
here (prenex blocks over one big equation) make unusable even at order 32,
so the evaluator first tries an exact value-set strategy: for a quantifier
block over an equation whose two sides use disjoint quantified variables,
the set of achievable values of each side is computed compositionally
(subterms with disjoint variable sets combine exactly via sumsets and
product sets) and the block reduces to a containment or intersection test.
The strategy is sound, not approximate: whenever exactness cannot be
guaranteed the evaluator falls back to plain enumeration.

Every call runs on a ring compiled for it.  Elements are numbered 0..N-1
in ``ring.elements()`` order (mixed radix, last coordinate fastest).
Negation is one list; the addition row of a is built by Horner over the
digits, and the multiplication row of a by bilinearity from the rank
products a·e_j and the addition table, each the first time a is used as a
left operand, so a formula that needs few lookups never pays N² (Libkin,
*Elements of Finite Model Theory*, ch. 6: bottom-up evaluation by relation
tables).  Two memos live on the compiled ring: value sets, keyed by (term,
its quantified variables, the values of its other free variables), and the
truth of quantifier nodes, keyed by (node, the values of its free
variables).  So a side of an equation that does not mention the defined
variable is built once, not once per element.  The tests check this
evaluator against a plain Tarskian one on coordinate tuples, kept in
``tests/oracles.py`` so that it shares no code with this module.

The concrete formula syntax is fully parenthesized prefix text, e.g.
``(exists x1 (eq x (mul x1 x1)))``; ``sub`` is sugar for adding a negation.
Parenthesis nesting deeper than ``NESTING_GUARD`` is refused at parse time,
and ``builtin`` refuses an arity whose formula would nest that deep.
"""

from __future__ import annotations

import itertools
from array import array
from functools import reduce
from typing import Sequence

from .intlinalg import record
from .rings import ELEMENT_LIMIT, FdzRing

# ``FdzRing.elements``'s cap, checked first so that an oversized carrier
# is a FormulaError
CARRIER_GUARD = ELEMENT_LIMIT
ENUMERATION_GUARD = 200_000
NESTING_GUARD = 200


class FormulaError(ValueError):
    pass


class FormulaParseError(FormulaError):
    pass


# -- syntax -------------------------------------------------------------------


@record
class Var:
    name: str


@record
class Zero:
    pass


@record
class Add:
    left: "Term"
    right: "Term"


@record
class Neg:
    arg: "Term"


@record
class Mul:
    left: "Term"
    right: "Term"


Term = Var | Zero | Add | Neg | Mul


@record
class Eq:
    left: Term
    right: Term


@record
class Not:
    arg: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


@record
class Implies:
    left: "Formula"
    right: "Formula"


@record
class Exists:
    var: str
    body: "Formula"


@record
class Forall:
    var: str
    body: "Formula"


Formula = Eq | Not | And | Or | Implies | Exists | Forall


def term_variables(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Zero():
            return frozenset()
        case Add(l, r) | Mul(l, r):
            return term_variables(l) | term_variables(r)
        case Neg(x):
            return term_variables(x)
    raise FormulaError(f"not a term: {t!r}")


def free_variables(f: Formula) -> frozenset[str]:
    match f:
        case Eq(l, r):
            return term_variables(l) | term_variables(r)
        case Not(x):
            return free_variables(x)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return free_variables(l) | free_variables(r)
        case Exists(v, body) | Forall(v, body):
            return free_variables(body) - {v}
    raise FormulaError(f"not a formula: {f!r}")


def conj(parts: Sequence[Formula]) -> Formula:
    return reduce(And, parts)


def sum_term(parts: Sequence[Term]) -> Term:
    if not parts:
        return Zero()
    return reduce(Add, parts)


def exists_block(names: Sequence[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


def forall_block(names: Sequence[str], body: Formula) -> Formula:
    for name in reversed(names):
        body = Forall(name, body)
    return body


# -- the definability formulas -------------------------------------------------


def theta(n: int) -> Formula:
    """x is a sum of n products (one free variable x)."""
    if n < 1:
        raise FormulaError("n must be at least 1")
    names = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    body = Eq(
        Var("x"),
        sum_term([Mul(Var(a), Var(b)) for a, b in names]),
    )
    return exists_block([v for pair in names for v in pair], body)


def phi(n: int) -> Formula:
    """Every sum of n+1 products is a sum of n products (a sentence)."""
    if n < 1:
        raise FormulaError("n must be at least 1")
    uni = [(f"x{i}", f"y{i}") for i in range(1, n + 2)]
    exi = [(f"s{i}", f"t{i}") for i in range(1, n + 1)]
    body = Eq(
        sum_term([Mul(Var(a), Var(b)) for a, b in uni]),
        sum_term([Mul(Var(a), Var(b)) for a, b in exi]),
    )
    inner = exists_block([v for pair in exi for v in pair], body)
    return forall_block([v for pair in uni for v in pair], inner)


def psi(n: int) -> Formula:
    """x1..xn form a complete system for the multiplication pairing.

    Anything that pairs to zero with every x_i from both sides must pair to
    zero with everything, i.e. vanish in the annihilator quotient (n free
    variables x1..xn).
    """
    if n < 1:
        raise FormulaError("n must be at least 1")
    zero = Zero()
    conditions = []
    for i in range(1, n + 1):
        conditions.append(Eq(Mul(Var("y"), Var(f"x{i}")), zero))
        conditions.append(Eq(Mul(Var(f"x{i}"), Var("y")), zero))
    annihilates = Forall(
        "z", And(Eq(Mul(Var("y"), Var("z")), zero), Eq(Mul(Var("z"), Var("y")), zero))
    )
    return Forall("y", Implies(conj(conditions), annihilates))


# Each builtin with the parenthesis depth of its text at arity n: theta
# nests 2n quantifiers over an equation with a sum of n products, phi 4n + 2
# quantifiers over sums of n + 1 and n products, and psi an implication
# whose premise chains 2n equations under one universal.
_BUILTINS = {
    "theta": (theta, lambda n: 3 * n + 1),
    "phi": (phi, lambda n: 5 * n + 4),
    "psi": (psi, lambda n: max(2 * n + 3, 6)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, n: int) -> Formula:
    """The named definability formula at arity n.

    Refused, before it is built, when it would nest deeper than
    ``NESTING_GUARD``, the depth ``parse_formula`` accepts, so every
    builtin prints to text that parses back and evaluates within the
    recursion limit.
    """
    if name not in _BUILTINS:
        raise FormulaError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    build, depth = _BUILTINS[name]
    if depth(n) > NESTING_GUARD:
        raise FormulaError(
            f"builtin {name} with k={n} nests {depth(n)} deep, beyond the limit {NESTING_GUARD}"
        )
    return build(n)


def exists_closure(f: Formula) -> Formula:
    return exists_block(sorted(free_variables(f)), f)


# -- evaluation ----------------------------------------------------------------


class _Model:
    """A finite ring compiled to index tables, plus the memos of one call.

    ``carrier[i]`` is element i and ``index`` maps a reduced coordinate
    tuple back to i.  Rows are ``array('H')`` (the carrier guard is below
    2**16) and ``rows_built`` counts them.
    """

    def __init__(self, ring: FdzRing):
        if ring.order is None:
            raise FormulaError("model checking requires a finite ring")
        if ring.order > CARRIER_GUARD:
            raise FormulaError(
                f"carrier of size {ring.order} exceeds the guard {CARRIER_GUARD}"
            )
        self.ring = ring
        self.carrier = list(ring.elements())
        self.size = len(self.carrier)
        self.elements = range(self.size)
        self.full = set(self.elements)
        self.zero = 0
        self.neg = self._horner([[-t % d for t in range(d)] for d in ring.orders]).__getitem__
        self._add_rows: list[array | None] = [None] * self.size
        self._mul_rows: list[array | None] = [None] * self.size
        self.rows_built = 0
        self.value_sets: dict = {}
        self.truth: dict = {}
        self._names: dict[int, tuple[str, ...]] = {}

    def index(self, vec: Sequence[int]) -> int:
        i = 0
        for x, d in zip(vec, self.ring.orders):
            i = i * d + x
        return i

    def _horner(self, digit_maps: Sequence[Sequence[int]]) -> list[int]:
        """For every element c in carrier order, the index of the element
        whose k-th coordinate is digit_maps[k][c_k]."""
        out = [0]
        for digits, d in zip(digit_maps, self.ring.orders):
            out = [v * d + s for v in out for s in digits]
        return out

    def add_row(self, a: int) -> array:
        row = self._add_rows[a]
        if row is None:
            digits = [
                [(x + t) % d for t in range(d)]
                for x, d in zip(self.carrier[a], self.ring.orders)
            ]
            row = self._add_rows[a] = array("H", self._horner(digits))
            self.rows_built += 1
        return row

    def mul_row(self, a: int) -> array:
        """a·b for every b, by bilinearity: walking b's digits in carrier
        order, each unit of b_j adds the rank product a·e_j once."""
        row = self._mul_rows[a]
        if row is None:
            ring = self.ring
            out = [0]
            for j, d in enumerate(ring.orders):
                step = self.add_row(self.index(ring.mul(self.carrier[a], ring.generator(j))))
                walked = []
                for v in out:
                    for _ in range(d):
                        walked.append(v)
                        v = step[v]
                out = walked
            row = self._mul_rows[a] = array("H", out)
            self.rows_built += 1
        return row

    def add(self, a: int, b: int) -> int:
        return self.add_row(a)[b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_row(a)[b]

    def names(self, node: Term | Formula) -> tuple[str, ...]:
        """The sorted free variables of a node of the formula under evaluation
        (cached by identity: the formula outlives the model)."""
        key = id(node)
        found = self._names.get(key)
        if found is None:
            free = term_variables(node) if isinstance(node, Term) else free_variables(node)
            found = self._names[key] = tuple(sorted(free))
        return found


def evaluate(
    ring: FdzRing,
    formula: Formula,
    assignment: dict[str, Sequence[int]] | None = None,
) -> bool:
    """Tarskian truth of the formula under the assignment."""
    model = _Model(ring)
    env = {}
    for name, value in (assignment or {}).items():
        env[name] = model.index(ring.reduce(value))
    missing = free_variables(formula) - set(env)
    if missing:
        raise FormulaError(f"unassigned free variables: {sorted(missing)}")
    return _eval(model, formula, env)


def defined_set(ring: FdzRing, formula: Formula) -> list[tuple[int, ...]]:
    """The set defined by a formula with exactly one free variable."""
    free = free_variables(formula)
    if len(free) != 1:
        raise FormulaError(
            f"defined_set needs exactly one free variable, got {sorted(free)}"
        )
    (name,) = free
    model = _Model(ring)
    return sorted(
        model.carrier[element]
        for element in model.elements
        if _eval(model, formula, {name: element})
    )


def _term_value(model: _Model, t: Term, env):
    match t:
        case Var(name):
            return env[name]
        case Zero():
            return model.zero
        case Add(l, r):
            return model.add(_term_value(model, l, env), _term_value(model, r, env))
        case Neg(x):
            return model.neg(_term_value(model, x, env))
        case Mul(l, r):
            return model.mul(_term_value(model, l, env), _term_value(model, r, env))
    raise FormulaError(f"not a term: {t!r}")


def _eval(model: _Model, f: Formula, env) -> bool:
    match f:
        case Eq(l, r):
            return _term_value(model, l, env) == _term_value(model, r, env)
        case Not(x):
            return not _eval(model, x, env)
        case And(l, r):
            return _eval(model, l, env) and _eval(model, r, env)
        case Or(l, r):
            return _eval(model, l, env) or _eval(model, r, env)
        case Implies(l, r):
            return not _eval(model, l, env) or _eval(model, r, env)
        case Exists(_, _) | Forall(_, _):
            key = (id(f), tuple(env[v] for v in model.names(f)))
            truth = model.truth.get(key)
            if truth is None:
                truth = _eval_block(model, f, env)
                if truth is None:
                    truth = _quantify(model, f, env)
                model.truth[key] = truth
            return truth
    raise FormulaError(f"not a formula: {f!r}")


def _quantify(model: _Model, f: Exists | Forall, env) -> bool:
    test = any if isinstance(f, Exists) else all
    return test(_eval(model, f.body, {**env, f.var: e}) for e in model.elements)


def _collect_prefix(f: Formula) -> tuple[list[tuple[str, str]], Formula]:
    prefix: list[tuple[str, str]] = []
    while isinstance(f, (Exists, Forall)):
        prefix.append(("exists" if isinstance(f, Exists) else "forall", f.var))
        f = f.body
    return prefix, f


def _eval_block(model: _Model, f: Formula, env) -> bool | None:
    """Value-set evaluation of prenex-over-equation blocks; None = no match.

    Handled shapes (after grounding env-bound variables): a quantifier
    prefix with at most one kind alternation over an equation whose sides
    draw their quantified variables from different blocks.
    """
    prefix, body = _collect_prefix(f)
    if not isinstance(body, Eq):
        return None
    names = [v for _, v in prefix]
    if len(set(names)) != len(names):
        # shadowed binders: leave disambiguation to plain recursion
        return None
    kinds = [k for k, _ in prefix]
    switch = sum(1 for i in range(1, len(kinds)) if kinds[i] != kinds[i - 1])
    if switch > 1:
        return None
    first_kind = kinds[0]
    block1 = {v for k, v in prefix if k == first_kind}
    block2 = {v for k, v in prefix if k != first_kind}
    bound = block1 | block2
    vars_l = term_variables(body.left) & bound
    vars_r = term_variables(body.right) & bound

    def side_of(vs: set[str]) -> str | None:
        if not vs:
            return "ground"
        if vs <= block1:
            return "first"
        if vs <= block2:
            return "second"
        return None

    side_l = side_of(vars_l)
    side_r = side_of(vars_r)
    if side_l is None or side_r is None:
        return None
    if side_l == side_r and side_l != "ground":
        return None

    left_set = _term_value_set(model, body.left, vars_l, env)
    right_set = _term_value_set(model, body.right, vars_r, env)
    if left_set is None or right_set is None:
        return None

    def block_of(side: str) -> str | None:
        # which quantifier kind governs this side
        if side == "ground":
            return None
        return first_kind if side == "first" else kinds[-1]

    kind_l = block_of(side_l)
    kind_r = block_of(side_r)
    # orient: put the universally-quantified side (if any) on the left
    if kind_r == "forall" and kind_l != "forall":
        left_set, right_set = right_set, left_set
        kind_l, kind_r = kind_r, kind_l
    if kind_l == "forall" and kind_r == "forall":
        return len(left_set) == 1 and left_set == right_set
    if kind_l == "forall":
        if kind_r is None or first_kind == "forall":
            # ground right side, or the universal block scopes over the
            # existential one: every universal value must be matched
            return left_set <= right_set
        # exists-block comes first: one witness must work for every value,
        # so the universal side must be a single matched value
        return len(left_set) == 1 and left_set <= right_set
    # no universal side: pure existence
    return bool(left_set & right_set)


def _term_value_set(model: _Model, t: Term, qvars: set[str], env) -> set[int] | None:
    """Exact set of values of t as the quantified variables range freely.

    Memoised by (term, its quantified variables, the values of its other
    free variables), which is everything the set depends on.
    """
    names = model.names(t)
    tvars = tuple(v for v in names if v in qvars)
    if not tvars:
        return {_term_value(model, t, env)}
    key = (id(t), tvars, tuple(env[v] for v in names if v not in qvars))
    if key not in model.value_sets:
        model.value_sets[key] = _compose_value_set(model, t, tvars, qvars, env)
    return model.value_sets[key]


def _compose_value_set(
    model: _Model, t: Term, tvars: tuple[str, ...], qvars: set[str], env
) -> set[int] | None:
    match t:
        case Var(_):
            return model.full
        case Neg(x):
            inner = _term_value_set(model, x, qvars, env)
            if inner is None:
                return None
            return {model.neg(v) for v in inner}
        case Add(l, r) | Mul(l, r):
            if set(model.names(l)) & set(model.names(r)) & qvars:
                return _enumerated_value_set(model, t, tvars, env)
            ls = _term_value_set(model, l, qvars, env)
            rs = _term_value_set(model, r, qvars, env)
            if ls is None or rs is None:
                return None
            if isinstance(t, Mul):
                row_of = model.mul_row
            else:
                row_of = model.add_row
                if len(ls) > len(rs):
                    ls, rs = rs, ls
            out: set[int] = set()
            for a in ls:
                row = row_of(a)
                out.update(row if len(rs) == model.size else map(row.__getitem__, rs))
                if len(out) == model.size:
                    break
            return out
    raise FormulaError(f"not a term: {t!r}")


def _enumerated_value_set(model: _Model, t: Term, tvars: tuple[str, ...], env):
    if model.size ** len(tvars) > ENUMERATION_GUARD:
        return None
    out = set()
    for combo in itertools.product(model.elements, repeat=len(tvars)):
        inner = {**env, **dict(zip(tvars, combo))}
        out.add(_term_value(model, t, inner))
    return out


# -- concrete syntax -----------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_sexpr(tokens: list[str], pos: int, depth: int = 0):
    if pos >= len(tokens):
        raise FormulaParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if depth >= NESTING_GUARD:
            raise FormulaParseError(f"formula nested deeper than {NESTING_GUARD}")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_sexpr(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise FormulaParseError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise FormulaParseError("unexpected closing parenthesis")
    return tok, pos + 1


def _is_name(tok) -> bool:
    return (
        isinstance(tok, str)
        and tok != "0"
        and tok[0].isalpha()
        and all(c.isalnum() or c == "_" for c in tok)
    )


def _to_term(node) -> Term:
    if node == "0":
        return Zero()
    if _is_name(node):
        return Var(node)
    if not isinstance(node, list) or not node:
        raise FormulaParseError(f"bad term: {node!r}")
    head, *args = node
    if head == "add" and len(args) == 2:
        return Add(_to_term(args[0]), _to_term(args[1]))
    if head == "mul" and len(args) == 2:
        return Mul(_to_term(args[0]), _to_term(args[1]))
    if head == "neg" and len(args) == 1:
        return Neg(_to_term(args[0]))
    if head == "sub" and len(args) == 2:
        return Add(_to_term(args[0]), Neg(_to_term(args[1])))
    raise FormulaParseError(f"bad term operator: {node!r}")


def _to_formula(node) -> Formula:
    if not isinstance(node, list) or not node:
        raise FormulaParseError(f"bad formula: {node!r}")
    head, *args = node
    if head == "eq" and len(args) == 2:
        return Eq(_to_term(args[0]), _to_term(args[1]))
    if head == "not" and len(args) == 1:
        return Not(_to_formula(args[0]))
    if head in ("and", "or") and len(args) >= 2:
        ctor = And if head == "and" else Or
        out = _to_formula(args[0])
        for rest in args[1:]:
            out = ctor(out, _to_formula(rest))
        return out
    if head == "implies" and len(args) == 2:
        return Implies(_to_formula(args[0]), _to_formula(args[1]))
    if head in ("exists", "forall") and len(args) == 2 and _is_name(args[0]):
        ctor = Exists if head == "exists" else Forall
        return ctor(args[0], _to_formula(args[1]))
    raise FormulaParseError(f"bad formula operator: {node!r}")


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    node, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaParseError("trailing input after the formula")
    return _to_formula(node)


def format_formula(f: Formula | Term) -> str:
    match f:
        case Var(name):
            return name
        case Zero():
            return "0"
        case Add(l, Neg(r)):
            return f"(sub {format_formula(l)} {format_formula(r)})"
        case Add(l, r):
            return f"(add {format_formula(l)} {format_formula(r)})"
        case Neg(x):
            return f"(neg {format_formula(x)})"
        case Mul(l, r):
            return f"(mul {format_formula(l)} {format_formula(r)})"
        case Eq(l, r):
            return f"(eq {format_formula(l)} {format_formula(r)})"
        case Not(x):
            return f"(not {format_formula(x)})"
        case And(l, r):
            return f"(and {format_formula(l)} {format_formula(r)})"
        case Or(l, r):
            return f"(or {format_formula(l)} {format_formula(r)})"
        case Implies(l, r):
            return f"(implies {format_formula(l)} {format_formula(r)})"
        case Exists(v, b):
            return f"(exists {v} {format_formula(b)})"
        case Forall(v, b):
            return f"(forall {v} {format_formula(b)})"
    raise FormulaError(f"cannot format {f!r}")
