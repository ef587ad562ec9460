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
guaranteed the evaluator falls back to enumeration.

Enumeration is set-at-a-time (Libkin, *Elements of Finite Model Theory*,
ch. 6: bottom-up evaluation by relation tables).  A quantifier decides its
body for ``BLOCK`` values at once, as vectors of term values compared by
equations and combined by connectives as sets, and stops after the block
with its first witness (exists) or counterexample (forall); ``defined_set``
decides its formula over the whole carrier so.  Per element, with early
exit, go a quantifier body that is a quantifier and a quantifier with the
block's variable free, for the values that reach it.

Every call runs on a ring compiled for it.  Elements are numbered 0..N-1
in ``ring.elements()`` order (mixed radix, last coordinate fastest).
Negation is one list; the addition row of a is built by Horner over the
digits, and the multiplication row of a by bilinearity from the rank
products a·e_j and the addition table, each the first time a is used as a
left operand, so a formula that needs few lookups never pays N².  Two
memos live on the compiled ring: value sets, keyed by (term, its
quantified variables, the values of its other free variables), and the
truth of quantifier nodes, keyed by (node, the values of its free
variables).  So a side of an equation that does not mention the defined
variable is built once, not once per element.  The tests check this
evaluator against a plain Tarskian one on coordinate tuples, kept in
``tests/oracles.py`` so that it shares no code with this module.

The concrete formula syntax is fully parenthesized prefix text, e.g.
``(exists x1 (eq x (mul x1 x1)))``.  Each operator name is spelled once, in
``_TERM_OPS`` and ``_FORMULA_OPS`` (name to record class, the arity its field
count); parsing reads them and printing their reverse.  ``sub`` is parse-only
sugar for adding a negation, printed back from ``Add(l, Neg(r))``.
Parenthesis nesting deeper than ``NESTING_GUARD`` is refused at parse time,
and ``builtin`` refuses an arity whose formula would nest that deep.
"""

from __future__ import annotations

import itertools
import re
from array import array
from functools import reduce
from typing import Sequence

from .intlinalg import record
from .rings import ELEMENT_LIMIT, FdzRing

# ``FdzRing.elements``'s cap, checked first so that an oversized carrier
# is a FormulaError
CARRIER_GUARD = ELEMENT_LIMIT
ENUMERATION_GUARD = 200_000
# values of a quantified variable decided together before an early exit
BLOCK = 64
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

    Refused, before it is built, when n is below 1 (the message names the
    CLI's ``k``) or when it would nest deeper than ``NESTING_GUARD``, the
    depth ``parse_formula`` accepts, so every builtin prints to text that
    parses back and evaluates within the recursion limit.
    """
    if name not in _BUILTINS:
        raise FormulaError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if n < 1:
        raise FormulaError(f"builtin {name} needs k at least 1, got k={n}")
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
    2**16) and ``rows_built`` counts them.  A term vector over a block reads
    the same rows: one row per distinct left operand, indexed by the right.
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
    return sorted(model.carrier[e] for e in _satisfying(model, formula, name, {}, model.elements))


def _eval(model: _Model, f: Formula, env) -> bool:
    match f:
        case Eq(l, r):
            return _term_vector(model, l, None, env, ()) == _term_vector(model, r, None, env, ())
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
    """Decide f block by block over the carrier; a quantifier body goes per
    element instead, since a whole block of it would give up the early exit
    that keeps prenex chains tractable."""
    exists = isinstance(f, Exists)
    if isinstance(f.body, (Exists, Forall)):
        test = any if exists else all
        return test(_eval(model, f.body, {**env, f.var: e}) for e in model.elements)
    for start in range(0, model.size, BLOCK):
        block = model.elements[start : start + BLOCK]
        held = _satisfying(model, f.body, f.var, env, block)
        # a witness decides exists, a counterexample forall
        if len(held) != (0 if exists else len(block)):
            return exists
    return not exists


def _satisfying(model: _Model, f: Formula, var: str, env, dom: Sequence[int]) -> set[int]:
    """The values of var in dom (distinct elements) at which f holds.

    The right operand of a connective sees only the values the left one
    leaves open.  A subformula without var free is decided once, and a
    quantifier with var free once per value that reaches it.
    """
    if not dom:
        return set()
    if var not in model.names(f):
        return set(dom) if _eval(model, f, env) else set()
    match f:
        case Eq(l, r):
            lv = _term_vector(model, l, var, env, dom)
            rv = _term_vector(model, r, var, env, dom)
            if isinstance(lv, int):
                lv, rv = rv, lv
            if isinstance(rv, int):
                rv = itertools.repeat(rv)
            return {d for d, a, b in zip(dom, lv, rv) if a == b}
        case Not(x):
            return set(dom) - _satisfying(model, x, var, env, dom)
        case And(l, r):
            left = _satisfying(model, l, var, env, dom)
            return _satisfying(model, r, var, env, [d for d in dom if d in left])
        case Or(l, r) | Implies(l, r):
            left = _satisfying(model, l, var, env, dom)
            if isinstance(f, Implies):
                left = set(dom) - left
            return left | _satisfying(model, r, var, env, [d for d in dom if d not in left])
        case Exists(_, _) | Forall(_, _):
            return {d for d in dom if _eval(model, f, {**env, var: d})}
    raise FormulaError(f"not a formula: {f!r}")


def _term_vector(model: _Model, t: Term, var: str | None, env, dom: Sequence[int]):
    """t's value for each value of var in dom, in dom's order, the other
    variables read from env; one int when var is not in t, so that
    ``var=None`` gives t's value under env."""
    match t:
        case Var(name):
            return dom if name == var else env[name]
        case Zero():
            return model.zero
        case Neg(x):
            v = _term_vector(model, x, var, env, dom)
            return model.neg(v) if isinstance(v, int) else list(map(model.neg, v))
        case Add(l, r) | Mul(l, r):
            row_of = model.mul_row if isinstance(t, Mul) else model.add_row
            lv = _term_vector(model, l, var, env, dom)
            rv = _term_vector(model, r, var, env, dom)
            if isinstance(rv, int) and isinstance(t, Add):
                lv, rv = rv, lv
            if isinstance(lv, int):
                row = row_of(lv)
                return row[rv] if isinstance(rv, int) else list(map(row.__getitem__, rv))
            if isinstance(rv, int):
                rv = itertools.repeat(rv)
            return [row_of(a)[b] for a, b in zip(lv, rv)]
    raise FormulaError(f"not a term: {t!r}")


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
    # one at most: the sides lie in blocks of different kinds, or one is ground
    if kind_r == "forall":
        left_set, right_set = right_set, left_set
        kind_l, kind_r = kind_r, kind_l
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
        return {_term_vector(model, t, None, env, ())}
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
        out.add(_term_vector(model, t, None, inner, ()))
    return out


# -- concrete syntax -----------------------------------------------------------


# term operators and ``eq`` take terms, a quantifier a name and a formula, the rest formulas
_TERM_OPS = {"add": Add, "mul": Mul, "neg": Neg}
_FORMULA_OPS = {
    "eq": Eq, "not": Not, "and": And, "or": Or, "implies": Implies, "exists": Exists, "forall": Forall
}
_OP_NAMES = {op: name for name, op in (_TERM_OPS | _FORMULA_OPS).items()}


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
    return isinstance(tok, str) and tok[0].isalpha() and all(c.isalnum() or c == "_" for c in tok)


def _to_term(node) -> Term:
    if node == "0":
        return Zero()
    if _is_name(node):
        return Var(node)
    if not isinstance(node, list) or not node:
        raise FormulaParseError(f"bad term: {node!r}")
    head, *args = node
    if head == "sub" and len(args) == 2:
        return Add(_to_term(args[0]), Neg(_to_term(args[1])))
    op = _TERM_OPS.get(head) if isinstance(head, str) else None
    if op is not None and len(args) == len(op.__match_args__):
        return op(*map(_to_term, args))
    raise FormulaParseError(f"bad term operator: {node!r}")


def _to_formula(node) -> Formula:
    if not isinstance(node, list) or not node:
        raise FormulaParseError(f"bad formula: {node!r}")
    head, *args = node
    op = _FORMULA_OPS.get(head) if isinstance(head, str) else None
    if op in (And, Or) and len(args) >= 2:
        return reduce(op, map(_to_formula, args))
    if op is not None and len(args) == len(op.__match_args__):
        if op is Eq:
            return Eq(*map(_to_term, args))
        if op not in (Exists, Forall):
            return op(*map(_to_formula, args))
        if _is_name(args[0]):
            return op(args[0], _to_formula(args[1]))
    raise FormulaParseError(f"bad formula operator: {node!r}")


def parse_formula(text: str) -> Formula:
    tokens = re.findall(r"[()]|[^\s()]+", text)
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
    name = _OP_NAMES.get(type(f))
    if name is None:
        raise FormulaError(f"cannot format {f!r}")
    shown = [name]
    for field in f.__match_args__:
        arg = getattr(f, field)  # a quantifier's variable is a name, the rest are records
        shown.append(arg if isinstance(arg, str) else format_formula(arg))
    return f"({' '.join(shown)})"
