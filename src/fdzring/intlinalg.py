"""Exact integer matrix arithmetic: Smith and Hermite forms, linear solving.

Everything here works with arbitrary-precision Python ints.  Matrices are
immutable; reduction algorithms copy into lists, reduce with elementary
row/column operations (minimal-pivot selection to keep coefficients small),
and freeze the result.  Kernels, preimage lattices, particular solutions of
inhomogeneous systems and coordinates over a lattice basis come from
one-sided Hermite reduction, which builds no transform; ``right_kernel``
is the kernel ``solve_congruences`` gives exact equations.  Smith forms
come in two kinds, which choose their pivots alike (``_min_pivot``): ``diagonal_presentation``
needs the invariant factors and the coordinate change onto them, so its
elimination tracks only the column transform V and its inverse, never the
row transform; ``smith_diagonal`` gives the diagonal alone, over Z or over
Z/n with every entry reduced into [0, n), for invariants that need no
coordinates.  Hermite reduction works on sparse rows: the auxiliary
systems of rank-12 rings are thousands of columns wide and nearly all zero.
``solve_congruences`` takes its equations in that form too, as
``{column: coefficient}`` maps (``SparseRow``), and requires the number of
unknowns, which it never infers.

``record`` is the class decorator of every frozen value type in the
library.  It reads the annotated fields in order and gives the class
positional or keyword construction with trailing defaults, then
``__post_init__`` when one is defined; equality only with instances of the
same class; the hash of the field tuple; the repr ``Name(field=value, ...)``;
``__match_args__`` for ``match``; and an ``AttributeError`` on assignment
or deletion.  Instances keep their ``__dict__``, which ``cached_property``
fills.  It stands in for the standard library's frozen data classes, whose
module loads ``inspect`` and ``ast`` and which compile the methods of each
class: together about a fifth of a cold CLI run.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter
from typing import Iterable, Sequence

Vec = tuple[int, ...]
SparseRow = dict[int, int]


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    # attrgetter of a single name returns the bare value, not a 1-tuple
    if len(names) == 1:
        values = lambda self, get=attrgetter(*names): (get(self),)
    else:
        values = attrgetter(*names) if names else lambda self: ()

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
        if kwargs or len(args) < len(names):
            rest = []
            for name in names[len(args):]:
                if name in kwargs:
                    rest.append(kwargs.pop(name))
                elif name in defaults:
                    rest.append(defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
            args += tuple(rest)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


class IntMatrix:
    """An immutable rows x cols matrix of integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(map(int, r)) for r in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix data")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        if cols is not None and rows and cols != width:
            raise ValueError("column count disagrees with data")
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @property
    def entries(self) -> Vec:
        """Row-major flattening."""
        return tuple(v for row in self.data for v in row)

    def row(self, i: int) -> Vec:
        return self.data[i]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            out.append(
                [
                    sum(ri[k] * other.data[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return IntMatrix(out, cols=other.cols)

    def diagonal(self) -> Vec:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def reduce_mod_orders(vec: Sequence[int], orders: Sequence[int]) -> Vec:
    """Each coordinate reduced into [0, d) for its order d, kept when d = 0."""
    return tuple([int(x) % d if d else int(x) for x, d in zip(vec, orders)])


def row_times_matrix(v: Sequence[int], m: IntMatrix) -> Vec:
    if len(v) != m.rows:
        raise ValueError("dimension mismatch in vector-matrix product")
    acc = [0] * m.cols
    for c, row in zip(v, m.data):
        if c:
            acc = [x + c * y for x, y in zip(acc, row)]
    return tuple(acc)


def _min_pivot(rows: Sequence[Sequence[int]], t: int) -> tuple[int, int] | None:
    """The first entry of least nonzero absolute value in ``rows[t:]`` at
    columns t onward, scanning row by row; None when that block is zero.

    A row holding a unit ends the scan, since no entry is smaller.  (A
    C-level ``min(filter(None, map(abs, row)))`` per row measured slower,
    on the short rows of ``smith_diagonal`` and on the sparse rank-20
    relation rows alike.)
    """
    best, pivot = 0, None
    for i in range(t, len(rows)):
        row = rows[i]
        for j in range(t, len(row)):
            val = abs(row[j])
            if val and (not best or val < best):
                best, pivot = val, (i, j)
        if best == 1:
            break
    return pivot


def smith_diagonal(
    rows: Iterable[Sequence[int]], width: int, modulus: int | None = None
) -> Vec:
    """The Smith diagonal of the rows, over Z or over Z/modulus, with no transforms.

    Euclid with minimal pivots on rows and columns leaves a diagonal that
    need not be a divisor chain; replacing each pair (a, b) by
    (gcd(a, b), lcm(a, b)), which diag(a, b) is equivalent to, sorts it into
    one (Cohen, GTM 138, §2.4).  Over Z the result is the Smith diagonal of
    the same rows, ``min(len(rows), width)`` entries.  With a modulus n
    every entry is kept reduced into [0, n), and each diagonal entry d is
    given as gcd(d, n), the divisor of n that generates the same ideal of
    Z/n (a zero entry reads n); the row module in (Z/n)^width is then the
    sum of the Z/(n / d_i).
    """
    work = [[x % modulus for x in r] if modulus else list(map(int, r)) for r in rows]
    if any(len(r) != width for r in work):
        raise ValueError("row width mismatch")
    diag = [0] * min(len(work), width)
    # zero rows take no part in the elimination, only in the diagonal's length
    work = [r for r in work if any(r)]
    m = len(work)
    for t in range(min(m, width)):
        # the pivot has the least absolute value in the block, so every
        # remainder below or right of it is smaller and Euclid ends
        while (pivot := _min_pivot(work, t)) is not None:
            pi, pj = pivot
            work[t], work[pi] = work[pi], work[t]
            if pj != t:
                for r in work[t:]:
                    r[t], r[pj] = r[pj], r[t]
            top = work[t]
            p = top[t]
            dirty = False
            for r in work[t + 1:]:
                q = r[t] // p
                if q:
                    r[t:] = [x - q * y for x, y in zip(r[t:], top[t:])]
                    if modulus:
                        r[t:] = [x % modulus for x in r[t:]]
                dirty = dirty or r[t] != 0
            for j in range(t + 1, width):
                q = top[j] // p
                if q:
                    for r in work[t:]:
                        r[j] -= q * r[t]
                        if modulus:
                            r[j] %= modulus
                dirty = dirty or top[j] != 0
            if not dirty:
                diag[t] = p
                break
        else:
            break
    diag = [gcd(x, modulus) for x in diag] if modulus else [abs(x) for x in diag]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            if g != a:
                diag[i], diag[j] = g, a * b // g if g else 0
    return tuple(diag)


@record
class DiagonalPresentation:
    """Z^rank modulo a relation lattice, rewritten as a product of cyclic groups.

    ``orders`` are the non-unit invariant factors (0 meaning infinite);
    ``project`` (rank x k) sends ambient coordinates to coordinates over the
    cyclic factors, and the rows of ``lift`` (k x rank) are ambient
    representatives of their generators, so ``lift·project = I``.
    """

    orders: Vec
    project: IntMatrix
    lift: IntMatrix

    def coordinates(self, vec: Sequence[int]) -> Vec:
        """``vec·project`` reduced modulo the orders."""
        return reduce_mod_orders(row_times_matrix(vec, self.project), self.orders)

    def express_over(self, basis: Sequence[Sequence[int]], vec: Sequence[int]) -> Vec | None:
        """Cyclic coordinates of ``vec`` in the lattice with Hermite ``basis``,
        presented by this on its coefficients, or ``None`` outside the lattice.

        ``hermite_coordinates`` gives the coefficients over the basis rows,
        and ``coordinates`` carries them onto the cyclic factors.
        """
        coeffs = hermite_coordinates(basis, vec)
        return None if coeffs is None else self.coordinates(coeffs)


def diagonal_presentation(
    relations: Sequence[Sequence[int]], rank: int
) -> DiagonalPresentation:
    """Diagonal presentation of Z^rank modulo the span of ``relations``.

    Runs Smith on the rows exactly as given (so the coordinate change is a
    function of the row list, not only of its lattice), pads the diagonal
    with zeros to ``rank`` and drops the unit factors (Cohen, GTM 138, §2.4).
    """
    diag, v_cols, vinv = _smith_columns(relations, rank)
    keep = [i for i, d in enumerate(diag) if d != 1]
    return DiagonalPresentation(
        orders=tuple(diag[i] for i in keep),
        project=IntMatrix(list(zip(*(v_cols[j] for j in keep))) or [()] * rank, cols=len(keep)),
        lift=IntMatrix([vinv[i] for i in keep], cols=rank),
    )


def _smith_columns(
    relations: Sequence[Sequence[int]], rank: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith form D = U·A·V of the relation rows A, without U: the diagonal
    padded with zeros to ``rank``, the columns of V and the rows of V⁻¹.

    Each step takes as pivot the least nonzero entry of the live block
    (``_min_pivot``), clears its column by row operations and its row by
    column operations, and repeats until both are clear; if some entry
    below and right of the pivot is not a multiple of it, the first such
    row is added to the pivot row and the step goes on.  A unit pivot
    divides everything, so that scan is skipped.  Rows above t are zero
    right of their pivots, so only rows t and below are touched, and the
    column operations of one sweep, which all read the fixed column t,
    are applied to each row at once.
    """
    d = [list(map(int, r)) for r in relations]
    if any(len(r) != rank for r in d):
        raise ValueError("row width mismatch")
    v_cols, vinv = [[0] * rank for _ in range(rank)], [[0] * rank for _ in range(rank)]
    for i in range(rank):
        v_cols[i][i] = vinv[i][i] = 1
    diag = [0] * rank
    for t in range(min(len(d), rank)):
        while (pivot := _min_pivot(d, t)) is not None:
            pi, pj = pivot
            d[t], d[pi] = d[pi], d[t]
            if pj != t:
                for r in d[t:]:
                    r[t], r[pj] = r[pj], r[t]
                v_cols[t], v_cols[pj] = v_cols[pj], v_cols[t]
                vinv[t], vinv[pj] = vinv[pj], vinv[t]
            top = d[t]
            if top[t] < 0:
                top[t:] = [-x for x in top[t:]]
            p = top[t]
            dirty = False
            for r in d[t + 1:]:
                if r[t]:
                    q = r[t] // p
                    r[t:] = [x - q * y for x, y in zip(r[t:], top[t:])]
                    dirty = dirty or r[t] != 0
            qs = [x // p for x in top[t + 1:]]
            if any(qs):
                for r in d[t:]:
                    if c := r[t]:
                        r[t + 1:] = [x - c * q for x, q in zip(r[t + 1:], qs)]
                pivot_col, pivot_inv = v_cols[t], vinv[t]
                for j, q in enumerate(qs, t + 1):
                    if q:
                        v_cols[j] = [x - q * y for x, y in zip(v_cols[j], pivot_col)]
                        pivot_inv = [x + q * y for x, y in zip(pivot_inv, vinv[j])]
                vinv[t] = pivot_inv
                dirty = dirty or any(top[t + 1:])
            if dirty:
                continue
            offender = None if p == 1 else next(
                (r for r in d[t + 1:] if any(map(p.__rmod__, r[t + 1:]))), None
            )
            if offender is None:
                diag[t] = p
                break
            top[t:] = [x + y for x, y in zip(top[t:], offender[t:])]
        else:
            break
    return diag, v_cols, vinv


def _sparse_rows(rows: Iterable[Sequence[int]], width: int) -> list[SparseRow]:
    """The rows as {column: value} maps of their nonzero entries."""
    out = []
    for r in rows:
        if len(r) != width:
            raise ValueError("row width mismatch")
        out.append({j: int(x) for j, x in enumerate(r) if x})
    return out


def _echelon(rows: list[SparseRow], width: int) -> list[tuple[int, SparseRow]]:
    """Row echelon basis of the lattice spanned by sparse ``rows``, which it
    reuses: (pivot column, row) pairs, pivots positive, strictly increasing.

    Rows are bucketed by leading column; Euclid on a bucket reduces by the
    sparsest row of least leading entry, so a round adds the fewest entries,
    and sends each row whose leading entry vanishes on to its next bucket.
    Rows m·e_c merge into one g·e_c (g the gcd of the m), which lies in the
    lattice and is untouched until column c is eliminated; till then every
    other column-c entry stays reduced mod g (Domich–Kannan–Trotter, Math.
    Oper. Res. 1987).
    """
    moduli: dict[int, int] = {}
    for (c, x), in (row.items() for row in rows if len(row) == 1):
        moduli[c] = gcd(moduli.get(c, 0), x)
    buckets = {c: [{c: g}] for c, g in moduli.items()}
    for row in (r for r in rows if len(r) > 1):
        if moduli:
            row = {j: y for j, x in row.items() if (y := x % moduli[j] if j in moduli else x)}
        if row:
            buckets.setdefault(min(row), []).append(row)
    basis = []
    for col in range(width):
        if not (live := buckets.pop(col, None)):
            continue
        moduli.pop(col, None)
        while len(live) > 1:
            base = min(live, key=lambda r: (abs(r[col]), len(r)))
            p = base[col]
            for r in live:
                if r is base:
                    continue
                q = r[col] // p
                for j, y in base.items():
                    x = r.get(j, 0) - q * y
                    if moduli and j in moduli:
                        x %= moduli[j]
                    if x:
                        r[j] = x
                    else:
                        r.pop(j, None)
                if col not in r and r:
                    buckets.setdefault(min(r), []).append(r)
            live = [r for r in live if col in r]
        basis.append((col, live[0] if live[0][col] > 0 else {j: -x for j, x in live[0].items()}))
    return basis


def _hermite_form(basis: list[tuple[int, SparseRow]], start: int, stop: int) -> tuple[Vec, ...]:
    """Echelon rows with each entry above a pivot reduced into [0, pivot),
    as dense rows of their columns ``start`` to ``stop``."""
    for k, (col, row) in enumerate(basis):
        for _, prow in basis[:k]:
            if q := prow.get(col, 0) // row[col]:
                for j, y in row.items():
                    prow[j] = prow.get(j, 0) - q * y
    out = []
    for _, row in basis:
        dense = [0] * (stop - start)
        for j, x in row.items():
            dense[j - start] = x
        out.append(tuple(dense))
    return tuple(out)


def hermite_rows(rows: Iterable[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Canonical row Hermite basis of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  Two row sets span the same lattice iff their
    Hermite bases are equal, which is what subgroup canonicalization relies
    on.
    """
    return _hermite_form(_echelon(_sparse_rows(rows, width), width), 0, width)


def _divide_along_pivots(
    basis: Sequence[Sequence[int]], vec: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotients and remainder of ``vec`` by the Hermite basis rows, pivot
    by pivot (floor division at each pivot)."""
    out = list(map(int, vec))
    if basis and len(out) != len(basis[0]):
        raise ValueError("vector width does not match the basis")
    quotients = []
    col = 0
    for row in basis:
        while not row[col]:
            col += 1
        q = out[col] // row[col]
        quotients.append(q)
        if q:
            out[col:] = [x - q * y for x, y in zip(out[col:], row[col:])]
    return quotients, out


def hermite_reduce(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> Vec:
    """Canonical representative of ``vec`` modulo the Hermite basis rows."""
    return tuple(_divide_along_pivots(basis, vec)[1])


def hermite_coordinates(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> Vec | None:
    """Coordinates of ``vec`` over the rows of a Hermite basis, or ``None``.

    Hermite rows are independent with strictly increasing pivots, so
    back-substitution along the pivots yields the only coordinates there
    are; a non-member leaves a nonzero remainder.
    """
    quotients, rest = _divide_along_pivots(basis, vec)
    return None if any(rest) else tuple(quotients)


def right_kernel(rows: Sequence[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Hermite basis rows for {y in Z^width : r·y = 0 for every row r}, the
    kernel ``solve_congruences`` returns for exact equations."""
    return solve_congruences(_sparse_rows(rows, width), [0] * len(rows), unknowns=width)[1]


def solve_congruences(
    equations: Sequence[SparseRow],
    moduli: Sequence[int],
    rhs: Sequence[int] | None = None,
    *,
    unknowns: int,
) -> tuple[Vec, tuple[Vec, ...]] | None:
    """Solve a system of simultaneous congruences in z, an integer vector
    of length ``unknowns`` (required: sparse rows do not give it).

    Each equation is a sparse row ``{column: coefficient}`` with columns in
    [0, unknowns); with modulus m it imposes  e·z = rhs_e (mod m), where
    modulus 0 means exact equality.  Returns a particular solution and the
    Hermite basis of the homogeneous solution lattice, or ``None``.  With
    ``rhs=None`` the zero solution is returned as the particular part,
    which turns this into a kernel computation; otherwise the particular
    solution is the canonical one of ``affine_preimage``, so neither changes
    as equations are reordered, taken mod |m|, and repeats and ones all z
    satisfy dropped.
    """
    if len(equations) != len(moduli):
        raise ValueError("one modulus per equation required")
    if rhs is not None and len(rhs) != len(equations):
        raise ValueError("right-hand side length mismatch")
    # z solves the system iff the combination of equation columns it takes
    # lies in rhs plus the span of the modulus vectors m_r·e_r
    columns: list[SparseRow] = [{} for _ in range(unknowns)]
    modulus_rows: list[SparseRow] = []
    tag: SparseRow = {}
    kept: dict[tuple[frozenset, int, int], tuple[SparseRow, int, int]] = {}
    for e, m, b in zip(equations, moduli, rhs or [0] * len(equations)):
        if e and (min(e) < 0 or max(e) >= unknowns):
            raise ValueError("equation column outside the unknowns")
        m = abs(m)
        e = {j: y for j, x in e.items() if (y := x % m if m else x)}
        b = b % m if m else b
        if b or e:
            kept.setdefault((frozenset(e.items()), m, b), (e, m, b))
    # equation r is the r-th column the echelon clears; exact equations,
    # then the sparsest, first keep the fill low (LaMacchia–Odlyzko, 1990)
    order = sorted(kept.values(), key=lambda t: (t[1] != 0, len(t[0])))
    for r, (e, m, b) in enumerate(order):
        for j, x in e.items():
            columns[j][r] = x
        if m:
            modulus_rows.append({r: m})
        if b:
            tag[r] = -b
    if rhs is None:
        return tuple([0] * unknowns), _preimage(columns, len(order), modulus_rows)
    return _solution(_preimage([tag, *columns], len(order), modulus_rows))


def preimage_lattice(
    w: IntMatrix, target_basis: Sequence[Sequence[int]]
) -> tuple[Vec, ...]:
    """Hermite basis rows of {x : x·W lies in the lattice spanned by target_basis}.

    The rows of [W | I] and [T | 0] span {(x·W + t, x)}.  In an echelon
    basis of that lattice the rows whose left part vanishes carry, on the
    right, a basis of the wanted x (Cohen, GTM 138, §2.4); no transform is
    built, and only those rows are reduced to Hermite form.
    """
    return _preimage(_sparse_rows(w.data, w.cols), w.cols, _sparse_rows(target_basis, w.cols))


def _preimage(w: list[SparseRow], width: int, target: list[SparseRow]) -> tuple[Vec, ...]:
    """``preimage_lattice`` on sparse rows of W and of the target basis."""
    tags = len(w)
    rows = [{**row, width + i: 1} for i, row in enumerate(w)] + target
    # rows with a zero left part pivot right of it, in echelon order already
    kernel = [(c, r) for c, r in _echelon(rows, width + tags) if c >= width]
    return _hermite_form(kernel, width, width + tags)


def affine_preimage(
    w: IntMatrix, target_basis: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Vec, tuple[Vec, ...]] | None:
    """Solve x·W = rhs modulo the lattice spanned by ``target_basis``.

    Returns ``(particular, kernel)`` with ``kernel`` the Hermite basis of
    ``preimage_lattice(w, target_basis)``, or ``None`` when no x exists.
    The rows (c, x) with x·W - c·rhs in the lattice are the preimage of W
    with one leading tag row -rhs.  The system is solvable iff some such
    row has c = 1, that is iff their Hermite basis starts with pivot 1 in
    the tag column.  That row's tail is the particular solution: Hermite
    form reduces it modulo the kernel rows below it, so it is the canonical
    representative of the solution coset and depends only on the solution
    set, not on how the system was written down.
    """
    if len(rhs) != w.cols:
        raise ValueError("right-hand side length mismatch")
    tagged = _sparse_rows([[-int(x) for x in rhs], *w.data], w.cols)
    return _solution(_preimage(tagged, w.cols, _sparse_rows(target_basis, w.cols)))


def _solution(basis: tuple[Vec, ...]) -> tuple[Vec, tuple[Vec, ...]] | None:
    """Particular solution and kernel read off the preimage with tag row -rhs."""
    if not basis or basis[0][0] != 1:
        return None
    return basis[0][1:], tuple(row[1:] for row in basis[1:])
