"""Exact integer matrix arithmetic: Smith and Hermite forms, linear solving.

Everything here works with arbitrary-precision Python ints.  Matrices are
immutable; reduction algorithms copy into lists, reduce with elementary
row/column operations (minimal-pivot selection to keep coefficients small),
and freeze the result.  Kernels, preimage lattices, particular solutions of
inhomogeneous systems and coordinates over a lattice basis come from
one-sided Hermite reduction, which builds no transform.  The Smith form
serves only ``diagonal_presentation`` (invariant factors plus the
coordinate change onto them, read from ``v`` and ``vinv``) and saturation.
Intended scale is small dense matrices (rank <= 12 plus the auxiliary
systems built from them), so no sparsity or modular arithmetic is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Vec = tuple[int, ...]


def _as_vec(values: Iterable[int]) -> Vec:
    return tuple(map(int, values))


class IntMatrix:
    """An immutable rows x cols matrix of integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        rows = tuple(_as_vec(r) for r in data)
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

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

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

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

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

def vec_scale(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)

def row_times_matrix(v: Sequence[int], m: IntMatrix) -> Vec:
    if len(v) != m.rows:
        raise ValueError("dimension mismatch in vector-matrix product")
    return tuple(
        sum(v[i] * m.data[i][j] for i in range(m.rows)) for j in range(m.cols)
    )


@dataclass(frozen=True)
class SmithDecomposition:
    """U·A·V = D with U, V unimodular and D diagonal, d1 | d2 | ...

    The inverses of the transforms are tracked alongside the elimination,
    where unimodular inversion is cheapest.  ``diagonal_presentation``
    keeps columns of ``v`` and rows of ``vinv``, and saturation reads rows
    of ``vinv``.  No library code reads ``u`` or ``uinv``: they stay only
    because ``_bits`` in ``perfbench/tracer.py`` recognises a Smith result
    by ``uinv``, and the Smith checks and oracles under ``tests/`` read
    both.  Kernels, particular solutions and coordinates need no transform
    and come from Hermite reduction instead (``preimage_lattice``,
    ``affine_preimage``, ``hermite_coordinates``).
    """

    u: IntMatrix
    v: IntMatrix
    d: IntMatrix
    uinv: IntMatrix
    vinv: IntMatrix

    @property
    def diagonal(self) -> Vec:
        return self.d.diagonal()


def smith(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary operations with minimal-pivot choice."""
    m, n = a.rows, a.cols
    d = [list(r) for r in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= q * r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        vinv[j] = [x - q * y for x, y in zip(vinv[j], vinv[i])]

    for t in range(min(m, n)):
        while True:
            # minimal nonzero pivot in the remaining block
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    val = abs(d[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // p
                    row_addmul(i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // p
                    col_addmul(j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)

    return SmithDecomposition(
        u=IntMatrix(u, cols=m),
        v=IntMatrix(v, cols=n),
        d=IntMatrix(d, cols=n),
        uinv=IntMatrix(uinv, cols=m),
        vinv=IntMatrix(vinv, cols=n),
    )


@dataclass(frozen=True)
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
        raw = row_times_matrix(vec, self.project)
        return tuple(x % d if d else x for x, d in zip(raw, self.orders))


def diagonal_presentation(
    relations: Sequence[Sequence[int]], rank: int
) -> DiagonalPresentation:
    """Diagonal presentation of Z^rank modulo the span of ``relations``.

    Runs Smith on the rows exactly as given (so the coordinate change is a
    function of the row list, not only of its lattice), pads the diagonal
    with zeros to ``rank`` and drops the unit factors (Cohen, GTM 138, §2.4).
    """
    dec = smith(IntMatrix(relations, cols=rank))
    diag = list(dec.diagonal) + [0] * (rank - len(dec.diagonal))
    keep = [i for i, d in enumerate(diag) if d != 1]
    return DiagonalPresentation(
        orders=tuple(diag[i] for i in keep),
        project=IntMatrix([[row[j] for j in keep] for row in dec.v.data], cols=len(keep)),
        lift=IntMatrix([dec.vinv.row(i) for i in keep], cols=rank),
    )


def _echelon(rows: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    """Row echelon basis of the lattice spanned by ``rows``.

    Pivots are positive and strictly increasing; entries above a pivot are
    left as they fall.  Pivot rows never take part in later eliminations,
    so leaving them unreduced changes no later row.
    """
    work = [r for r in (list(map(int, r)) for r in rows) if any(r)]
    for r in work:
        if len(r) != width:
            raise ValueError("row width mismatch")
    basis: list[list[int]] = []
    for col in range(width):
        live = [r for r in work if r[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            p, tail = base[col], base[col:]
            for r in live[1:]:
                q = r[col] // p
                if q:
                    r[col:] = [x - q * y for x, y in zip(r[col:], tail)]
            live = [r for r in live if r[col]]
        row = live[0]
        # rows reduced to zero stay in ``work``; they never turn live again
        work = [r for r in work if not r[col]]
        if row[col] < 0:
            row[col:] = [-x for x in row[col:]]
        basis.append(row)
    return basis


def hermite_rows(rows: Iterable[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Canonical row Hermite basis of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  Two row sets span the same lattice iff their
    Hermite bases are equal, which is what subgroup canonicalization relies
    on.
    """
    basis = _echelon(rows, width)
    col = 0
    for j, row in enumerate(basis):
        while not row[col]:
            col += 1
        p, tail = row[col], row[col:]
        for prow in basis[:j]:
            q = prow[col] // p
            if q:
                prow[col:] = [x - q * y for x, y in zip(prow[col:], tail)]
    return tuple(tuple(r) for r in basis)


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


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    return not any(_divide_along_pivots(basis, vec)[1])


def hermite_coordinates(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> Vec | None:
    """Coordinates of ``vec`` over the rows of a Hermite basis, or ``None``.

    Hermite rows are independent with strictly increasing pivots, so
    back-substitution along the pivots yields the only coordinates there
    are; a non-member leaves a nonzero remainder.
    """
    quotients, rest = _divide_along_pivots(basis, vec)
    return None if any(rest) else tuple(quotients)


def left_kernel(a: IntMatrix) -> tuple[Vec, ...]:
    """Hermite basis rows for {y : y·A = 0}."""
    return preimage_lattice(a, ())


def solve_congruences(
    equations: Sequence[Sequence[int]],
    moduli: Sequence[int],
    rhs: Sequence[int] | None = None,
    unknowns: int | None = None,
) -> tuple[Vec, tuple[Vec, ...]] | None:
    """Solve a system of simultaneous congruences in z.

    Each equation row ``e`` with modulus ``m`` imposes  e·z = rhs_e (mod m),
    where modulus 0 means exact equality.  Returns a particular solution and
    the Hermite basis of the homogeneous solution lattice, or ``None``.
    With ``rhs=None`` the zero solution is returned as the particular part,
    which turns this into a kernel computation; otherwise the particular
    solution is the canonical one of ``affine_preimage``.
    """
    eqs = [list(_as_vec(e)) for e in equations]
    if len(eqs) != len(moduli):
        raise ValueError("one modulus per equation required")
    if eqs:
        nunk = len(eqs[0])
    elif unknowns is not None:
        nunk = unknowns
    else:
        raise ValueError("unknown count required for an empty system")
    if any(len(e) != nunk for e in eqs):
        raise ValueError("ragged equation rows")
    # z solves the system iff the combination of equation columns it takes
    # lies in rhs plus the span of the modulus vectors m_r·e_r
    columns = IntMatrix(list(zip(*eqs)) if eqs else [()] * nunk, cols=len(eqs))
    modulus_rows = [
        [int(m) if i == r else 0 for i in range(len(eqs))]
        for r, m in enumerate(moduli)
        if m
    ]
    if rhs is None:
        return tuple([0] * nunk), preimage_lattice(columns, modulus_rows)
    return affine_preimage(columns, modulus_rows, rhs)


def preimage_lattice(
    w: IntMatrix, target_basis: Sequence[Sequence[int]]
) -> tuple[Vec, ...]:
    """Hermite basis rows of {x : x·W lies in the lattice spanned by target_basis}.

    The rows of [W | I] and [T | 0] span {(x·W + t, x)}.  In an echelon
    basis of that lattice the rows whose left part vanishes carry, on the
    right, a basis of the wanted x (Cohen, GTM 138, §2.4); no transform is
    built, and only those rows are reduced to Hermite form.
    """
    width, tags = w.cols, w.rows
    rows = [
        list(r) + [1 if j == i else 0 for j in range(tags)]
        for i, r in enumerate(w.data)
    ]
    rows += [list(t) + [0] * tags for t in target_basis]
    kernel = [r[width:] for r in _echelon(rows, width + tags) if not any(r[:width])]
    return hermite_rows(kernel, tags)


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
    tagged = IntMatrix([[-int(x) for x in rhs], *w.data], cols=w.cols)
    basis = preimage_lattice(tagged, target_basis)
    if not basis or basis[0][0] != 1:
        return None
    return basis[0][1:], tuple(row[1:] for row in basis[1:])
