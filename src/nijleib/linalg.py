"""Exact rational vectors and matrices.

Everything in the package runs on `fractions.Fraction`; no floating point
representation exists anywhere.  Matrices are dense, immutable, and use the
column-action convention: entry [i][j] is the coefficient of basis vector i
in the image of basis vector j.

Rank, kernel and solve share one sparse Gauss-Jordan elimination that picks
the sparsest row as pivot; a plain dense Gaussian elimination, `gauss_rank`,
is kept solely as a cross-check oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ShapeError

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p/q" with q > 1, else "p"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string; reject non-canonical spellings."""
    from .errors import BundleError

    if not isinstance(text, str):
        raise BundleError(f"rational must be a string, got {text!r}")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleError(f"bad rational {text!r}: {exc}") from None
    if format_rational(q) != text:
        raise BundleError(f"non-canonical rational {text!r}; expected {format_rational(q)!r}")
    return q


def vector(entries: Iterable) -> Vector:
    return tuple(frac(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ShapeError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ShapeError(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a: Vector) -> Vector:
    c = frac(c)
    return tuple(c * x for x in a)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, rows_data: Sequence[Sequence]):
        data = tuple(tuple(frac(e) for e in row) for row in rows_data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ShapeError("ragged rows")
        self.data = data
        self._hash = None

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "Matrix":
        rows = len(columns[0]) if columns else 0
        return cls([[col[i] for col in columns] for i in range(rows)])

    @classmethod
    def diag(cls, entries: Sequence) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.data)
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.data)
        return f"Matrix[{body}]"

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([[c * a for a in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"matrix {self.rows}x{self.cols} applied to length-{len(v)} vector")
        out = []
        for row in self.data:
            acc = Fraction(0)
            for a, x in zip(row, v):
                if a and x:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.data for e in row)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product, skipping zero entries (assembled coboundary matrices are sparse)."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [[Fraction(0)] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for k in range(a.cols):
            aik = arow[k]
            if not aik:
                continue
            brow = b.data[k]
            for j in range(b.cols):
                bkj = brow[j]
                if bkj:
                    orow[j] += aik * bkj
    return Matrix(out)


def block_matrix(blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a matrix from a grid of compatible blocks."""
    rows = []
    for block_row in blocks:
        height = block_row[0].rows
        if any(b.rows != height for b in block_row):
            raise ShapeError("inconsistent block heights")
        for i in range(height):
            row: list[Fraction] = []
            for b in block_row:
                row.extend(b.data[i])
            rows.append(row)
    return Matrix(rows)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    grid = []
    for i, b in enumerate(blocks):
        grid.append([b if i == j else Matrix.zero(b.rows, blocks[j].cols) for j in range(len(blocks))])
    return block_matrix(grid)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, skipping zero entries of both factors."""
    rows = []
    width = a.cols * b.cols
    for arow in a.data:
        for brow in b.data:
            row = [Fraction(0)] * width
            for j, aij in enumerate(arow):
                if aij:
                    base = j * b.cols
                    for col, x in enumerate(brow):
                        if x:
                            row[base + col] = aij * x
            rows.append(row)
    return Matrix(rows)


def _eliminate(
    m: Matrix, rhs: Optional[Vector] = None
) -> tuple[dict[int, dict[int, Fraction]], list[dict[int, Fraction]]]:
    """Sparse Gauss-Jordan elimination to reduced row echelon form.

    Rows are dicts of their nonzero entries; a right-hand side is carried as
    column m.cols and never pivoted.  Columns are eliminated in index order,
    each with the sparsest candidate row as pivot (Markowitz), the first by
    position on a tie.  Since the reduced echelon form is unique, the choice
    of pivot row changes no result, only the fill-in.

    Returns the normalised pivot rows keyed by pivot column, in column order,
    and the rows left without a pivot (by then they hold at most the
    right-hand-side entry).
    """
    rows = [{j: e for j, e in enumerate(row) if e} for row in m.data]
    if rhs is not None:
        for row, b in zip(rows, rhs):
            if b:
                row[m.cols] = frac(b)
    pivots: dict[int, dict[int, Fraction]] = {}
    for c in range(m.cols):
        best = None
        for k, row in enumerate(rows):
            if c in row and (best is None or len(row) < len(rows[best])):
                best = k
        if best is None:
            continue
        prow = rows.pop(best)
        inv = 1 / prow[c]
        prow = {j: e * inv for j, e in prow.items()}
        for other in (*rows, *pivots.values()):
            f = other.get(c)
            if f is None:
                continue
            for j, e in prow.items():
                v = other.get(j, 0) - f * e
                if v:
                    other[j] = v
                else:
                    del other[j]
        pivots[c] = prow
    return pivots, rows


def rank(m: Matrix) -> int:
    """Exact rank: the number of pivots of the sparse elimination."""
    return len(_eliminate(m)[0])


def gauss_rank(m: Matrix) -> int:
    """Plain exact Gaussian elimination; retained only as an oracle for `rank`."""
    rows = [list(row) for row in m.data]
    n_rows, n_cols = m.rows, m.cols
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space.

    Free columns in ascending index order; each basis vector carries a 1 in
    its own free slot, pivot slots filled from the reduced echelon form.
    """
    pivots, _ = _eliminate(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for p, row in pivots.items():
            if free in row:
                v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def solve_linear(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of m·x = rhs, or None if inconsistent.

    Deterministic: free variables are set to zero in canonical column order.
    """
    if len(rhs) != m.rows:
        raise ShapeError(f"rhs length {len(rhs)} != rows {m.rows}")
    pivots, rest = _eliminate(m, rhs)
    if any(rest):  # a row reduced to 0 = b with b != 0
        return None
    x = [Fraction(0)] * m.cols
    for p, row in pivots.items():
        if m.cols in row:
            x[p] = row[m.cols]
    return tuple(x)
