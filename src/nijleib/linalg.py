"""Exact rational vectors and matrices.

No floating point representation exists anywhere in the package.  Inside
it a vector is sparse, an {index: value} dict of its nonzero entries, the
form `combine` sums; the dense `Vector`, a tuple of `fractions.Fraction`, is
only a public view of one (`_dense`, and `_sparse` back).  A matrix stores an integral
entry as a Python `int` and any other entry as a `Fraction` (`_entry`): the
constructors normalise to that form, and sums, products and Kronecker
products of integral matrices stay on `int`, which needs no gcd.  The
bracket tables of `algebra` hold their constants in the same storage form,
and the bundle parsers read table and matrix entries straight into it
(`_rational_entry`), so an integral input is never a Fraction on its way
in.  A Fraction result that happens to be integral may stay a Fraction;
`1 == Fraction(1)` and their hashes agree, so equality and hashing do not
see the difference.  Every entry that leaves a matrix (`data`, `entry`,
`column`, kernel and solution vectors) is a Fraction again, and so is
every value that `parse_rational` returns.

Matrices are immutable, store only their nonzero entries (one {column: value}
dict per row, `Matrix.nz`), and use the column-action convention: entry [i][j]
is the coefficient of basis vector i in the image of basis vector j.
`Matrix.data` is a dense view for printing and for the oracle.  A stacked
matrix is built by concatenating stored rows, each shifted past the columns
to its left: `block_diag` here, [A | b] in `solve_linear`, and the row
builders of `cochain` and `extensions`.  A general block-grid assembler,
`block_matrix`, exists only as a test oracle (`tests/oracles.py`).  `kron`
is the one Kronecker product, read by phi's slot step (`cochain._slot_step`)
and the test oracles.  A `Matrix` hashes its rows frozen as the records do
(`_record._frozen`), so a matrix of polynomials keys a cache too.

`_accumulate` adds (index, value) pairs to a sparse row in place and
deletes an entry that cancels: outside the elimination, which keeps its own
column index, it is the one sparse merge of the package.  `combine`
(c1 v1 + c2 v2 + ... over {index: value} dicts) builds a new sum over it,
and `row_times` is a sparse row times a matrix by `combine`.  Matrix sums
and products, cochain sums, the bracket evaluator, the search polynomials
and the row builders of `cochain` all run on these three.  `_transpose`
reads the columns off sparse rows, for `Matrix.transpose` and the table
kernels of `algebra`.

Rank, kernel and solve share one sparse Gauss-Jordan elimination that picks
the sparsest row as pivot, the lowest row on a tie.  It keeps a column->rows
index of every row, free or pivot, so each pivot search and update step costs
in proportion to the rows that hold the column, not to all rows.  It runs on
primitive integer rows and divides only once, at the end, so a pivot of 1
or -1 costs no more than int arithmetic.  `_kernel_rows` reads the sparse
kernel basis off its reduced pivot rows, and `kernel_basis` is the dense
view of it; `solve_linear` reads its solution off the pivot rows of the
augmented matrix [A | b].  `rank` runs the same loop forward only: it
never updates a row once it is a pivot row, which leaves the pivots as they
are, and it can report each pivot's original row and column, a row basis
and a column basis of the matrix (`cochain.cohomology_dims` reads both).  A
plain dense Gaussian elimination, `gauss_rank`, is kept solely as a
cross-check oracle; it reports the same kind of pivots through its own row
swaps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from ._record import _frozen
from .errors import BundleError, ShapeError

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _quotient(a: int, b: int):
    """a / b exactly, as an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _entry(x):
    """`x` as a matrix stores it: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    q = frac(x)
    return q.numerator if q.denominator == 1 else q


def format_rational(q: Fraction) -> str:
    """Canonical string form: "p/q" with q > 1, else "p"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _rational_entry(text):
    """`parse_rational(text)` as a matrix stores it: an int when integral.

    A canonical "p" or "p/q" is read by `int` and accepted only if both
    parts print back as themselves, q > 1 and gcd(p, q) = 1; `int` also
    takes spellings such as " 1", "+1", "01", "-0", "1_0" or non-ASCII
    digits, and none of them prints back.  A text holding an exponent mark
    `e` or `E` is rejected next: a canonical rational never holds one, and
    `Fraction("1e999999999")` would build the whole power first.  Every
    other input is parsed by `Fraction(text)` and accepted only if its value
    formats back to it, so each rejection carries that parser's message.  A
    value too long to format back, such as that of a decimal spelling with
    thousands of digits, is rejected with the message of the interpreter's
    int-to-str digit limit."""
    if type(text) is str:
        num, slash, den = text.partition("/")
        try:
            p = int(num)
            if str(p) == num:
                if not slash:
                    return p
                q = int(den)
                if q > 1 and str(q) == den and gcd(p, q) == 1:
                    return Fraction(p, q)
        except ValueError:
            pass
    if not isinstance(text, str):
        raise BundleError(f"rational must be a string, got {text!r}")
    if "e" in text or "E" in text:
        raise BundleError(f"bad rational {text!r}: a canonical rational has no exponent 'e' or 'E'")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleError(f"bad rational {text!r}: {exc}") from None
    try:
        canonical = format_rational(q)
    except ValueError as exc:
        raise BundleError(f"bad rational {text!r}: {exc}") from None
    if canonical != text:
        raise BundleError(f"non-canonical rational {text!r}; expected {canonical!r}")
    return _entry(q)


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string; reject non-canonical spellings."""
    return frac(_rational_entry(text))


def _sparse(v: Vector) -> dict:
    """The nonzero entries {k: c} of the dense vector v, each as a matrix
    stores it."""
    return {k: _entry(c) for k, c in enumerate(v) if c}


def _dense(v: dict, n: int) -> Vector:
    """The length-n coordinate vector of sparse v, each entry a Fraction
    whatever type the kernel left it."""
    out = [_ZERO] * n
    for k, c in v.items():
        out[k] = frac(c)
    return tuple(out)


def _accumulate(row: dict, terms) -> dict:
    """Add the (index, value) pairs `terms` to `row` in place, in order; an
    entry that cancels is deleted, never stored as a zero.  Values need
    only + and truth."""
    for j, v in terms:
        if j in row:
            v = row[j] + v
            if not v:
                del row[j]
                continue
        row[j] = v
    return row


def combine(terms) -> dict:
    """c1*v1 + c2*v2 + ... over (c, v) terms, each v an {index: value} dict
    without zeros; the sum holds no zero and shares no dict with its inputs.
    A zero coefficient is skipped, a unit first term copied, -1 negates (no
    gcd), and each later term is merged by `_accumulate`.  Values need only
    +, unary - and *."""
    out: dict = {}
    for c, v in terms:
        if not v or not c:
            continue
        if c != 1:
            v = {k: -a for k, a in v.items()} if c == -1 else {k: c * a for k, a in v.items()}
        elif not out:
            v = dict(v)
        if out:
            _accumulate(out, v.items())
        else:  # the first term is the sum so far, as a dict of its own
            out = v
    return out


def row_times(v: dict, rows) -> dict:
    """The sparse row vector v times the matrix whose rows are `rows`."""
    return combine((a, rows[k]) for k, a in v.items())


def _transpose(rows, cols: int) -> list[dict]:
    """The columns {i: rows[i][j]} of the matrix with sparse rows `rows` and
    `cols` columns, one dict per column j."""
    out: list[dict] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[j][i] = a
    return out


class Matrix:
    """Immutable rational matrix that stores only its nonzero entries: `nz[i]`
    is a {column: value} dict of row i, each value an int when the
    constructor saw an integral value and a Fraction otherwise."""

    __slots__ = ("rows", "cols", "nz", "_hash")

    def __init__(self, rows_data: Sequence[Sequence]):
        dense = [tuple(row) for row in rows_data]
        self.rows = len(dense)
        self.cols = len(dense[0]) if dense else 0
        if any(len(row) != self.cols for row in dense):
            raise ShapeError("ragged rows")
        self.nz = tuple({j: _entry(e) for j, e in enumerate(row) if e} for row in dense)
        self._hash = None

    @classmethod
    def sparse(cls, rows: Sequence[dict], cols: int) -> "Matrix":
        """A len(rows) x cols matrix from one {column: value} dict per row;
        zero values are dropped."""
        if any(row and (min(row) < 0 or max(row) >= cols) for row in rows):
            raise ShapeError(f"column index outside 0..{cols - 1}")
        return cls._of(tuple({j: _entry(e) for j, e in row.items() if e} for row in rows), cols)

    @classmethod
    def _of(cls, nz: tuple, cols: int) -> "Matrix":
        # trusted rows: in range, no zeros stored
        m = object.__new__(cls)
        m.rows, m.cols, m.nz, m._hash = len(nz), cols, nz, None
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(tuple({} for _ in range(rows)), cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple({i: 1} for i in range(n)), n)

    @property
    def data(self) -> tuple[Vector, ...]:
        """Read-only dense view of Fractions, one tuple per row."""
        out = []
        for row in self.nz:
            dense = [_ZERO] * self.cols
            for j, a in row.items():
                dense[j] = frac(a)
            out.append(tuple(dense))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (self.cols, self.nz) == (other.cols, other.nz)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.cols, *map(_frozen, self.nz)))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.data)
        return f"Matrix[{body}]"

    def _check_column(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside 0..{self.cols - 1}")

    def entry(self, i: int, j: int) -> Fraction:
        self._check_column(j)
        return frac(self.nz[i].get(j, _ZERO))

    def column(self, j: int) -> Vector:
        self._check_column(j)
        return tuple(frac(row.get(j, _ZERO)) for row in self.nz)

    def _add(self, other: "Matrix", sign: int, op: str) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} {op} {other.rows}x{other.cols}")
        return Matrix._of(tuple(combine(((1, ra), (sign, rb))) for ra, rb in zip(self.nz, other.nz)), self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._add(other, 1, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._add(other, -1, "-")

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple({j: -a for j, a in row.items()} for row in self.nz), self.cols)

    def scale(self, c) -> "Matrix":
        c = _entry(c)
        return Matrix._of(tuple(combine(((c, row),)) for row in self.nz), self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"matrix {self.rows}x{self.cols} applied to length-{len(v)} vector")
        return tuple(sum((a * v[j] for j, a in row.items() if v[j]), _ZERO) for row in self.nz)

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(_transpose(self.nz, self.cols)), self.rows)

    def is_zero(self) -> bool:
        return not any(self.nz)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over the nonzero entries of both factors."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix._of(tuple(row_times(arow, b.nz) for arow in a.nz), b.cols)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """The block-diagonal matrix: each block's rows, shifted right past the
    columns of the blocks before it."""
    rows, base = [], 0
    for b in blocks:
        rows.extend({base + j: e for j, e in row.items()} for row in b.nz)
        base += b.cols
    return Matrix._of(tuple(rows), base)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, one product per pair of nonzero entries: row (i, s)
    holds a[i][j] times row s of b at block j, the blocks (j * b.cols,
    a[i][j]) computed once per row i.  Each row is a fresh dict, which
    `cochain._slot_step` adds to in place."""
    rows = []
    for arow in a.nz:
        blocks = [(j * b.cols, aij) for j, aij in arow.items()]
        rows.extend({base + col: aij * x for base, aij in blocks for col, x in brow.items()} for brow in b.nz)
    return Matrix._of(tuple(rows), a.cols * b.cols)


def _eliminate(m: Matrix, origins: Optional[list] = None, reduced: bool = True) -> dict[int, dict]:
    """Sparse Gauss-Jordan elimination to reduced row echelon form.

    Works on copies of the rows of `m.nz`.  A column index, `holders[j]`,
    keeps the set of rows (free or already pivot) that hold an entry in
    column j: fill-in adds a row to it and a cancellation removes it.  Columns
    are eliminated in index order, each with the sparsest free row of
    `holders[c]` as pivot (Markowitz), the lowest original row on a tie, and
    the update touches only the other rows of `holders[c]`.  So each step
    costs in proportion to the rows that hold the column, not to all rows.
    Since the reduced echelon form is unique, the choice of pivot row changes
    no result, only the fill-in.

    The elimination is fraction-free.  Each row is first scaled to primitive
    integers (coprime ints, no Fraction), and a pivot row is negated if its
    pivot is negative.  Against a pivot p = 1, the update of a row is the
    usual row - f*pivot_row on ints.  Against any other p it is
    (p/g)*row - (f/g)*pivot_row with g = gcd(p, f), after which the row is
    divided by the gcd of its entries.  Every row stays a nonzero multiple of
    the row a rational elimination holds, so dividing each pivot row by its
    pivot at the end gives the reduced form exactly.  The rows never hold a
    Fraction, and the integers stay small because every row is kept
    primitive.

    Returns the normalised pivot rows keyed by pivot column, in column order.
    Values are ints where integral and Fractions otherwise, as in `Matrix.nz`.
    If `origins` is a list, the original index of each pivot row and its
    pivot column are appended to it as (row, column), in column order.  Each
    pivot row is a nonzero multiple of its original row plus multiples of
    earlier pivot rows, so those original rows are a row basis of `m`, and
    the pivot columns a column basis.

    With `reduced` false the elimination runs forward only: a row that has
    become a pivot row is never updated again and not normalised, so the
    pivot rows are an echelon form, not the reduced one.  The free rows get
    the same updates as in the reduced run, so the pivots, their rows of
    origin and their columns are the same; only the back-substitution is
    saved.
    """
    rows = [dict(row) for row in m.nz]
    for k, row in enumerate(rows):
        try:
            g = gcd(*row.values())
        except TypeError:  # a Fraction entry: clear the denominators first
            scale = lcm(*(e.denominator for e in row.values()))
            row = rows[k] = {j: (e * scale).numerator for j, e in row.items()}
            g = gcd(*row.values())
        if g > 1:
            rows[k] = {j: e // g for j, e in row.items()}
    holders: list[Optional[set[int]]] = [set() for _ in range(m.cols)]
    for k, row in enumerate(rows):
        for j in row:
            holders[j].add(k)
    free = [True] * len(rows)
    pivots: dict[int, dict] = {}
    for c in range(m.cols):
        hold, holders[c] = holders[c], None  # column c is never looked up again
        sparsest = min(((len(rows[k]), k) for k in hold if free[k]), default=None)
        if sparsest is None:
            continue
        best = sparsest[1]
        free[best] = False
        if origins is not None:
            origins.append((best, c))
        prow = rows[best]
        if prow[c] < 0:
            prow = rows[best] = {j: -e for j, e in prow.items()}
        p = prow[c]
        fill = [(j, e) for j, e in prow.items() if j != c]
        for k in hold:
            if k == best or not (reduced or free[k]):
                continue
            row = rows[k]
            f = row.pop(c)
            a = 1
            if p != 1:  # row <- a*row - f*prow with a = p/g and f = f/g
                g = gcd(p, f)
                a, f = p // g, f // g
                if a != 1:
                    for j in row:
                        row[j] *= a
            for j, e in fill:
                if j in row:
                    v = row[j] - f * e
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        holders[j].remove(k)
                else:
                    row[j] = -(f * e)
                    holders[j].add(k)
            if a != 1:
                g = gcd(*row.values())  # 0 for a row that cancelled
                if g > 1:
                    for j in row:
                        row[j] //= g
        pivots[c] = prow
    if not reduced:
        return pivots
    for c, prow in pivots.items():
        p = prow[c]
        if p != 1:
            pivots[c] = {j: _quotient(e, p) for j, e in prow.items()}
    return pivots


def rank(m: Matrix, pivots: Optional[list] = None) -> int:
    """Exact rank: the number of pivots of the forward-only sparse
    elimination.  If `pivots` is a list, each pivot's original row and its
    column are appended to it as (row, column), in column order: those rows
    are a row basis of `m`, those columns a column basis, and m[rows, columns]
    is nonsingular."""
    return len(_eliminate(m, pivots, reduced=False))


def gauss_rank(m: Matrix, pivots: Optional[list] = None) -> int:
    """Plain exact Gaussian elimination; retained only as an oracle for `rank`.
    `pivots` receives (original row, column) per pivot as in `rank`; the row
    of origin is tracked through the row swaps."""
    rows = [list(row) for row in m.data]
    origin = list(range(m.rows))
    n_rows, n_cols = m.rows, m.cols
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        if pivots is not None:
            pivots.append((origin[r], c))
        inv = Fraction(1) / rows[r][c]  # exact whatever type the entry has
        rows[r] = [e * inv for e in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n_rows:
            break
    return r


def _kernel_rows(m: Matrix) -> list[dict]:
    """The canonical basis of the right null space as sparse {column: value}
    dicts, in ascending order of their free columns: each holds 1 at its own
    free column and -row[free] at the pivot of each reduced pivot row."""
    pivots = _eliminate(m)
    vectors = {free: {free: 1} for free in range(m.cols) if free not in pivots}
    # a reduced pivot row holds its own pivot and free columns only
    for p, row in pivots.items():
        for free, e in row.items():
            if free != p:
                vectors[free][p] = -e
    return list(vectors.values())


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the right null space: the dense view of
    `_kernel_rows`, in the same order."""
    return [_dense(v, m.cols) for v in _kernel_rows(m)]


def solve_linear(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of m·x = rhs, or None if inconsistent.

    The system is inconsistent exactly when the last column of [m | rhs]
    takes a pivot.  Deterministic: free variables are set to zero in
    canonical column order.
    """
    if len(rhs) != m.rows:
        raise ShapeError(f"rhs length {len(rhs)} != rows {m.rows}")
    augmented = tuple({**row, m.cols: _entry(b)} if b else row for row, b in zip(m.nz, rhs))
    pivots = _eliminate(Matrix._of(augmented, m.cols + 1))
    if m.cols in pivots:  # a row reduced to 0 = 1
        return None
    return _dense({p: row[m.cols] for p, row in pivots.items() if m.cols in row}, m.cols)
