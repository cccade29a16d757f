"""Slow reference implementations shared by the test modules.

The library evaluates every bracket on sparse structure-constant tables, and
`LeibnizAlgebra.bracket` delegates to that kernel too, so the oracles below
evaluate bilinear maps with their own dense loop instead.  `slow_eliminate`
is the elimination kernel without its column index.
"""

from fractions import Fraction

from hypothesis import strategies as st

from nijleib.algebra import LeibnizAlgebra
from nijleib.linalg import frac, zero_vector


def bilinear_eval(tensor, x, y):
    """sum over i, j of x_i y_j tensor[i][j], on dense coordinate tuples."""
    dim = len(tensor)
    assert len(x) == dim and len(y) == dim
    out_dim = len(tensor[0][0]) if dim else 0
    acc = list(zero_vector(out_dim))
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, c in enumerate(tensor[i][j]):
                if c:
                    acc[k] += coeff * c
    return tuple(acc)


@st.composite
def any_brackets(draw):
    """Dim 0-4 structure constants, mostly zero or dense rationals; they need
    not satisfy the Leibniz identity."""
    dim = draw(st.integers(0, 4))
    entry = draw(
        st.sampled_from((st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2)), st.fractions(-3, 3, max_denominator=4)))
    )
    return LeibnizAlgebra.from_structure(
        [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


def slow_eliminate(m, rhs=None):
    """`linalg._eliminate` without the column index: every pivot search scans
    all free rows, and every update step scans all free and pivot rows.  Same
    pivot rule, so it returns the same pivot rows and leftover rows, with the
    same key order and row order."""
    rows = [dict(row) for row in m.nz]
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
