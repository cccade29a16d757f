"""Slow reference implementations and small helpers shared by the test
modules.

The library stores every bracket as its sparse table of structure constants
and evaluates it there, and `LeibnizAlgebra.bracket` delegates to that kernel
too, so the oracles below work on dense tensors with their own loops instead:
`bilinear_eval`, `evaluate_cochain`, and the dense constructions `slow_direct_sum`
and `slow_extension_structure`.  `slow_eliminate` is the elimination kernel
without its column index; like it, it returns the pivot rows of the reduced
echelon form and nothing else.
"""

from fractions import Fraction

from hypothesis import strategies as st

from nijleib.algebra import LeibnizAlgebra
from nijleib.linalg import Matrix, unit_vector, zero_vector


def unit(alg, i):
    """The basis vector e_i of `alg` as a dense coordinate tuple."""
    return unit_vector(alg.dim, i)


def diag(entries):
    """The diagonal matrix with these entries."""
    return Matrix.sparse([{i: e} for i, e in enumerate(entries)], len(entries))


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


def evaluate_cochain(f, *vectors):
    """A cochain on dense vectors: the sum over basis tuples t of
    f(e_t) times the product of the coordinates vectors[slot][t[slot]]."""
    assert len(vectors) == f.degree
    acc = list(zero_vector(f.module_dim))
    for t, v in f.values.items():
        coeff = Fraction(1)
        for slot, idx in enumerate(t):
            coeff *= vectors[slot][idx]
            if not coeff:
                break
        if not coeff:
            continue
        for k, c in enumerate(v):
            if c:
                acc[k] += coeff * c
    return tuple(acc)


def slow_direct_sum(a, b):
    """The dense structure tensor of the direct sum, block by block."""
    dim = a.dim + b.dim
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < a.dim and j < a.dim:
                v = a.structure[i][j] + zero_vector(b.dim)
            elif i >= a.dim and j >= a.dim:
                v = zero_vector(a.dim) + b.structure[i - a.dim][j - a.dim]
            else:
                v = zero_vector(dim)
            row.append(v)
        structure.append(tuple(row))
    return tuple(structure)


def slow_extension_structure(alg, rep, psi):
    """The dense structure tensor of the total algebra on g (+) V:
    [(x,u),(y,v)] = ([x,y], psi(x,y) + l(x,v) + r(u,y)), block by block."""
    n, m = alg.dim, rep.module_dim
    psi = psi.as_tensor()
    structure = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                v = alg.structure[i][j] + psi[i][j]
            elif i < n <= j:
                v = zero_vector(n) + rep.left[i].column(j - n)
            elif j < n <= i:
                v = zero_vector(n) + rep.right[j].column(i - n)
            else:
                v = zero_vector(n + m)
            row.append(v)
        structure.append(tuple(row))
    return tuple(structure)


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


def slow_eliminate(m):
    """`linalg._eliminate` without the column index: every pivot search scans
    all free rows, and every update step scans all free and pivot rows.  Same
    pivot rule, so it returns the same pivot rows with the same key order."""
    rows = [dict(row) for row in m.nz]
    pivots: dict[int, dict[int, Fraction]] = {}
    for c in range(m.cols):
        best = None
        for k, row in enumerate(rows):
            if c in row and (best is None or len(row) < len(rows[best])):
                best = k
        if best is None:
            continue
        prow = rows.pop(best)
        inv = Fraction(1) / prow[c]  # exact on int and Fraction pivots alike
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
    return pivots
