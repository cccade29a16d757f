"""Dense reference evaluation shared by the test modules.

The library evaluates every bracket on sparse structure-constant tables, and
`LeibnizAlgebra.bracket` delegates to that kernel too, so the oracles below
evaluate bilinear maps with their own dense loop instead.
"""

from hypothesis import strategies as st

from nijleib.algebra import LeibnizAlgebra
from nijleib.linalg import zero_vector


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
