"""Operator identities: Nijenhuis, Rota-Baxter (plain, weighted, modified),
their defects, the induced star bracket and representation, the
N^2 correspondence suite, and exhaustive grid classification.

The weighted Rota-Baxter identity carries a convention flag: `as_printed`
keeps the weight term inside the outer operator application, `standard`
(default) puts it on the bare bracket.  Both are evaluated exactly.

All four identities have one form,
D_K(x, y) = [Nx, Ny] - N([Nx, y] + [x, Ny]) + p_K(N)[x, y],
and the kind enters only through the coefficients of p_K (`_p_coefficients`).
The kernel `algebra._defect_table` evaluates it by scattering each entry of
the bracket table to the basis pairs it reaches.  `operator_defect` runs it on
the rows of the operator as stored (`Matrix.nz`) and returns its nonzero values,
and `check_operator` reads the first witness off them; `defect_polynomial` runs
it with the rows held as polynomials in the entries of N (`_Poly`), which is
what compiles the grid search; its walk solves each level for integer roots
and shares one row object per numerator tuple among its leaves, which are
confirmed on ints (an operator with Fraction entries as the int matrix sN).
The star bracket is the kernel
`algebra._star_table`: `induced_bracket` is its value on the bracket table,
and `induced_representation` reads the induced actions off its value on the
semidirect product.  An `OperatorKind` is a frozen record
(`_record.record`) that checks its tag, weight and convention.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import Iterator, Optional

from ._record import record
from .algebra import Counterexample, LeibnizAlgebra, Representation
from .algebra import _check_semidirect, _defect_table, _star_table
from .errors import PreconditionError, ResourceLimitError, ShapeError
from .linalg import Matrix, _dense, _entry, combine, frac

OPERATOR_KINDS = ("nijenhuis", "rota_baxter", "rota_baxter_weighted", "modified_rota_baxter")
WEIGHT_CONVENTIONS = ("standard", "as_printed")


@record
class OperatorKind:
    tag: str
    weight: Optional[Fraction] = None
    convention: str = "standard"

    def __post_init__(self):
        if self.tag not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.tag!r}")
        weighted = self.tag in ("rota_baxter_weighted", "modified_rota_baxter")
        if weighted and self.weight is None:
            raise ValueError(f"{self.tag} requires a weight")
        if not weighted and self.weight is not None:
            raise ValueError(f"{self.tag} takes no weight")
        if self.convention not in WEIGHT_CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")

    def describe(self) -> str:
        if self.weight is None:
            return self.tag
        label = f"{self.tag}({self.weight})"
        if self.tag == "rota_baxter_weighted":
            label += f"[{self.convention}]"
        return label


def nijenhuis() -> OperatorKind:
    return OperatorKind("nijenhuis")


def rota_baxter() -> OperatorKind:
    return OperatorKind("rota_baxter")


def rota_baxter_weighted(weight, convention: str = "standard") -> OperatorKind:
    return OperatorKind("rota_baxter_weighted", frac(weight), convention)


def modified_rota_baxter(weight) -> OperatorKind:
    return OperatorKind("modified_rota_baxter", frac(weight))


def _p_coefficients(kind: OperatorKind) -> tuple:
    """(alpha, beta, gamma) with p_K(N) = alpha Id + beta N + gamma N^2: the one
    place where the kind enters the defect
    D_K(x, y) = [Nx, Ny] - N([Nx, y] + [x, Ny]) + p_K(N)[x, y].

    Nijenhuis has p = N^2 and Rota-Baxter p = 0.  With weight w, the weighted
    identity has p = -wN (`standard`) or -wN^2 (`as_printed`), and the
    modified one p = -w Id."""
    w = kind.weight
    if kind.tag == "nijenhuis":
        return 0, 0, 1
    if kind.tag == "rota_baxter":
        return 0, 0, 0
    if kind.tag == "modified_rota_baxter":
        return -w, 0, 0
    return (0, -w, 0) if kind.convention == "standard" else (0, 0, -w)


def operator_defect(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind) -> dict:
    """Left-minus-right side of the chosen identity on every basis pair, as
    its nonzero values {(i, j): {k: Fraction}}.

    Bilinearity extends a vanishing defect to all inputs, so an empty table
    means the identity holds.  This is `_defect_table` over the bracket table
    of `alg` and rows of int entries; only the values it returns become
    Fractions.  An `n` with int entries enters as stored (`Matrix.nz`), one
    with Fraction entries as the int matrix M = sN, s the LCM of its
    denominators, with p' = (alpha s^2, beta s, gamma), and the values are
    divided by s^2, since D_K(M / s) = D_K'(M) / s^2.
    """
    if n.rows != alg.dim or n.cols != alg.dim:
        raise ShapeError("operator dimension does not match the algebra")
    alpha, beta, gamma = _p_coefficients(kind)
    s = lcm(*[x.denominator for row in n.nz for x in row.values() if type(x) is not int])
    rows = n.nz if s == 1 else tuple({j: x.numerator * (s // x.denominator) for j, x in row.items()} for row in n.nz)
    values = _defect_table((alpha * s * s, beta * s, gamma), ((alg.table, rows, rows),))
    return {pair: {k: Fraction(c, s * s) for k, c in vec.items()} for pair, vec in values.items()}


def check_operator(alg: LeibnizAlgebra, n: Matrix, kind: OperatorKind) -> Optional[Counterexample]:
    """None if the identity holds, else the defect on the row-major first
    basis pair where it does not."""
    values = operator_defect(alg, n, kind)
    if not values:
        return None
    first = min(values)
    return Counterexample(kind.describe(), first, _dense(values[first], alg.dim))


def is_nijenhuis(alg: LeibnizAlgebra, n: Matrix) -> bool:
    return check_operator(alg, n, nijenhuis()) is None


def correspondence_suite(alg: LeibnizAlgebra, n: Matrix) -> dict:
    """Detect which of N^2 = 0, N, Id, -Id hold and, for each detected case,
    compare the Nijenhuis verdict against the corresponding Rota-Baxter-style
    verdict.  A disagreement is reported with both exact counterexamples."""
    n2 = n * n
    ident = Matrix.identity(n.rows)
    cases = {
        "N2=0": (n2.is_zero(), rota_baxter()),
        "N2=N": (n2 == n, rota_baxter_weighted(-1, "standard")),
        "N2=Id": (n2 == ident, modified_rota_baxter(-1)),
        "N2=-Id": (n2 == ident.scale(-1), modified_rota_baxter(1)),
    }
    nij_witness = check_operator(alg, n, nijenhuis())
    report: dict = {"nijenhuis_passes": nij_witness is None, "cases": {}}
    for label, (detected, other_kind) in cases.items():
        if not detected:
            continue
        other_witness = check_operator(alg, n, other_kind)
        entry = {
            "equivalent_kind": other_kind.describe(),
            "other_passes": other_witness is None,
            "agree": (nij_witness is None) == (other_witness is None),
        }
        if not entry["agree"]:
            entry["nijenhuis_witness"] = nij_witness
            entry["other_witness"] = other_witness
        report["cases"][label] = entry
    return report


def induced_bracket(alg: LeibnizAlgebra, n: Matrix) -> LeibnizAlgebra:
    """Star bracket [x,y]* = [Nx,y] + [x,Ny] - N[x,y]; requires a Nijenhuis
    operator."""
    bad = check_operator(alg, n, nijenhuis())
    if bad is not None:
        raise PreconditionError(f"not a Nijenhuis operator: {bad.describe()}")
    return LeibnizAlgebra(alg.dim, alg.basis, _star_table(alg.table, n.nz))


def induced_representation(rep: Representation, alg: LeibnizAlgebra, n: Matrix) -> Representation:
    """Actions of the star algebra: L'_i = l_{Ne_i} - N_V L_i + L_i N_V and the
    right-hand analogue R'_i = r_{Ne_i} - N_V R_i + R_i N_V; the module
    operator is unchanged.

    Both are read off one `_star_table` of the semidirect product with the
    operator N (+) N_V: its values on the pairs (e_i, v_b) and (v_b, e_i)
    are the module table of the induced representation."""
    nv = rep.module_operator
    if nv is None:
        raise PreconditionError("induced representation needs a module operator")
    bad, table, rows = _check_semidirect(alg, rep, n)
    if bad is not None:
        raise PreconditionError(f"not a Nijenhuis representation: {bad.describe()}")
    d, star = alg.dim, _star_table(table, rows)
    star = {(a, b): {k: _entry(c) for k, c in v.items()} for (a, b), v in star.items() if (a < d) != (b < d)}
    return Representation._of(star, nv, d, rep.module_dim)


GRID_GUARD = 10**7


def iter_grid_matrices(dim: int, lo: int, hi: int, denominator: int = 1) -> Iterator[Matrix]:
    """All dim x dim matrices with entries p/denominator, p in [lo, hi], in
    lexicographic row-major entry order: the brute-force oracle of
    `search_operators_grid`."""
    values = [Fraction(p, denominator) for p in range(lo, hi + 1)]
    for entries in product(values, repeat=dim * dim):
        yield Matrix([entries[r * dim : (r + 1) * dim] for r in range(dim)])


class _Poly(dict):
    """A polynomial in the entries of N: {monomial: coefficient}, a monomial
    the sorted tuple of its variables, no zero coefficient stored.  It adds
    and multiplies with a polynomial or a rational on either side, and
    negates, each by one `combine`, so the bracket kernel runs on it
    unchanged."""

    def __add__(self, other) -> "_Poly":
        return _Poly(combine(((1, self), (1, _poly(other)))))

    __radd__ = __add__

    def __neg__(self) -> "_Poly":
        return _Poly(combine(((-1, self),)))

    def __mul__(self, other) -> "_Poly":
        factor = _poly(other)
        return _Poly(combine((c, {tuple(sorted(m + n)): f for n, f in factor.items()}) for m, c in self.items()))

    __rmul__ = __mul__


def _poly(x) -> dict:
    """A polynomial as itself, a rational as the constant polynomial."""
    return x if isinstance(x, _Poly) else {(): x} if x else {}


def defect_polynomial(alg: LeibnizAlgebra, kind: OperatorKind) -> tuple[dict, ...]:
    """Each component of the defect tensor as a polynomial in the entries of N.

    Component (i*d + j)*d + l is coordinate l of the defect on (e_i, e_j), and
    variable a = r*d + c is the entry N[r][c].  A polynomial is a
    {monomial: coefficient} dict over the monomials (), (a,) and (a, b) with
    a < b or a = b; zero coefficients are left out and every other one is a
    Fraction.  The identity is evaluated once, by the kernel of
    `operator_defect`, with the rows of N held as polynomials of degree 1.
    """
    d = alg.dim
    rows = [{c: _Poly({(r * d + c,): 1}) for c in range(d)} for r in range(d)]
    values = _defect_table(_p_coefficients(kind), ((alg.table, rows, rows),))
    return tuple(
        {mono: frac(c) for mono, c in values.get((i, j), {}).get(l, {}).items()}
        for i, j in product(range(d), repeat=2)
        for l in range(d)
    )


def _compile_grid_tests(polys, k: int, denominator: int) -> list[list[tuple]]:
    """Per variable t, the components whose last variable is t, as integer
    tests on the numerators p (entry = p / denominator).  A constant component
    is tested with variable 0, so a nonzero one rejects every candidate.

    A component is scaled by the LCM of its coefficient denominators, and a
    degree-e term by denominator^(2-e).  Slot k of the numerator list holds 1,
    so the constant and linear terms are products of two slots like the
    quadratic ones.  A test (below, cross, square) reads
    A + p_t * (B + square * p_t) with A = sum c * p_a * p_b over `below` and
    B = sum c * p_a over `cross`.
    """
    by_last: list[list[tuple]] = [[] for _ in range(k)]
    for poly in polys:
        if not poly:
            continue
        scale = lcm(*(v.denominator for v in poly.values()))
        coeff = {mono: int(v * scale) * denominator ** (2 - len(mono)) for mono, v in poly.items()}
        t = max((a for mono in coeff for a in mono), default=0)
        below, cross, square = [], [], 0
        for mono, c in coeff.items():
            if t not in mono:
                below.append((mono + (k, k))[:2] + (c,))
            elif mono == (t, t):
                square = c
            else:
                cross.append((mono[0] if len(mono) == 2 else k, c))
        by_last[t].append((tuple(below), tuple(cross), square))
    return by_last


def search_operators_grid(
    alg: LeibnizAlgebra,
    kind: OperatorKind,
    lo: int,
    hi: int,
    denominator: int = 1,
) -> list[Matrix]:
    """Every operator of the chosen kind with entries p/denominator, p in
    [lo, hi], in the grid order of `iter_grid_matrices`.

    The defect components are compiled once (`defect_polynomial`) into
    integer polynomials in the numerators.  A depth-first walk fixes the
    entries in row-major order.  At each level the components whose last
    variable it is read base + v * (slope + square * v) = 0, and the level
    takes only their common integer roots v in [lo, hi], ascending
    (`_solve_level`); so the walk admits exactly the operators of the kind.
    The entries past the deepest level with a component are free, and the
    leaves below it are the product of each row's choices.  A leaf matrix
    is built from trusted rows, one object per tuple of numerators shared by
    every leaf, its entries normalised by `_entry` once per grid value.
    Each leaf is confirmed by `check_operator`, one pass of
    `_defect_table` over the bracket table on ints, so a leaf on an abelian
    algebra costs no bracket work.
    """
    if denominator < 1:
        raise PreconditionError("denominator must be positive")
    if hi < lo:
        raise PreconditionError("empty entry range")
    dim = alg.dim
    k, width = dim * dim, hi - lo + 1
    # width^k is multiplied out only until it passes the guard: formed whole,
    # it would have thousands of digits from about 120 dimensions on
    count = 1
    for _ in range(k if width > 1 else 0):
        count *= width
        if count > GRID_GUARD:
            try:
                grid = f"{width}^{k}"
            except ValueError:  # a width past the int-to-str digit limit, named by its bits
                grid = f"(at least 2^{width.bit_length() - 1})^{k}"
            raise ResourceLimitError(f"grid of {grid} candidates exceeds guard {GRID_GUARD}")
    by_last = _compile_grid_tests(defect_polynomial(alg, kind), k, denominator)
    numerators = range(lo, hi + 1)
    # a 0-dim algebra has one candidate, with no entries to read
    entry = {v: _entry(Fraction(v, denominator)) for v in numerators} if k else {}
    deep = max((t + 1 for t in range(k) if by_last[t]), default=0)
    first = deep // dim if k else 0
    p, fixed_rows = [0] * k + [1], [None] * dim
    rows: dict = {}  # numerator tuple -> its row, one object for every leaf
    found = []

    def row(key: tuple) -> dict:
        if key not in rows:
            rows[key] = {c: entry[v] for c, v in enumerate(key) if v}
        return rows[key]

    def walk(t: int) -> None:
        if t < deep:
            tests = [
                (sum(c * p[a] * p[b] for a, b, c in below), sum(c * p[a] for a, c in cross), square)
                for below, cross, square in by_last[t]
            ]
            for v in _solve_level(tests, numerators):
                p[t] = v
                if t % dim == dim - 1:
                    fixed_rows[t // dim] = row(tuple(p[t + 1 - dim : t + 1]))
                walk(t + 1)
            return
        # no test reads the entries from `deep` on: each row holding one takes its choices in grid order
        choices = []
        for r in range(first, dim):
            lead = tuple(p[r * dim : deep])  # empty past the row of `deep`
            choices.append([row(lead + tail) for tail in product(numerators, repeat=dim - len(lead))])
        head = tuple(fixed_rows[:first])
        for tail in product(*choices):
            m = Matrix._of(head + tail, dim)
            if check_operator(alg, m, kind) is None:
                found.append(m)

    walk(0)
    return found


def _solve_level(tests: list, numerators: range) -> list:
    """The numerators v, ascending, with base + v * (slope + square * v) = 0
    for every test (base, slope, square): the integer roots of the first test
    that v enters, in range and passing the others."""
    lead = next(((b, s, q) for b, s, q in tests if s or q), None)
    if lead is None:
        return [] if any(b for b, _, _ in tests) else numerators
    base, slope, square = lead
    if not square:
        roots = [-base // slope] if base % slope == 0 else []
    else:
        disc = slope * slope - 4 * square * base
        r = isqrt(max(disc, 0))
        ends = (-r, r) if r * r == disc else ()
        roots = sorted({(e - slope) // (2 * square) for e in ends if (e - slope) % (2 * square) == 0})
    return [v for v in roots if v in numerators and all(b + v * (s + q * v) == 0 for b, s, q in tests)]
