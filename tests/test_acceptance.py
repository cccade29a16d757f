"""Acceptance battery.

Eleven criteria, one test each; every test prints a single pass/fail line
(run with `pytest tests/test_acceptance.py -s` to see them as they go).
Each check is exact: any nonzero residual anywhere fails the criterion.
"""

import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

from nijleib.algebra import (
    adjoint_representation,
    catalog_get,
    catalog_nijenhuis_pairs,
    check_leibniz,
    check_representation,
    trivial_representation,
)
from nijleib.cochain import (
    Cochain,
    NLACochain,
    chain_map_residual,
    cohomology_dims,
    d_nla,
    delta,
    delta_matrix,
    partial_matrix,
    sample_cocycles,
)
from nijleib.deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    infinitesimal,
    residual_report,
    trivial_deformation,
    twist_by_isomorphism,
)
from nijleib.extensions import (
    CocyclePair,
    Section,
    build_extension,
    section_difference_class,
    section_to_cocycle,
    transport_cocycle_via_isomorphism,
)
from nijleib.linalg import Matrix, frac, gauss_rank, rank
from nijleib.operators import (
    check_operator,
    induced_bracket,
    induced_representation,
    is_nijenhuis,
    iter_grid_matrices,
    modified_rota_baxter,
    nijenhuis,
    rota_baxter,
    rota_baxter_weighted,
    search_operators_grid,
)
from oracles import identity_cochain

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def random_matrix(rng, dim, lo=-3, hi=3):
    return Matrix([[frac(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)])


def test_criterion_01_classification_reproduction():
    alg = catalog_get("loday2")
    start = time.perf_counter()
    found = search_operators_grid(alg, nijenhuis(), -2, 2, 1)
    elapsed = time.perf_counter() - start
    expected = {
        op
        for op in iter_grid_matrices(2, -2, 2)
        if op.entry(1, 0) == 0
        and (op.entry(0, 0) == op.entry(1, 1) or op.entry(0, 0) - op.entry(1, 1) == op.entry(0, 1))
    }
    ok = len(found) == 39 and set(found) == expected and elapsed < 1.0
    report(1, "grid classification, 39 operators", ok)


def test_criterion_02_induced_bracket():
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        star = induced_bracket(alg, op)
        ok = ok and check_leibniz(star) is None
        ok = ok and is_nijenhuis(star, op)
        for i, j in product(range(alg.dim), repeat=2):
            ok = ok and op.apply(star.bracket_basis(i, j)) == alg.bracket(op.column(i), op.column(j))
    golden = induced_bracket(catalog_get("loday2"), Matrix([[2, 1], [0, 1]]))
    ok = ok and golden.structure == catalog_get("loday2").structure
    report(2, "induced star bracket", ok)


def _square_zero(rng):
    while True:
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        if u[0] * v[0] + u[1] * v[1] == 0:
            return Matrix([[frac(u[i] * v[j]) for j in range(2)] for i in range(2)])


def _idempotent(rng):
    while True:
        u = [rng.randint(-3, 3) for _ in range(2)]
        v = [rng.randint(-3, 3) for _ in range(2)]
        if u[0] * v[0] + u[1] * v[1] == 1:
            return Matrix([[frac(u[i] * v[j]) for j in range(2)] for i in range(2)])


def _involution(rng):
    p = _idempotent(rng)
    return p.scale(2) - Matrix.identity(2)


def _anti_involution(rng):
    from fractions import Fraction

    while True:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        if b:
            c = Fraction(-1 - a * a, b)
            return Matrix([[frac(a), frac(b)], [c, frac(-a)]])


def test_criterion_03_correspondence_suite():
    cases = [
        (_square_zero, rota_baxter()),
        (_idempotent, rota_baxter_weighted(-1, "standard")),
        (_involution, modified_rota_baxter(-1)),
        (_anti_involution, modified_rota_baxter(1)),
    ]
    algebras = [catalog_get("loday2"), catalog_get("square2")]
    rng = random.Random(2024)
    ok = True
    for sampler, other_kind in cases:
        for k in range(50):
            op = sampler(rng)
            alg = algebras[k % 2]
            nij = check_operator(alg, op, nijenhuis()) is None
            other = check_operator(alg, op, other_kind) is None
            ok = ok and nij == other
    report(3, "operator correspondence classes", ok)


def test_criterion_04_representation_machinery():
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        ok = ok and check_representation(alg, rep) is None
        star = induced_bracket(alg, op)
        irep = induced_representation(rep, alg, op)
        ok = ok and check_representation(star, irep) is None
        ok = ok and check_representation(star, irep, op) is None
    report(4, "representation machinery", ok)


def test_criterion_05_complex_junctions():
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        top = 3 if alg.dim == 2 else 2
        for d in range(top):
            prod = delta_matrix(alg, rep, d + 1) * delta_matrix(alg, rep, d)
            ok = ok and prod.is_zero()
            prod = partial_matrix(alg, op, rep, d + 1) * partial_matrix(alg, op, rep, d)
            ok = ok and prod.is_zero()
    # timed run at dim 3, degree 3
    name, alg, op = next(p for p in catalog_nijenhuis_pairs() if p[0] == "dsum3/block")
    rep = adjoint_representation(alg, op)
    start = time.perf_counter()
    ok = ok and (delta_matrix(alg, rep, 3) * delta_matrix(alg, rep, 2)).is_zero()
    ok = ok and (partial_matrix(alg, op, rep, 3) * partial_matrix(alg, op, rep, 2)).is_zero()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(5, "delta and partial square to zero", ok)


def test_criterion_06_degree_one_diagnostic():
    alg = catalog_get("loday2")
    ident = Matrix.identity(2)
    rep = adjoint_representation(alg, ident)
    f = identity_cochain(2)
    printed = chain_map_residual(alg, ident, rep, f, "printed")
    ok = not printed.is_zero()
    ok = ok and printed.values == delta(alg, rep, f).values
    rng = random.Random(99)
    for degree in (1, 2, 3):
        g = Cochain.from_table(
            degree,
            2,
            2,
            {
                t: tuple(frac(rng.randint(-2, 2)) for _ in range(2))
                for t in product(range(2), repeat=degree)
            },
        )
        ok = ok and chain_map_residual(alg, ident, rep, g, "full").is_zero()
    report(6, "degree-1 diagnostic, printed vs full", ok)


def test_criterion_07_first_order_infinitesimal():
    rng = random.Random(5)
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        for _ in range(20):
            psi1 = random_matrix(rng, alg.dim)
            iso = FormalIsomorphism.linear(psi1, 1)
            d = twist_by_isomorphism(trivial_deformation(alg, op, 1), iso)
            inf = infinitesimal(d)
            expected_mu1 = delta(alg, rep, Cochain.from_matrix(psi1))
            ok = ok and inf.upper.values == expected_mu1.values
            ok = ok and inf.lower.as_matrix() == (op * psi1) - (psi1 * op)
            expected = d_nla(alg, op, rep, NLACochain(Cochain.from_matrix(psi1), Cochain.zero(0, alg.dim, alg.dim)))
            ok = ok and (inf.upper - expected.upper).is_zero()
            ok = ok and (inf.lower - expected.lower).is_zero()
    report(7, "first-order twist infinitesimals", ok)


def test_criterion_08_deformation_residuals():
    rng = random.Random(11)
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        ok = ok and residual_report(alg, op, trivial_deformation(alg, op, 3)).passes
        iso = FormalIsomorphism.linear(random_matrix(rng, alg.dim), 3)
        twisted = twist_by_isomorphism(trivial_deformation(alg, op, 3), iso)
        ok = ok and residual_report(alg, op, twisted).passes
    alg = catalog_get("loday2")
    op = Matrix([[2, 1], [0, 1]])
    d0 = trivial_deformation(alg, op, 1)
    mu1 = [[list(v) for v in row] for row in d0.mu_terms[1]]
    mu1[0][0][1] = frac(1)
    bad = TruncatedDeformation(
        1, (d0.mu_terms[0], tuple(tuple(tuple(v) for v in row) for row in mu1)), d0.n_terms
    )
    rep = residual_report(alg, op, bad)
    ok = ok and not rep.passes and rep.first_failing_order == 1
    ok = ok and (rep.leibniz_residual is not None or rep.nijenhuis_residual is not None)
    report(8, "deformation residuals through order 3", ok)


def _kernel_pairs(alg, op, rep, rng, count):
    basis = sample_cocycles("nla", alg, rep, op, 2)
    out = []
    for _ in range(count):
        acc = NLACochain(
            Cochain.zero(2, alg.dim, rep.module_dim), Cochain.zero(1, alg.dim, rep.module_dim)
        )
        for b in basis:
            c = frac(rng.randint(-2, 2))
            acc = acc + NLACochain(b.upper.scale(c), b.lower.scale(c))
        out.append(CocyclePair(acc.upper, acc.lower))
    return out


def test_criterion_09_extension_round_trips():
    rng = random.Random(17)
    ok = True
    for name, alg, op in catalog_nijenhuis_pairs():
        rep = adjoint_representation(alg, op)
        zero = CocyclePair.zero(alg.dim, alg.dim)
        ext = build_extension(alg, op, rep, zero)
        ok = ok and ext.ok and section_to_cocycle(ext) == zero
        count = 10 if alg.dim == 2 else 4
        for pair in _kernel_pairs(alg, op, rep, rng, count):
            ext = build_extension(alg, op, rep, pair)
            ok = ok and ext.ok and section_to_cocycle(ext) == pair
        # section difference is exactly a coboundary
        s1 = Section(random_matrix(rng, alg.dim, -2, 2))
        s2 = Section(random_matrix(rng, alg.dim, -2, 2))
        res = section_difference_class(ext, s1, s2)
        ok = ok and res.matches and res.residual.is_zero()
        # corner transport
        lam = random_matrix(rng, alg.dim, -2, 2)
        pair_b = section_to_cocycle(ext, Section(lam))
        ext_b = build_extension(alg, op, rep, pair_b)
        ok = ok and ext_b.ok and transport_cocycle_via_isomorphism(ext_b, ext, lam).matches
    report(9, "extension round trips and transport", ok)


def test_criterion_10_numeric_goldens():
    alg = catalog_get("loday2")
    rep = adjoint_representation(alg, None)
    ok = True
    for rank_fn in (rank, gauss_rank):
        h0 = cohomology_dims("la", alg, rep, max_degree=1, rank_fn=rank_fn).degrees[0].dim_h
        ok = ok and h0 == 1
    ab2 = catalog_get("abelian2")
    triv = trivial_representation(2, 2)
    for rank_fn in (rank, gauss_rank):
        h1 = cohomology_dims("la", ab2, triv, max_degree=2, rank_fn=rank_fn).degrees[1].dim_h
        ok = ok and h1 == 4
    report(10, "cohomology dimension goldens", ok)


def test_criterion_11_determinism_and_format():
    from nijleib.bundles import (
        parse_algebra_bundle,
        parse_deformation,
        parse_extension,
        parse_isomorphism,
        serialize_algebra_bundle,
        serialize_deformation,
        serialize_extension,
        serialize_isomorphism,
    )

    ok = True
    argv = [
        sys.executable,
        "-m",
        "nijleib.cli",
        "cohomology",
        str(FIXTURES / "loday2_classified.json"),
        "--complex",
        "nla",
        "--max-degree",
        "2",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    ok = ok and first.returncode == 0 and first.stdout == second.stdout

    bundle_files = ["loday2_classified.json", "loday2_plain.json", "square2_shift.json"]
    for name in bundle_files:
        text = (FIXTURES / name).read_text()
        ok = ok and serialize_algebra_bundle(parse_algebra_bundle(text)) == text
    for name in ("deformation_twisted.json", "deformation_trivial.json"):
        text = (FIXTURES / name).read_text()
        ok = ok and serialize_deformation(parse_deformation(text, 2)) == text
    text = (FIXTURES / "iso_linear.json").read_text()
    ok = ok and serialize_isomorphism(parse_isomorphism(text, 2)) == text
    for name in ("extension_cocycle.json", "extension_zero.json", "extension_related.json"):
        text = (FIXTURES / name).read_text()
        ok = ok and serialize_extension(parse_extension(text, 2)) == text
    report(11, "determinism and format round trips", ok)
