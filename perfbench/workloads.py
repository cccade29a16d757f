"""Seeded input generation for the three benchmark workloads.

Pure standard library: the program under test is never imported here, so
the inputs cannot depend on the code being measured.

Every input is a canonical construction (a direct sum of loday2, square2 and
abelian summands with a block-diagonal Nijenhuis operator from a known
family) carried to a seeded basis f_i = s_i e_{p(i)}, where p is a
permutation and s_i are nonzero rational scales.  A monomial change of basis
is an isomorphism, so verdicts, exit codes and cohomology dimensions are
those of the canonical construction, which the jobs pin, and it keeps every
matrix exactly as sparse as the canonical one.  What the seed changes is the
scales, the order of the basis, the basis labels, the operator parameters
inside each family (not on cohom-large), the deformation and extension
parameters, and the search weights and denominators.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional

WORKLOADS = ("cohom-large", "certify-small", "search")

# Structure constants as {(i, j): {k: c}}: [e_i, e_j] = sum_k c e_k.
LODAY2 = {(1, 0): {0: Q(1)}, (1, 1): {0: Q(1)}}
SQUARE2 = {(0, 0): {1: Q(1)}}
SCALES = (Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(1, 2))
PARAMS = (Q(-2), Q(-1), Q(1), Q(2), Q(3))
# cohom-large keeps entries small: exact elimination on its large matrices
# slows as entries grow, and the spread between seeds must stay small.
SMALL_SCALES = (Q(1), Q(-1))

@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `expect_exit` is None where no exit code follows
    from the construction alone (the diagnostic `printed` phi)."""

    argv: tuple
    expect_exit: Optional[int]
    oracle: Optional[dict] = None


@dataclass(frozen=True)
class Inputs:
    files: dict  # file name -> text
    jobs: tuple

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        for job in self.jobs:
            h.update(json.dumps([list(job.argv), job.expect_exit, job.oracle]).encode())
        return h.hexdigest()


def fmt(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def zeros(n: int, m: Optional[int] = None) -> list:
    return [[Q(0)] * (n if m is None else m) for _ in range(n)]


def direct_sum(parts) -> tuple[int, dict]:
    """parts: (dim, brackets) pairs; summands bracket to zero against each other."""
    out, off = {}, 0
    for dim, br in parts:
        for (i, j), vec in br.items():
            out[(i + off, j + off)] = {k + off: c for k, c in vec.items()}
        off += dim
    return off, out


def block_diag(blocks) -> list:
    n = sum(len(b) for b in blocks)
    m, off = zeros(n), 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[off + i][off + j] = Q(v)
        off += len(b)
    return m


def tensor_of(dim: int, brackets: dict, scale: Q = Q(1)) -> list:
    t = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, c in vec.items():
            t[i][j][k] = scale * c
    return t


class Basis:
    """The seeded monomial basis change f_i = s_i e_{p(i)}."""

    def __init__(self, rng: random.Random, dim: int, prefix: str, scales=SCALES, permute=True):
        self.dim = dim
        self.p = list(range(dim))
        if permute:
            rng.shuffle(self.p)
        self.s = [rng.choice(scales) for _ in range(dim)]
        self.labels = [f"{prefix}{i + 1}" for i in range(dim)]

    def matrix(self, m) -> list:
        """P^-1 M P for an operator (or a map g -> g such as chi)."""
        p, s = self.p, self.s
        return [[s[b] * m[p[a]][p[b]] / s[a] for b in range(self.dim)] for a in range(self.dim)]

    def tensor(self, t) -> list:
        """P^-1 T(P x, P y) for a bilinear map g x g -> g."""
        p, s, n = self.p, self.s, self.dim
        return [
            [[s[i] * s[j] * t[p[i]][p[j]][p[a]] / s[a] for a in range(n)] for j in range(n)]
            for i in range(n)
        ]


def matrix_json(m) -> list:
    return [[fmt(Q(v)) for v in row] for row in m]


def tensor_json(t) -> list:
    return [[[fmt(v) for v in vec] for vec in row] for row in t]


def bundle_text(basis: Basis, tensor, operator=None) -> str:
    labels, n = basis.labels, basis.dim
    brackets = {}
    for i in range(n):
        for j in range(n):
            out = {labels[k]: fmt(c) for k, c in enumerate(tensor[i][j]) if c}
            if out:
                brackets[f"{labels[i]},{labels[j]}"] = out
    doc = {"algebra": {"dimension": n, "basis": labels, "brackets": brackets}}
    if operator is not None:
        doc["operator"] = matrix_json(operator)
        doc["representation"] = "adjoint"
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# --- Nijenhuis operator families on the summands (canonical basis) -----------
# loday2: c = 0 and either a = d or a - d = b.  square2: b = 0 and a = d.
# Every operator on an abelian algebra is Nijenhuis.


def loday2_op(rng, family: str) -> list:
    b, d = rng.choice(PARAMS), rng.choice(PARAMS)
    a = d if family == "diag" else d + b
    return [[a, b], [0, d]]


def square2_op(rng) -> list:
    a, c = rng.choice(PARAMS), rng.choice(PARAMS)
    return [[a, 0], [c, a]]


def abelian_op(rng, dim: int) -> list:
    m = zeros(dim)
    for i in range(dim):
        m[i][i] = rng.choice(PARAMS)
        if i + 1 < dim:
            m[i][i + 1] = rng.choice(PARAMS)
    return m


# Canonical failing-on-purpose data.  Each failure is a property of the
# canonical structure that an isomorphism preserves, so it fails for every
# seed: loday2 with E21 is not Nijenhuis ([Ne1,Ne1] = e1 but the right side
# is e2); square2 with E12 is not Nijenhuis; BAD_MU on loday2 is not a
# Leibniz 2-cocycle of the adjoint representation, which breaks the order-1
# deformation equation, the cocycle test and the Leibniz identity of the
# extension built from it.
LODAY2_BAD_OP = [[0, 0], [1, 0]]
SQUARE2_BAD_OP = [[0, 1], [0, 0]]
LODAY2_BAD_MU = {(0, 0): {0: Q(1)}}
SQUARE2_BAD_MU = {(0, 1): {0: Q(1)}}


def cohomology_oracle(dims) -> dict:
    """The oracle entry of a cohomology job: its C, Z, B, H per degree."""
    return {"type": "cohomology", "dims": [list(row) for row in dims]}


# --- cohom-large --------------------------------------------------------------


# The operators are fixed rather than drawn: on these algebras the cohomology
# dimensions jump with coincidences between the operator's eigenvalues, and
# the cost of exact elimination moves with the entries, so a drawn operator
# would make both the expected report and the cost depend on the seed.  The
# seed moves the basis (signs) and the labels.
A4_OPERATOR = block_diag([[[2, 1], [0, 1]], [[-1, 0], [1, -1]]])  # loday2 a - d = b, square2
A5_OPERATOR = block_diag([[[1, -1], [0, 1]], [[1, 2], [0, -1]], [[2]]])  # loday2 a = d, a - d = b


def _cohom_large(rng: random.Random) -> Inputs:
    files, jobs = {}, []
    dim4, br4 = direct_sum([(2, LODAY2), (2, SQUARE2)])
    dim5, br5 = direct_sum([(2, LODAY2), (2, LODAY2), (1, {})])
    for name, dim, br, op in (("a4", dim4, br4, A4_OPERATOR), ("a5", dim5, br5, A5_OPERATOR)):
        prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        basis = Basis(rng, dim, prefix, SMALL_SCALES, permute=False)
        files[f"{name}.json"] = bundle_text(
            basis, basis.tensor(tensor_of(dim, br)), basis.matrix(op)
        )
    # Fixed order: later jobs on one algebra reuse the coboundary matrices
    # that earlier jobs cached in the process; the order is part of the
    # workload.
    # The two middle jobs take seconds, so the median is a long job: the best
    # of two samples of a sub-second job is at the mercy of the host's load.
    # (bundle, complex, max degree, phi, exit, C/Z/B/H per degree).  The
    # printed phi is not a chain map here: its junctions fail, H is withheld
    # above degree 0 and the verdict is fail.
    plan = [
        ("a4", "la", 3, "full", 0, ((4, 2, 0, 2), (16, 4, 2, 2), (64, 16, 12, 4), (256, 56, 48, 8))),
        ("a4", "no", 3, "full", 0, ((4, 2, 0, 2), (16, 4, 2, 2), (64, 16, 12, 4), (256, 56, 48, 8))),
        ("a4", "nla", 3, "full", 0, ((4, 0, 0, 0), (20, 6, 4, 2), (80, 23, 14, 9), (320, 85, 57, 28))),
        ("a5", "nla", 2, "printed", 1, ((5, 0, 0, 0), (30, 4, 5, None), (150, 37, 26, None))),
    ]
    for name, kind, deg, phi, code, dims in plan:
        argv = ("cohomology", f"{name}.json", "--complex", kind, "--max-degree", str(deg), "--phi", phi)
        jobs.append(Job(argv, code, cohomology_oracle(dims)))
    return Inputs(files, tuple(jobs))


# --- certify-small ------------------------------------------------------------

# C, Z, B and H in degrees 0..2 of the la, no and nla complexes of each pair.
# They are invariants of the canonical construction, computed once with the
# gauss_rank oracle for every operator the generator can draw (check_pins.py
# re-derives them for chosen seeds).  The nla cohomology of l3 and s3 jumps
# where the abelian summand's operator entry equals the (2, 2) entry of the
# 2-dim summand's (keys "l3=" and "s3=").
_L2 = ((2, 1, 0, 1), (4, 1, 1, 0), (8, 3, 3, 0))
_S2 = ((2, 1, 0, 1), (4, 2, 1, 1), (8, 3, 2, 1))
_L3 = ((3, 2, 0, 2), (9, 3, 1, 2), (27, 10, 6, 4))
_S3 = ((3, 2, 0, 2), (9, 5, 1, 4), (27, 12, 4, 8))
_AB3 = ((3, 3, 0, 3), (9, 9, 0, 9), (27, 27, 0, 27))
CERTIFY_DIMS = {
    "l2a": {"la": _L2, "no": _L2, "nla": ((2, 0, 0, 0), (6, 2, 2, 0), (12, 5, 4, 1))},
    "l2b": {"la": _L2, "no": _L2, "nla": ((2, 0, 0, 0), (6, 3, 2, 1), (12, 6, 3, 3))},
    "s2": {"la": _S2, "no": _S2, "nla": ((2, 0, 0, 0), (6, 3, 2, 1), (12, 6, 3, 3))},
    "l3": {"la": _L3, "no": _L3, "nla": ((3, 0, 0, 0), (12, 5, 3, 2), (36, 15, 7, 8))},
    "l3=": {"la": _L3, "no": _L3, "nla": ((3, 0, 0, 0), (12, 6, 3, 3), (36, 17, 6, 11))},
    "s3": {"la": _S3, "no": _S3, "nla": ((3, 0, 0, 0), (12, 5, 3, 2), (36, 16, 7, 9))},
    "s3=": {"la": _S3, "no": _S3, "nla": ((3, 0, 0, 0), (12, 7, 3, 4), (36, 20, 5, 15))},
    "ab3": {"la": _AB3, "no": _AB3, "nla": ((3, 0, 0, 0), (12, 6, 3, 3), (36, 24, 6, 18))},
}


def _certify_pair(rng, files, jobs, tag, dim, brackets, op, bad_op, bad_mu, dims):
    basis = Basis(rng, dim, rng.choice("abcdgh"))
    mu = tensor_of(dim, brackets)
    tmu, top = basis.tensor(mu), basis.matrix(op)
    good, bad = f"{tag}.json", f"{tag}_badop.json"
    files[good] = bundle_text(basis, tmu, top)
    s, r = rng.choice(PARAMS), rng.choice(PARAMS)
    zero_t = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    # ((1 + s t) mu, (1 + r t) N) is an exact deformation: the Leibniz identity
    # is linear in mu and the Nijenhuis identity is homogeneous in N.
    files[f"{tag}_def.json"] = dump(
        {
            "order": 2,
            "mu": [tensor_json(tmu), tensor_json(basis.tensor(tensor_of(dim, brackets, s))), tensor_json(zero_t)],
            "n": [matrix_json(top), matrix_json([[r * v for v in row] for row in top]), matrix_json(zeros(dim))],
        }
    )
    psi1 = [[rng.choice((Q(0),) + PARAMS) for _ in range(dim)] for _ in range(dim)]
    ident = [[Q(int(i == j)) for j in range(dim)] for i in range(dim)]
    files[f"{tag}_iso.json"] = dump(
        {"order": 2, "psi": [matrix_json(ident), matrix_json(psi1), matrix_json(zeros(dim))]}
    )
    # (s mu, r N) is the infinitesimal of that deformation, so a 2-cocycle of
    # the combined complex, and the split extension it defines is valid.
    files[f"{tag}_ext.json"] = dump(
        {
            "fiber_dim": dim,
            "fiber_operator": matrix_json(top),
            "psi": tensor_json(basis.tensor(tensor_of(dim, brackets, s))),
            "chi": matrix_json([[r * v for v in row] for row in top]),
        }
    )
    cmd = [
        (("verify", good), 0),
        (("induce", "bracket", good), 0),
        (("induce", "rep", good), 0),
        (("selfcheck", good, "--phi", "full", "--max-degree", "2"), 0),
        (("selfcheck", good, "--phi", "printed", "--max-degree", "2"), None),
        (("deform", "check", good, f"{tag}_def.json"), 0),
        (("deform", "cocycle", good, f"{tag}_def.json"), 0),
        (("deform", "twist", good, f"{tag}_def.json", "--iso", f"{tag}_iso.json"), 0),
        (("extend", "build", good, f"{tag}_ext.json"), 0),
        (("extend", "extract", good, f"{tag}_ext.json"), 0),
    ]
    for kind in ("la", "no", "nla"):
        argv = ("cohomology", good, "--complex", kind, "--max-degree", "2")
        jobs.append(Job(argv, 0, cohomology_oracle(dims[kind])))
    if bad_op is not None:
        files[bad] = bundle_text(basis, tmu, basis.matrix(bad_op))
        bmu = basis.tensor(tensor_of(dim, bad_mu))
        files[f"{tag}_baddef.json"] = dump(
            {
                "order": 1,
                "mu": [tensor_json(tmu), tensor_json(bmu)],
                "n": [matrix_json(top), matrix_json(zeros(dim))],
            }
        )
        files[f"{tag}_badext.json"] = dump(
            {
                "fiber_dim": dim,
                "fiber_operator": matrix_json(top),
                "psi": tensor_json(bmu),
                "chi": matrix_json(zeros(dim)),
            }
        )
        cmd += [
            (("verify", bad), 1),
            (("induce", "bracket", bad), 2),
            (("deform", "check", good, f"{tag}_baddef.json"), 1),
            (("deform", "cocycle", good, f"{tag}_baddef.json"), 1),
            (("extend", "build", good, f"{tag}_badext.json"), 1),
        ]
    jobs.extend(Job(argv, code) for argv, code in cmd)


def _certify_small(rng: random.Random) -> Inputs:
    files, jobs = {}, []
    l3_dim, l3 = direct_sum([(2, LODAY2), (1, {})])
    s3_dim, s3 = direct_sum([(2, SQUARE2), (1, {})])
    templates = [
        ("l2a", 2, LODAY2, loday2_op(rng, "diag"), LODAY2_BAD_OP, LODAY2_BAD_MU),
        ("l2b", 2, LODAY2, loday2_op(rng, "sum"), LODAY2_BAD_OP, LODAY2_BAD_MU),
        ("s2", 2, SQUARE2, square2_op(rng), SQUARE2_BAD_OP, SQUARE2_BAD_MU),
        ("l3", l3_dim, l3, block_diag([loday2_op(rng, "sum"), abelian_op(rng, 1)]),
         block_diag([LODAY2_BAD_OP, [[0]]]), LODAY2_BAD_MU),
        ("s3", s3_dim, s3, block_diag([square2_op(rng), abelian_op(rng, 1)]),
         block_diag([SQUARE2_BAD_OP, [[0]]]), SQUARE2_BAD_MU),
        ("ab3", 3, {}, abelian_op(rng, 3), None, None),
    ]
    for tag, dim, br, op, bad_op, bad_mu in templates:
        key = tag + "=" if tag in ("l3", "s3") and op[2][2] == op[1][1] else tag
        _certify_pair(rng, files, jobs, tag, dim, br, op, bad_op, bad_mu, CERTIFY_DIMS[key])
    return Inputs(files, tuple(jobs))


# --- search -------------------------------------------------------------------


def _search(rng: random.Random) -> Inputs:
    files, jobs = {}, []

    def plain(name, dim, br):
        basis = Basis(rng, dim, rng.choice("pqrst"))
        files[f"{name}.json"] = bundle_text(basis, basis.tensor(tensor_of(dim, br)))
        return f"{name}.json"

    def kinds():
        return [
            ("--kind", "nijenhuis"),
            ("--kind", "rota_baxter"),
            ("--kind", "rota_baxter_weighted", "--weight", fmt(rng.choice(PARAMS)),
             "--convention", rng.choice(("standard", "as_printed"))),
            ("--kind", "modified_rota_baxter", "--weight", fmt(rng.choice(PARAMS))),
        ]

    def add(path, lo, hi, kind, all_accepted=False):
        den = str(rng.choice((1, 2)))
        argv = ("search", path, "--range", f"{lo}..{hi}", "--den", den) + kind
        jobs.append(Job(argv, 0, {"type": "search", "all_accepted": all_accepted}))

    # All four kinds on the 2-dim grid, two per algebra.
    for name, br, picks in (("loday2", LODAY2, (0, 2)), ("square2", SQUARE2, (1, 3))):
        path = plain(name, 2, br)
        options = kinds()
        for pick in picks:
            add(path, -3, 3, options[pick])
    dim, br = direct_sum([(2, LODAY2), (1, {})])
    add(plain("l3", dim, br), 0, 1, rng.choice(kinds()))
    # Every candidate is accepted here, so a pruned search cannot skip any.
    add(plain("ab3", 3, {}), 0, 1, kinds()[0], all_accepted=True)
    return Inputs(files, tuple(jobs))


_BUILDERS = {"cohom-large": _cohom_large, "certify-small": _certify_small, "search": _search}


def generate(workload: str, seed: int) -> Inputs:
    """The inputs of one workload; a function of (workload, seed) only."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
