"""JSON file formats: algebra bundles, deformation files, extension files,
formal-isomorphism files.

All rationals travel as canonical strings ("p/q" with q > 1, else "p").
Parsing is strict: unknown labels, non-canonical rationals, and algebras
violating the Leibniz identity are rejected with a located error.
parse -> serialize -> parse is the identity on canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import (
    LeibnizAlgebra,
    Representation,
    adjoint_representation,
    check_leibniz,
)
from .deformation import FormalIsomorphism, TruncatedDeformation
from .errors import BundleError, PreconditionError
from .extensions import CocyclePair
from .cochain import Cochain
from .linalg import Matrix, Vector, format_rational, parse_rational

TOOL_VERSION = "0.1.0"


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"malformed JSON: {exc}") from None


def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise BundleError(f"{where} must be an object")
    if key not in obj:
        raise BundleError(f"{where}: missing key {key!r}")
    return obj[key]


def _require_count(obj, key, where) -> int:
    """A nonnegative JSON integer; not a boolean, which Python counts as an int."""
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BundleError(f"{where}.{key} must be a nonnegative integer")
    return value


def to_json(value):
    """The JSON form of a value: a Matrix becomes its list of rows, a tuple or
    a list a list of JSON forms, a Fraction its canonical string; anything
    else is returned as is."""
    if isinstance(value, Matrix):
        return [[format_rational(e) for e in row] for row in value.data]
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    return value


def matrix_from_json(rows, where: str, shape: Optional[tuple[int, int]] = None) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise BundleError(f"{where}: expected a list of rows")
    try:
        m = Matrix([[parse_rational(e) for e in row] for row in rows])
    except BundleError as exc:
        raise BundleError(f"{where}: {exc}") from None
    if shape is not None and (m.rows, m.cols) != shape:
        raise BundleError(f"{where}: expected shape {shape}, got {(m.rows, m.cols)}")
    return m


def vector_from_json(entries, where: str, length: Optional[int] = None) -> Vector:
    if not isinstance(entries, list):
        raise BundleError(f"{where}: expected a list")
    v = tuple(parse_rational(e) for e in entries)
    if length is not None and len(v) != length:
        raise BundleError(f"{where}: expected length {length}, got {len(v)}")
    return v


def tensor_from_json(entries, where: str, dim: int, out_dim: int):
    if not isinstance(entries, list) or len(entries) != dim:
        raise BundleError(f"{where}: expected {dim} rows")
    out = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise BundleError(f"{where}[{i}]: expected {dim} entries")
        out.append(
            tuple(vector_from_json(v, f"{where}[{i}][{j}]", out_dim) for j, v in enumerate(row))
        )
    return tuple(out)


@dataclass(frozen=True)
class AlgebraBundle:
    algebra: LeibnizAlgebra
    operator: Optional[Matrix]
    representation: Optional[Union[str, Representation]]  # "adjoint" or explicit

    def resolve_representation(self) -> Representation:
        if self.representation is None or self.representation == "adjoint":
            return adjoint_representation(self.algebra, self.operator)
        return self.representation


def parse_algebra_bundle(text: str, *, verify: bool = True) -> AlgebraBundle:
    doc = _load_json(text)
    alg_doc = _require(doc, "algebra", "bundle")
    dim = _require_count(alg_doc, "dimension", "algebra")
    basis = _require(alg_doc, "basis", "algebra")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise BundleError("algebra.basis must be a list of string labels")
    if len(basis) != dim or len(set(basis)) != dim:
        raise BundleError("algebra.basis must list dimension-many distinct labels")
    index = {label: i for i, label in enumerate(basis)}
    structure = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    brackets = alg_doc.get("brackets", {})
    if not isinstance(brackets, dict):
        raise BundleError("algebra.brackets must be an object")
    for key, outputs in brackets.items():
        parts = key.split(",")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise BundleError(f"algebra.brackets: unknown basis pair {key!r}")
        i, j = index[parts[0]], index[parts[1]]
        if not isinstance(outputs, dict):
            raise BundleError(f"algebra.brackets[{key!r}] must be an object")
        for out_label, coeff in outputs.items():
            if out_label not in index:
                raise BundleError(f"algebra.brackets[{key!r}]: unknown basis label {out_label!r}")
            try:
                structure[i][j][index[out_label]] = parse_rational(coeff)
            except BundleError as exc:
                raise BundleError(f"algebra.brackets[{key!r}][{out_label!r}]: {exc}") from None
    alg = LeibnizAlgebra.from_structure(structure, basis)
    if verify:
        bad = check_leibniz(alg)
        if bad is not None:
            raise BundleError(f"algebra fails the Leibniz identity: {bad.describe()}")
    operator = None
    if "operator" in doc:
        operator = matrix_from_json(doc["operator"], "operator", (dim, dim))
    representation: Optional[Union[str, Representation]] = None
    if "representation" in doc:
        rep_doc = doc["representation"]
        if rep_doc == "adjoint":
            representation = "adjoint"
        elif isinstance(rep_doc, dict):
            m = _require_count(rep_doc, "dimension", "representation")
            left_doc = _require(rep_doc, "left", "representation")
            right_doc = _require(rep_doc, "right", "representation")
            if not all(isinstance(d, list) and len(d) == dim for d in (left_doc, right_doc)):
                raise BundleError("representation.left/right need one matrix per basis vector")
            left = tuple(
                matrix_from_json(mat, f"representation.left[{i}]", (m, m))
                for i, mat in enumerate(left_doc)
            )
            right = tuple(
                matrix_from_json(mat, f"representation.right[{i}]", (m, m))
                for i, mat in enumerate(right_doc)
            )
            module_op = None
            if "operator" in rep_doc:
                module_op = matrix_from_json(rep_doc["operator"], "representation.operator", (m, m))
            representation = Representation(left, right, module_op)
        else:
            raise BundleError('representation must be "adjoint" or an object')
    return AlgebraBundle(alg, operator, representation)


def serialize_algebra_bundle(bundle: AlgebraBundle) -> str:
    alg = bundle.algebra
    brackets = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = alg.structure[i][j]
            outputs = {
                alg.basis[k]: format_rational(c) for k, c in enumerate(v) if c
            }
            if outputs:
                brackets[f"{alg.basis[i]},{alg.basis[j]}"] = outputs
    doc: dict = {
        "algebra": {
            "dimension": alg.dim,
            "basis": list(alg.basis),
            "brackets": brackets,
        }
    }
    if bundle.operator is not None:
        doc["operator"] = to_json(bundle.operator)
    if bundle.representation == "adjoint":
        doc["representation"] = "adjoint"
    elif isinstance(bundle.representation, Representation):
        rep = bundle.representation
        rep_doc = {
            "dimension": rep.module_dim,
            "left": to_json(rep.left),
            "right": to_json(rep.right),
        }
        if rep.module_operator is not None:
            rep_doc["operator"] = to_json(rep.module_operator)
        doc["representation"] = rep_doc
    return emit_json(doc)


def parse_deformation(text: str, dim: int) -> TruncatedDeformation:
    doc = _load_json(text)
    order = _require_count(doc, "order", "deformation")
    mu_doc = _require(doc, "mu", "deformation")
    n_doc = _require(doc, "n", "deformation")
    if not all(isinstance(d, list) and len(d) == order + 1 for d in (mu_doc, n_doc)):
        raise BundleError("deformation needs order+1 mu tensors and n matrices")
    mu_terms = tuple(
        tensor_from_json(t, f"deformation.mu[{i}]", dim, dim) for i, t in enumerate(mu_doc)
    )
    n_terms = tuple(
        matrix_from_json(m, f"deformation.n[{i}]", (dim, dim)) for i, m in enumerate(n_doc)
    )
    return TruncatedDeformation(order, mu_terms, n_terms)


def serialize_deformation(d: TruncatedDeformation) -> str:
    return emit_json(
        {
            "order": d.order,
            "mu": to_json(d.mu_terms),
            "n": to_json(d.n_terms),
        }
    )


def parse_isomorphism(text: str, dim: int) -> FormalIsomorphism:
    doc = _load_json(text)
    order = _require_count(doc, "order", "isomorphism")
    psi_doc = _require(doc, "psi", "isomorphism")
    if not isinstance(psi_doc, list) or len(psi_doc) != order + 1:
        raise BundleError("isomorphism needs order+1 psi matrices")
    psi = tuple(
        matrix_from_json(m, f"isomorphism.psi[{i}]", (dim, dim)) for i, m in enumerate(psi_doc)
    )
    try:
        return FormalIsomorphism(order, psi)
    except PreconditionError as exc:
        raise BundleError(str(exc)) from None


def serialize_isomorphism(iso: FormalIsomorphism) -> str:
    return emit_json({"order": iso.order, "psi": to_json(iso.psi_terms)})


@dataclass(frozen=True)
class ExtensionFile:
    fiber_dim: int
    fiber_operator: Matrix
    pair: CocyclePair


def parse_extension(text: str, dim: int) -> ExtensionFile:
    doc = _load_json(text)
    m = _require_count(doc, "fiber_dim", "extension")
    fiber_op = matrix_from_json(_require(doc, "fiber_operator", "extension"), "extension.fiber_operator", (m, m))
    psi_tensor = tensor_from_json(_require(doc, "psi", "extension"), "extension.psi", dim, m)
    chi = matrix_from_json(_require(doc, "chi", "extension"), "extension.chi", (m, dim))
    pair = CocyclePair(Cochain.from_bilinear_tensor(psi_tensor), Cochain.from_matrix(chi))
    return ExtensionFile(m, fiber_op, pair)


def serialize_extension(ext: ExtensionFile) -> str:
    return emit_json(
        {
            "fiber_dim": ext.fiber_dim,
            "fiber_operator": to_json(ext.fiber_operator),
            "psi": to_json(ext.pair.psi.as_tensor()),
            "chi": to_json(ext.pair.chi.as_matrix()),
        }
    )


def parse_corner(text: str, shape: tuple[int, int]) -> Matrix:
    """An extension isomorphism's corner block: a matrix or {"corner": matrix}."""
    doc = _load_json(text)
    if isinstance(doc, dict):
        doc = _require(doc, "corner", "corner file")
    return matrix_from_json(doc, "corner", shape)


def emit_json(doc) -> str:
    """Canonical emission: sorted keys, compact separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
