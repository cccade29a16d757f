"""The package's frozen records against `dataclasses`: every record class
behaves as a `@dataclass(frozen=True)` twin with the same fields and
defaults, built here by `make_dataclass`.  The twin validates by calling the
record's own constructor, so the comparison is of the record machinery:
binding and defaults, repr, equality, hash, immutability and `replace`."""

import dataclasses
from fractions import Fraction as F

import pytest

from nijleib import algebra, bundles, cochain, deformation, extensions, operators, replace
from nijleib.algebra import Counterexample, LeibnizAlgebra, Representation, adjoint_representation, catalog_get
from nijleib.bundles import AlgebraBundle, ExtensionFile
from nijleib.cochain import (
    ChainMapEntry,
    CoboundaryDifference,
    Cochain,
    CohomologyReport,
    DegreeEntry,
    JunctionFailure,
    MembershipResult,
    NLACochain,
)
from nijleib.deformation import EquivalenceReport, FormalIsomorphism, ResidualReport, TruncatedDeformation
from nijleib.extensions import CocyclePair, ExtensionDatum, Section, build_extension
from nijleib.linalg import Matrix
from nijleib.operators import OperatorKind

MODULES = (algebra, bundles, cochain, deformation, extensions, operators)
RECORDS = sorted(
    (obj for mod in MODULES for obj in vars(mod).values()
     if isinstance(obj, type) and obj.__module__ == mod.__name__ and "_fields" in vars(obj)),
    key=lambda cls: cls.__name__,
)

# the fields that have a default, and the keyword-only ones
DEFAULTS = {
    ChainMapEntry: {"witness_input": None, "residual": None},
    OperatorKind: {"weight": None, "convention": "standard"},
    Representation: {"module_operator": None},
}
KW_ONLY = {Representation: {"module_dim"}}
# classes that hash their stored form (`_key`), not their field tuple: a
# bracket table is a dict, and the actions and the dense vector are views
OWN_HASH = {LeibnizAlgebra, Representation, Cochain}


def _vec(n, start=0):
    return tuple(F(start + i, 1 + i % 2) for i in range(n))


loday2, square2 = catalog_get("loday2"), catalog_get("square2")
op, ident = Matrix([[2, 1], [0, 1]]), Matrix.identity(2)
rep = adjoint_representation(loday2, op)
c0, c1, c2 = Cochain(0, 2, 2, _vec(2)), Cochain(1, 2, 2, _vec(4)), Cochain(2, 2, 2, _vec(8, 1))
psi, chi = Cochain(2, 2, 1, _vec(4, 1)), Cochain(1, 2, 1, _vec(2))
pair = CocyclePair(psi, chi)
ext = build_extension(loday2, op, adjoint_representation(loday2, op), CocyclePair.zero(2, 2))
mu = loday2.structure
entries = (DegreeEntry(0, 2, 1, 0, 1), DegreeEntry(1, 4, 2, 1, None))

# for each record class, two constructor calls (args, kwargs) that give
# different records; defaults are left out where the class has them
SAMPLES = {
    Counterexample: [(("leibniz", (0, 1, 1), (F(1), F(0))), {}),
                     (("nijenhuis",), {"indices": (1, 0), "residual": (F(0), F(-1, 2))})],
    LeibnizAlgebra: [((2, ("e1", "e2"), {(1, 0): {0: F(2)}}), {}),
                     ((), {"dim": 2, "basis": ("x", "y"), "table": {(0, 0): {1: F(1, 2)}}})],
    Representation: [((rep.left, rep.right, op), {"module_dim": 2}), ((rep.left, rep.right), {"module_dim": 2})],
    AlgebraBundle: [((loday2, op, "adjoint"), {}), ((square2,), {"operator": None, "representation": rep})],
    ExtensionFile: [((1, Matrix([[1]]), pair), {}), ((1, Matrix([[0]])), {"pair": CocyclePair.zero(2, 1)})],
    Cochain: [((1, 2, 2, _vec(4)), {}), ((2,), {"alg_dim": 2, "module_dim": 1, "vec": _vec(4, 3)})],
    NLACochain: [((c2, c1), {}), ((c1, c0), {})],
    CoboundaryDifference: [((True, NLACochain(c2, c1)), {}), ((False,), {"residual": NLACochain(c1, c0)})],
    JunctionFailure: [((0, 1, 2, F(1, 3)), {}), ((1, 0, 0, F(-1)), {})],
    DegreeEntry: [((0, 2, 1, 0, 1), {}), ((1, 4, 2, 1, None), {})],
    CohomologyReport: [(("la", "full", 1, entries, (True,), (), False), {}),
                       (("nla", "printed", 1, entries, (False,), (JunctionFailure(0, 1, 2, F(1)),), True), {})],
    MembershipResult: [((True, False, None), {}), ((True, True, c1), {})],
    ChainMapEntry: [((0, True), {}), ((1, False, ((0,), 1), c1), {})],
    TruncatedDeformation: [((0, (mu,), (op,)), {}), ((1, (mu, square2.structure), (op, ident)), {})],
    ResidualReport: [((1, None, None, None), {}), ((2, 1, (mu,), mu), {})],
    FormalIsomorphism: [((0, (ident,)), {}), ((1, (ident, op)), {})],
    EquivalenceReport: [((None, None, None), {}), ((1, mu, op), {})],
    CocyclePair: [((psi, chi), {}), ((Cochain.zero(2, 2, 1),), {"chi": Cochain.zero(1, 2, 1)})],
    Section: [((Matrix([[1, 0]]),), {}), ((Matrix([[0, 2]]),), {})],
    ExtensionDatum: [((loday2, op, ext.rep, ext.total, ext.total_op), {}),
                     ((square2, op, ext.rep, ext.total, ext.total_op), {})],
    OperatorKind: [(("nijenhuis",), {}), (("rota_baxter_weighted", F(2)), {"convention": "as_printed"})],
}

# for each class that validates, a replacement it rejects
REJECTED = {
    LeibnizAlgebra: {"basis": ("e1",)},
    Representation: {"module_dim": 3},
    Cochain: {"vec": (F(1),)},
    NLACochain: {"lower": c2},
    TruncatedDeformation: {"order": 2},
    FormalIsomorphism: {"psi_terms": (op,)},
    CocyclePair: {"psi": chi},
    OperatorKind: {"weight": F(1)},
}


def _twin(cls):
    """`cls` as a frozen dataclass with the same fields and defaults, whose
    `__post_init__` runs the record's constructor and keeps the fields it
    stores (the constructor may normalise them)."""
    defaults, kw_only = DEFAULTS.get(cls, {}), KW_ONLY.get(cls, set())
    spec = []
    for name in cls._fields:
        options = {"kw_only": True} if name in kw_only else {}
        if name in defaults:
            options["default"] = defaults[name]
        spec.append((name, object, dataclasses.field(**options)))

    def __post_init__(self):
        built = cls(**{name: getattr(self, name) for name in cls._fields})
        for name in cls._fields:
            object.__setattr__(self, name, getattr(built, name))

    namespace = {"__post_init__": __post_init__}
    if cls in OWN_HASH:
        namespace["__hash__"] = lambda self: hash(cls(**{name: getattr(self, name) for name in cls._fields}))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _outcome(build):
    """("ok", repr) of a built record, or (exception type, message)."""
    try:
        return "ok", repr(build())
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_every_record_has_samples():
    assert set(RECORDS) == set(SAMPLES) and len(RECORDS) == 21
    assert set(DEFAULTS) | set(KW_ONLY) | set(REJECTED) | OWN_HASH <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(cls):
    twin = _twin(cls)
    calls = SAMPLES[cls]
    records = [cls(*args, **kwargs) for args, kwargs in calls]
    twins = [twin(*args, **kwargs) for args, kwargs in calls]
    again = [cls(*args, **kwargs) for args, kwargs in calls]
    other_cls = next(c for c in RECORDS if c is not cls)
    args, kwargs = SAMPLES[other_cls][0]
    other = other_cls(*args, **kwargs)
    for a, ta, a2 in zip(records, twins, again):
        assert type(a) is cls and repr(a) == repr(ta)
        assert hash(a) == hash(ta) == hash(a2) and a == a2 and not a != a2 and a is not a2
        # another class never compares equal, even with the same fields
        for b in (ta, other):
            assert a.__eq__(b) is NotImplemented and a != b and not a == b
        for name in (*cls._fields, "extra"):
            for change in (lambda obj: setattr(obj, name, None), lambda obj: delattr(obj, name)):
                messages = []
                for obj in (a, ta):
                    with pytest.raises(AttributeError) as exc:
                        change(obj)
                    messages.append(str(exc.value))
                assert messages[0] == messages[1]
        assert [getattr(a, name) for name in cls._fields] == [getattr(ta, name) for name in cls._fields]
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert (records[i] == records[j]) == (twins[i] == twins[j]) == (i == j)
        assert (records[i] != records[j]) == (twins[i] != twins[j]) == (i != j)
    # replace: each field of the first record set to the second's, then a
    # rejected replacement and an unknown field
    (a, b), (ta, tb) = records, twins
    for name in cls._fields:
        got = _outcome(lambda: replace(a, **{name: getattr(b, name)}))
        assert got == _outcome(lambda: dataclasses.replace(ta, **{name: getattr(tb, name)}))
    if cls in REJECTED:
        got = _outcome(lambda: replace(a, **REJECTED[cls]))
        assert got[0] != "ok" and got == _outcome(lambda: dataclasses.replace(ta, **REJECTED[cls]))
    with pytest.raises(TypeError):
        replace(a, extra=None)
    assert replace(a) == a and replace(a) is not a


def test_identity_is_written_once():
    """Every record compares and hashes by the methods `record` builds; a class
    that keys on its stored form names it in `_key` and writes neither out."""
    for cls in RECORDS:
        assert cls.__eq__.__qualname__ == "record.<locals>.__eq__", cls
        assert cls.__hash__.__qualname__ == "record.<locals>.__hash__", cls
        assert "_hash" not in vars(cls), cls
    assert {cls for cls in RECORDS if "_key" in vars(cls)} == OWN_HASH


def test_representation_module_dim_is_keyword_only():
    with pytest.raises(TypeError):
        Representation(rep.left, rep.right, op, 2)


def test_cached_properties_live_on_the_instance():
    """`LeibnizAlgebra.structure`, the hash of a record with a `_key` and
    `ExtensionDatum.certificates` are computed once and kept in the
    instance's `__dict__`."""
    alg = LeibnizAlgebra(2, ("e1", "e2"), dict(loday2.table))
    assert alg.structure is alg.structure and "structure" in vars(alg)
    for a, b in ((alg, loday2), (Representation._of(dict(rep.table), op, 2, 2), rep), (Cochain._of(1, 2, 2, dict(c1.nz)), c1)):
        assert "_hash" not in vars(a) and hash(a) == hash(b) and vars(a)["_hash"] == hash(a)
    datum = ExtensionDatum(*(getattr(ext, name) for name in ExtensionDatum._fields))
    assert datum.certificates == () and datum.ok and "certificates" in vars(datum)
    assert datum == ext and repr(datum) == repr(ext)


def test_hash_reads_the_stored_form_and_builds_no_view():
    """A representation hashes its module table and N_V, a cochain its
    nonzero coordinates: hashing builds neither the action matrices nor the
    dense vector."""
    reps = (
        adjoint_representation(LeibnizAlgebra.abelian(200)),
        adjoint_representation(loday2, op),
        Representation(rep.left, rep.right, op, module_dim=2),
    )
    for r in reps:
        hash(r)
        assert "_hash" in vars(r) and "_actions" not in vars(r)
    for f in (Cochain._of(2, 2, 2, {1: 3, 6: F(1, 2)}), Cochain.zero(3, 2, 1), c1 + c1):
        hash(f)
        assert "_hash" in vars(f) and "vec" not in vars(f)


def test_equal_records_hash_equal_across_constructions():
    """Action matrices or a module table, a dense vector or its nonzeros, int
    or integral Fraction values: equal records hash alike however built."""
    pairs = [
        (adjoint_representation(loday2, op), Representation(rep.left, rep.right, op, module_dim=2)),
        (Representation._of({(0, 2): {2: F(2)}}, None, 2, 1), Representation._of({(0, 2): {2: 2}}, None, 2, 1)),
        (Representation._of({}, op, 3, 2), Representation((Matrix.zero(2, 2),) * 3, (Matrix.zero(2, 2),) * 3, op, module_dim=2)),
        (Cochain(1, 2, 2, (F(0), F(3), F(0), F(1, 2))), Cochain._of(1, 2, 2, {1: 3, 3: F(1, 2)})),
        (Cochain(1, 2, 2, (0, 3, 0, 1)), Cochain._of(1, 2, 2, {1: F(3), 3: F(1)})),
        (LeibnizAlgebra(2, ("e1", "e2"), {(1, 0): {0: F(2)}}), LeibnizAlgebra(2, ("e1", "e2"), {(1, 0): {0: 2}})),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
    # N_V is part of the key: the same table with another operator is another record
    assert adjoint_representation(loday2, op) != adjoint_representation(loday2, ident)
    assert adjoint_representation(loday2, op) != adjoint_representation(loday2)
