"""Frozen records: the package's value classes, built without `dataclasses`.

`record` turns a class whose body annotates its fields, in order, into an
immutable value type with the behaviour of `@dataclass(frozen=True)`:

- a constructor that takes the fields by position or keyword, fills in the
  class-level defaults and then calls `__post_init__`, if the class has one;
- `__eq__` on instances of the same class, comparing their keys, and
  `NotImplemented` for any other operand;
- `__hash__` of the key;
- `__repr__` in the form `Name(field=value, ...)`;
- assignment and deletion that raise `AttributeError`.

A record's key is the tuple of its fields, unless the class names what it
stores in a `_key` method: the records whose fields are views
(`Cochain.vec`, `Representation.left`) or hold a dict (`LeibnizAlgebra`)
are equal when their stored forms are, and hash the key with every dict in
it frozen, computed once and kept in the instance as `_hash`.  So a hash
costs what the record stores, and builds no view.

The methods are closures over the field names, built once per class with no
`exec` and no import of `dataclasses`, which pulls in `inspect` and the
compiler modules and compiles six methods per class at import time.  A
class keeps a constructor it defines itself: the records built most
often (`LeibnizAlgebra`, `Representation`, `Cochain`) write their `__init__`
out, so they validate and store their fields with no generic argument
binding.  Instances keep a `__dict__`, so `functools.cached_property` works
on them; a constructor stores the fields past the record's `__setattr__`.

`replace(obj, **changes)` builds a copy through the constructor, so the
validation runs again.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    """Make `cls` a frozen record over its annotated fields (see above)."""
    own = cls.__dict__
    names = tuple(cls.__annotations__)
    defaults = {name: own[name] for name in names if name in own}
    cls._fields = names
    if "_key" in own:
        # the stored form that the class names; its hash is computed once
        key = own["_key"]

        def __hash__(self):
            cached = vars(self)
            if "_hash" not in cached:
                cached["_hash"] = hash(tuple(map(_frozen, key(self))))
            return cached["_hash"]

    else:
        # the tuple of the fields, also for a single field
        key = attrgetter(*names) if len(names) > 1 else (lambda self, name=names[0]: (getattr(self, name),))

        def __hash__(self):
            return hash(key(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    if "__init__" not in own:
        post_init = own.get("__post_init__")

        def bind(args, kwargs):
            # the field values in order: by position, else keyword, else default
            if len(args) > len(names):
                raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given")
            values = list(args)
            for name in names[len(args) :]:
                if name in kwargs:
                    values.append(kwargs.pop(name))
                elif name in defaults:
                    values.append(defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            if kwargs:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
            return values

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = bind(args, kwargs)
            for name, value in zip(names, args):
                _set(self, name, value)
            if post_init is not None:
                post_init(self)

        cls.__init__ = __init__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


def _frozen(value):
    """`value` with each dict in it, at any depth, made a frozenset of its items."""
    if isinstance(value, dict):
        return frozenset((k, _frozen(v)) for k, v in value.items())
    return value


def replace(obj, /, **changes):
    """A copy of the record `obj` with the given fields changed, built by its
    constructor, so that its validation runs again."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
