"""Frozen value records built without generated code.

``@record`` gives a class the methods of a frozen dataclass, built from
closures over its field names instead of ``exec``-compiled source, so
defining a result type compiles nothing and the package never imports
:mod:`dataclasses` (nor, through it, :mod:`inspect`).

The fields are the class's own annotated names, in order; a class-level
value is that field's default.  Unannotated class attributes (such as a
verdict label) are not fields.  The class gets:

- ``__init__`` taking fields by position or keyword and filling in
  defaults, raising ``TypeError`` for a missing, unknown or repeated
  argument, then running ``__post_init__`` when the class has one;
- ``__repr__`` as ``Name(field=value, ...)`` with ``__qualname__``;
- ``__eq__`` against instances of exactly the same class (anything else
  gives ``NotImplemented``) and ``__hash__`` as the hash of the tuple of
  field values, the values a frozen dataclass gives;
- ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.

Instances keep their ``__dict__``, so ``functools.cached_property`` and
pickling work as usual.  ``__post_init__`` may normalise a field with
``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter


def frozen_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make ``cls`` a frozen value record over its annotated fields."""
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"record {cls.__qualname__} has no fields")
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    arity = len(names)
    # the defaults of the trailing run of defaulted fields, for calls
    # that pass all the others by position
    first = arity
    while first and names[first - 1] in defaults:
        first -= 1
    padding = tuple(defaults[n] for n in names[first:])
    post_init = getattr(cls, "__post_init__", None)
    if arity == 1:
        get = attrgetter(names[0])

        def values(self):
            return (get(self),)

    else:
        values = attrgetter(*names)

    def bind(args, kwargs):
        if not kwargs and first <= len(args) < arity:
            return args + padding[len(args) - first :]
        title = cls.__qualname__
        if len(args) > arity:
            raise TypeError(f"{title}() takes {arity} arguments, not {len(args)}")
        bound = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{title}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{title}() got multiple values for argument {key!r}")
            bound[key] = value
        missing = [n for n in names if n not in bound and n not in defaults]
        if missing:
            raise TypeError(f"{title}() missing arguments: {', '.join(missing)}")
        return [bound[n] if n in bound else defaults[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        # an indexed loop: building a zip costs more than the stores
        fill = self.__dict__
        i = 0
        for name in names:
            fill[name] = args[i]
            i += 1
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in names])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    for method in (__init__, __repr__, __eq__, __hash__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = frozen_setattr
    cls.__delattr__ = frozen_delattr
    cls.__match_args__ = names
    return cls
