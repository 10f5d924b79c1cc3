"""Frozen value classes, without the start-up cost of ``dataclasses``.

``value`` gives a class with annotated fields an ``__init__`` over them
(positional or keyword, class-level defaults, then ``__post_init__``),
``__eq__`` and ``__hash__`` over the fields for instances of one class, a
``Name(field=value, ...)`` repr, and attribute assignment or deletion that
raises ``AttributeError``.  Attributes that ``__post_init__`` sets with
``object.__setattr__`` and that are not annotated stay out of eq, hash and
repr, and ``functools.cached_property`` still works: it writes the instance
``__dict__`` directly.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, TypeVar

T = TypeVar("T", bound=type)


def value(cls: T) -> T:
    """Make ``cls`` a frozen value class over its annotated fields, in order.
    A class that defines its own ``__init__`` keeps it."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*names)

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        given = dict(zip(names, args))
        values = {**defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes each of {', '.join(names)} once, "
                            f"and needs those without a default; got {args} and {kwargs}")
        for name in names:
            object.__setattr__(self, name, values[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self: Any, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self: Any) -> int:
        return hash(key(self))

    def __repr__(self: Any) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self: Any, name: str, *_: Any) -> None:
        raise AttributeError(f"cannot assign or delete {name!r}: {cls.__name__} is frozen")

    methods = {"__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __setattr__}
    if "__init__" not in cls.__dict__:
        methods["__init__"] = __init__
    for name, method in methods.items():
        setattr(cls, name, method)
    return cls
