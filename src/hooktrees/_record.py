"""Immutable value classes without code generation.

A :class:`Record` subclass names its fields in ``__slots__``; the fields
of a class are its parents' followed by its own, in that order.  The
constructor takes every field by position, in that order, and
``_uncompared`` names the fields that equality and hashing skip.
Equality and the hash go by class and the compared fields, assignment
raises ``AttributeError``, and the ``repr`` shows every field.  Slots
that a class fills in itself, after the constructor, are left out of
the field list with ``_fields`` in the class body (see
``gfparse.GfExpr.depth``).
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        # each slot's own setter, which the __setattr__ below does not block
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args):
        setters = self._setters
        if len(args) != len(setters):
            raise TypeError(
                f"{type(self).__name__}() takes {len(setters)} arguments, got {len(args)}"
            )
        for setter, value in zip(setters, args):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return type(self), tuple(getattr(self, f) for f in self._fields)
