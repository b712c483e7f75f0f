"""The immutable base of the engine's value classes.

A value class names its fields in ``__slots__``, in order, and sets each
one once in its ``__init__`` with ``object.__setattr__``.  The base makes
the instances frozen and gives them value semantics: ``repr`` is
``Name(field=value, ...)``, two instances are equal when they are of the
same class and their field tuples are equal, and the hash is the hash of
the field tuple.

A class whose fields are only stored is a tuple instead, which builds,
compares and hashes in C and equals the plain tuple of its contents:
``ordinal.Ordinal`` is the tuple of its terms, and the canonical forms
(``endspace.Scattered``, ``endspace.CanonicalEndSpace``) and the result
records (the verdicts, invariants, witness reports and catalog entries)
are named tuples.  A class stays a ``Value`` for one of two reasons:

* it must differ from a class with the same fields, as the expression
  classes ``Pt`` and ``Cantor`` do, where named tuples would be equal;
* its constructor checks its arguments (``Answer``, ``IntegerMatrix``,
  ``FinitePresentation``, ``AbelianGroup``, ``SurfaceDescriptor``,
  ``GridPath``).
"""

from __future__ import annotations

from typing import Any


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        # the fields are the positional parameters of every __init__, so
        # copy and pickle rebuild an instance without assigning to it
        return (type(self), self._fields())
