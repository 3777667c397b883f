"""The base of the package's immutable value types."""

from __future__ import annotations

__all__ = ["FrozenRecord"]


class FrozenRecord:
    """Immutable value type whose fields are its ``__slots__``.

    A subclass's ``__init__`` checks its arguments and ends with one
    :meth:`_freeze`; after that no field can be assigned or deleted.  Records
    are equal when class and fields are, and hash by their fields.  Pickling,
    copying and :meth:`replace` rebuild a record through ``__init__``, so
    every way of making one runs its checks.
    """

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        """A copy with the named fields changed, checked by ``__init__`` again."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
