"""A base for small value classes whose fields are their ``__slots__``."""

from __future__ import annotations

__all__ = ["Value"]


class Value:
    """Equality, hash and repr over the fields named in ``__slots__``.

    Instances equal only instances of the very same class, so two value
    classes with equal fields never compare equal.  Fields are not
    guarded against assignment; treat instances as immutable, since
    they may be hashed.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"
