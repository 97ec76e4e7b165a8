"""Base class of the package's plain records.

A record is a class with `__slots__` naming its fields and an explicit
`__init__`.  This base adds what the records share: `==` compares two
records of the same class field by field, and `repr` shows the fields in
slot order.  Comparing by value makes a record unhashable unless it
defines `__hash__`, as the read-only `EngineConfig` does.

The runtime package does not use `dataclasses`: importing it pulls in
`inspect`, and building a dozen classes through it took about as long
again, which together were most of a cold `import moddiv`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"
