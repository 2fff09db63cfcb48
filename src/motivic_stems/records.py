"""The base of the package's records: immutable values with checked fields.

A record lists its fields in ``__slots__``; its constructor checks them and
sets each once with ``_set``, and assigning or deleting a field afterwards
raises ``AttributeError``. Two records of one class are equal when their
compared fields are, and a record hashes as the tuple of those fields, which
``repr`` shows. The compared fields are every field unless the class names
them (``compared=``); the others are derived from them, such as a lookup
table or a cached string.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, compared: tuple[str, ...] | None = None) -> None:
        fields = compared or cls.__slots__
        get = attrgetter(*fields)  # the value of one field, a tuple of more
        cls._compared = fields
        cls.__eq__ = lambda self, other: (
            get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented
        )
        cls.__hash__ = (lambda self: hash((get(self),))) if len(fields) == 1 else lambda self: hash(get(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # a pickle or a copy restores the fields as the constructor set them
        for name, value in state[1].items():
            _set(self, name, value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._compared)})"
