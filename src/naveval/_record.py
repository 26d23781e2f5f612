"""What every naveval module shares: its file reader, its word fold and its value-type base.

_read_text reads every input file, for the library loaders and the CLI alike.
_fold gives text the one form in which every input compares words: tokens,
semantic tuples, synonyms, the verb lexicon and knowledge-base entities.

A Record subclass names its fields in _fields and lists them (and any caches)
in __slots__. Assignment to an instance raises AttributeError, so fields are
set through _set. A subclass is built in one of three ways. One that only
stores its fields writes no __init__: it gets the one dataclasses would write,
every field a required parameter. One that checks its fields as given defines
a static _check(*fields) that this generated __init__ calls first. One that
converts its input writes its own __init__. _checked(*values) stores values
with neither __init__ nor _check: only the class's own module calls it, on
values it has just built or checked. Equality, hash and repr cover the fields
alone, in the form dataclasses would give them.
"""

from __future__ import annotations

from pathlib import Path

_set = object.__setattr__


def _read_text(path: str | Path) -> str:
    """A whole file as text: UTF-8, its lines ended by "\n", a leading BOM dropped.

    OSError and UnicodeDecodeError escape. The codec is utf-8, not utf-8-sig,
    so a bad byte's offset counts from the file's first byte, a BOM included.
    """
    with open(path, encoding="utf-8") as handle:
        return handle.read().removeprefix("\ufeff")


def _fold(text: str) -> str:
    """text in the form in which naveval compares words: lowercase, as str.lower gives it."""
    return text.lower()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__init__" in cls.__dict__:
            return
        # Compiled, as namedtuple and dataclasses do; the names come from class bodies.
        params = ", ".join(cls._fields)
        lines = [f"self._check({params})"] if hasattr(cls, "_check") else []
        lines += [f"_set(self, {name!r}, {name})" for name in cls._fields]
        namespace: dict[str, object] = {"__name__": cls.__module__, "_set": _set}
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(lines), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"  # type: ignore[attr-defined]
        cls.__init__ = init  # type: ignore[misc]

    @classmethod
    def _checked(cls, *values: object) -> "Record":
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values, strict=True):
            _set(record, name, value)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through __init__, so copy and pickle work without assignment.
        return self.__class__, self._values()
