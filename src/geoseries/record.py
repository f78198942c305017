"""Record: the base of the package's frozen value classes.

A record's fields are its class's own annotations, in order, and its
class writes out its own __init__, which stores them in the instance's
__dict__ and checks them.  Record gives the rest, as
dataclass(frozen=True) generated it: == and hash by the tuple of field
values, a repr Name(field=value, ...), __match_args__, and an
AttributeError for any assignment or deletion.  _replace(**changes), and
copy.replace on Python 3.13 and later, is a copy through __init__ with
the given fields changed, as NamedTuple's is; it copies fields only, so
nothing kept outside them carries over.

Written out rather than generated, so importing the package loads
neither dataclasses nor inspect, and each class compiles no methods at
import.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy made by __init__, with the fields named in changes changed."""
        kept = {name: getattr(self, name) for name in self._fields if name not in changes}
        return self.__class__(**kept, **changes)

    __replace__ = _replace  # copy.replace, from Python 3.13, as on a dataclass
