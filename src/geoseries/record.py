"""Record: the base of the package's frozen value classes.

A record's fields are its class's own annotations, in order; a field
given a value in the class body defaults to it.  Record gives what
dataclass(frozen=True) generated: an __init__ that stores the fields in
the instance's __dict__ (a class that checks them writes its own), == and
hash by the tuple of field values, a repr Name(field=value, ...),
__match_args__, and an AttributeError for any assignment or deletion.  A
name the instance's __dict__ lacks is made by the class's _make(name),
from what the instance keeps outside its fields, and kept.
_replace(**changes), and copy.replace on Python 3.13 and later, is a
copy through __init__ with the given fields changed, as NamedTuple's is;
it copies fields only, so nothing kept outside them carries over.

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

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bound as Python binds a call's arguments
            cls, rest = self.__class__, fields[len(args):]
            call = f"{cls.__qualname__}.__init__()"
            if len(args) > len(fields):
                raise TypeError(f"{call} takes {len(fields) + 1} positional arguments but "
                                f"{len(args) + 1} were given")
            for name in kwargs.keys() - set(rest):
                why = "multiple values for" if name in fields else "an unexpected keyword"
                raise TypeError(f"{call} got {why} argument {name!r}")
            missing = [repr(name) for name in rest if name not in kwargs and not hasattr(cls, name)]
            if missing:  # 'x', 'x' and 'y', or 'x', 'y', and 'z', as Python lists them
                names = (", ".join(missing[:-1]) + "," * (len(missing) > 2)
                         + " and " * (len(missing) > 1) + missing[-1])
                raise TypeError(f"{call} missing {len(missing)} required positional "
                                f"argument{'s' * (len(missing) > 1)}: {names}")
            args += tuple([kwargs[name] if name in kwargs else getattr(cls, name) for name in rest])
        self.__dict__.update(zip(fields, args))

    def __getattr__(self, name: str):
        # reached only for a name the instance's __dict__ does not hold
        value = self._make(name)
        object.__setattr__(self, name, value)
        return value

    def _make(self, name: str):
        """The value of a field not stored yet; AttributeError where there is none."""
        raise AttributeError(name)

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
