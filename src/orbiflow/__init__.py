"""Certified combinatorics of genus-1 surface sections over hyperbolic
triangle orbifolds, and the matching Dehn-surgery homology checks."""
from operator import attrgetter

__version__ = "0.1.0"


class ChainError(Exception):
    """Base of the package's typed failures.  A subclass names the label of
    its ``error:`` line as ``kind``, "enumeration (trigroup)"; ``report``
    sets ``stage``, "case 344, adjacency", on the failure of a stage."""
    kind = None
    stage = None


class Record:
    """Base of the package's record classes, built without generated code.
    A subclass names its fields in ``__slots__``, in constructor order (a slot
    with a leading underscore is no field), and gets a positional constructor,
    the repr ``Name(field=value, ...)`` and ``==`` by field values."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)


class Value(Record):
    """A frozen record: setting or deleting a field raises AttributeError, and
    equal values hash alike, so a Value can key a dict, a set or a cache."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values(self))
