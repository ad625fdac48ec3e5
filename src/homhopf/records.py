"""Record classes without code generation, so a verdict imports neither
dataclasses nor inspect.

@record reads the field names from the class's own annotations and adds an
__init__ (by position or keyword, in annotation order, with defaults and
field(default_factory=...), then __post_init__), == between records of the
same class and a repr.  A frozen record also hashes over its fields and
refuses assignment and deletion; any other record is unhashable.
"""

from __future__ import annotations

from operator import attrgetter

# Stores past a frozen record's __setattr__.  Unlike self.__dict__.update,
# it leaves CPython's per-instance attribute layout alone, so reading a
# field stays as fast as on a dataclass.
_set = object.__setattr__


class field:
    """A default built afresh for each record by calling default_factory."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, /, *, frozen=False):
    """Class decorator: @record or @record(frozen=True)."""
    if cls is None:
        return lambda c: _make_record(c, frozen)
    return _make_record(cls, frozen)


def _refuse(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__} is frozen: cannot "
                         f"set or delete {name!r}")


def _make_record(cls, frozen):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    for f, d in defaults.items():
        if isinstance(d, field):
            delattr(cls, f)
    n, key = len(names), attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        values = list(args[:n])
        for f in names[len(values):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in defaults:
                d = defaults[f]
                values.append(d.default_factory() if isinstance(d, field)
                              else d)
            else:
                raise TypeError(f"{cls.__name__}() is missing {f!r}")
        if kwargs or len(args) > n:
            raise TypeError(f"{cls.__name__}() got unexpected, repeated or "
                            f"too many arguments")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for f, v in zip(names, args):
            _set(self, f, v)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in names) + ")")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": None}
    if frozen:
        methods.update(__setattr__=_refuse, __delattr__=_refuse,
                       __hash__=lambda self: hash(key(self)))
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields = names
    return cls


def replace(obj, /, **changes):
    """A copy of record obj with the named fields changed; the copy goes
    through __init__, so __post_init__ checks it again."""
    return obj.__class__(**{**{f: getattr(obj, f) for f in obj._fields},
                            **changes})
