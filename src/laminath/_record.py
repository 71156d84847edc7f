"""Record classes: the stdlib ``@dataclass`` behaviour that laminath's
certificates use, at a fraction of its import and decoration cost.

``record`` reads a class's own annotations, in order, as its fields; a class
attribute of the same name is the field's default, and ``factory(make)`` as a
default calls ``make()`` afresh for each instance.  It generates one
straight-line ``__init__`` (a frozen record stores its fields through
``object.__setattr__``), which ends by calling ``__post_init__`` when the class
has one.  ``__repr__``, ``__eq__`` and ``__hash__`` are shared and act as the
stdlib's do: equality and the hash go by the tuple of field values, a frozen
record refuses assignment and deletion with AttributeError, and a mutable one
is unhashable.  The stdlib decorator's module loads ``inspect`` on import, and
it compiles about six methods per class.
"""

from operator import attrgetter

_MISSING = object()


class factory:
    """Default that is ``make()``, called once per instance."""

    def __init__(self, make):
        self.make = make


def _values(self):
    return self.__record_values__(self)


def _repr(self):
    fields = ", ".join(f"{name}={value!r}"
                       for name, value in zip(self.__record_fields__, _values(self)))
    return f"{self.__class__.__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, *, frozen: bool = False):
    """Class decorator: ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    scope = {"_set": object.__setattr__, "_MISSING": _MISSING}
    params, body = [], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        value = name
        if default is _MISSING:
            params.append(name)
        else:
            params.append(f"{name}=_default_{name}")
            if isinstance(default, factory):
                scope["_make_" + name] = default.make
                default, value = _MISSING, f"_make_{name}() if {name} is _MISSING else {name}"
            scope["_default_" + name] = default
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__record_fields__ = init, names
    get = attrgetter(*names)  # a tuple of the values from two fields on
    cls.__record_values__ = staticmethod(get if len(names) > 1 else lambda self: (get(self),))
    cls.__repr__, cls.__eq__ = _repr, _eq
    cls.__hash__ = _hash if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    return cls
