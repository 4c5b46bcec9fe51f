"""Frozen value types, built without generated code.

A Record subclass names its fields by its own class annotations, in
order; a class attribute on a field is its default. Instances behave as
frozen dataclasses do: they compare equal when of the same class with equal field tuples, hash
as that tuple and repr as ``Name(field=value, ...)``; assigning or deleting
any attribute raises AttributeError. ``class C(Record, eq=False)`` keeps
identity equality and hashing.

A class without an ``__init__`` of its own gets one that binds positional
and keyword arguments to the fields, fills in defaults and then calls the
class's ``__post_init__``, if any. A class that rewrites its fields writes
its own ``__init__`` instead and sets each field once with ``setfield``; so
do the classes a query builds many of, since their own ``__init__`` costs
less per instance than the generic one.

Nothing here compiles source: a dataclass execs its methods into being for
every class, and every CLI process pays for that at start.
"""

from operator import attrgetter

#: Sets an attribute past the frozen __setattr__. Writing self.__dict__
#: instead would make every later attribute read about three times slower.
setfield = object.__setattr__


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of cls(*args, **kwargs), defaults filled in; a
    TypeError for a missing, surplus, unknown or repeated argument."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif hasattr(cls, name):
            values.append(getattr(cls, name))
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        what = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__name__}() got {what} argument {name!r}")
    return values


class Record:
    """Base of the library's value types; see the module docstring."""

    _fields = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names

        if "__init__" not in cls.__dict__:
            n = len(names)
            post = getattr(cls, "__post_init__", None)

            def __init__(self, *args, **kwargs):
                if kwargs or len(args) != n:
                    args = _bind(type(self), args, kwargs)
                for name, value in zip(names, args):
                    setfield(self, name, value)
                if post is not None:
                    post(self)

            cls.__init__ = __init__

        if eq:
            get = attrgetter(*names)
            values = get if len(names) > 1 else (lambda self: (get(self),))

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return values(self) == values(other)
                return NotImplemented

            def __hash__(self):
                return hash(values(self))

            cls.__eq__ = __eq__
            cls.__hash__ = __hash__

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
