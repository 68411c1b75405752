"""Value types whose constructor checks their fields.

The package's records are `typing.NamedTuple`s: named read-only fields,
value equality and hashing, and a class whose creation compiles a single
`__new__`, so importing the package stays cheap.  `validated` adds a check
of the fields to that constructor.
"""

import functools


def validated(cls):
    """Class decorator: pass every new `cls` through `cls._validate`.

    The arguments are bound by the NamedTuple's signature and defaults, then
    `_validate(self)` raises on a bad field, or returns None to keep the
    tuple, or returns every field's value to store in place of the given
    ones (normalised copies).  `_make`, and so `_replace`, construct through
    the same check.
    """
    make = cls.__new__

    @functools.wraps(make)
    def __new__(klass, *args, **kwargs):
        self = make(klass, *args, **kwargs)
        values = self._validate()
        return self if values is None else tuple.__new__(klass, values)

    def _make(klass, iterable):
        return klass(*iterable)

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(_make)
    return cls
