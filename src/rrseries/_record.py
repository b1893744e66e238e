"""Immutable records: tuples with named fields, equal only within one type."""

import operator


class Record(tuple):
    """A tuple whose subclass names its items in ``_fields``.

    Each field is a read-only property, so a record cannot be changed, and
    it hashes as the tuple of its fields, in C, at every level of a tree of
    records.  Two records are equal only when their types and fields are.
    A subclass declares ``__slots__ = ()`` and ``_fields``; one with
    defaults or checks defines ``__new__`` and ends in ``Record.__new__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(operator.itemgetter(i)))

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}")
        return tuple.__new__(cls, values)

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __bool__(self):
        return True

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"
