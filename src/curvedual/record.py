"""The frozen-record base of the library's result and input records.

A record lists its fields once, in `_fields`, and keeps them in
`__slots__`.  It is built positionally or by keyword, compared and
hashed by the tuple of its fields, shown as `Name(field=value, ...)`,
and refuses assignment.  Nothing here generates code at import time,
which keeps `import curvedual.cli` (paid by every command) short.
"""


class Record:
    """Base of the frozen records; a subclass sets `__slots__` and
    `_fields` to its field names, in constructor order."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        values.update(kwargs)
        # too many positionals, a field given twice, an unknown or a
        # missing field
        if (len(args) > len(fields)
                or len(values) != len(args) + len(kwargs)
                or values.keys() != set(fields)):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {fields}; "
                f"got {len(args)} positional, keywords {sorted(kwargs)}")
        for key in fields:
            object.__setattr__(self, key, values[key])

    def _values(self):
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}"
                         for key in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __reduce__(self):
        # rebuild through the constructor: the default slot-state
        # restore would assign, which a frozen record refuses
        return type(self), self._values()
