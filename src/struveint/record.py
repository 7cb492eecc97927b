"""The base of the immutable value records (specs, controls, results and
reports): plain slotted classes, so no process imports ``dataclasses``."""

# Sets a slot from a record's own __init__, past its __setattr__.
_set = object.__setattr__


class Record:
    """A record whose fields are the names in ``__slots__`` that do not
    start with ``_``, in the order ``__init__`` takes them; a ``_`` slot
    holds a value derived from them.  ``==``, ``hash`` and pickling go by
    the fields' values (unpickling calls ``__init__``), the repr is
    ``Name(field=value, ...)``, and assignment or deletion raises
    AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _init(self, *values):
        """Set the fields, in order, as given."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__
