"""The base of the package's immutable value types."""

#: Sets a field of a ``Frozen`` instance; only its ``__init__`` may call it.
set_field = object.__setattr__


class Frozen:
    """A value held in ``__slots__`` that ``__init__`` fills in with ``set_field``.

    Two instances of one class are equal when the fields named in
    ``_compared`` are, and the hash agrees with that. Assigning or deleting
    a field raises ``AttributeError``. Copies and pickles work.
    """

    __slots__ = ()
    _compared: tuple = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, with a field per
        # keyword; a field whose name starts with "_" is derived, not passed.
        names = [name for cls in type(self).__mro__ for name in getattr(cls, "__slots__", ())
                 if not name.startswith("_")]
        return _rebuild, (type(self), {name: getattr(self, name) for name in names})


def _rebuild(cls, fields: dict) -> Frozen:
    return cls(**fields)
