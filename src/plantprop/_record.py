"""Record: the base of the package's immutable value types.

A subclass lists its fields as class annotations, in order, with defaults
as class attributes, the way a frozen dataclass does. ``dataclasses`` is
not used because importing it loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, which took about half of each CLI process's import time.
"""

from __future__ import annotations


def check_integer(name: str, value) -> None:
    """Raise ValueError unless `value` is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class Record:
    """An immutable value made of the fields its class annotates.

    The constructor takes the fields positionally or by keyword, then runs
    ``__post_init__`` if the class has one. Equality (same class only),
    hash and repr cover every field whose name does not start with ``_``;
    the repr reads like a dataclass's. Values live in the instance
    ``__dict__``: assigning or deleting an attribute raises AttributeError,
    pickling needs nothing more, and ``__post_init__`` may normalize a value
    with ``object.__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = vars(cls).get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._shown = tuple(n for n in fields if not n.startswith("_"))
        # a default is read from the class once, when the def runs
        params = ", ".join(f"{n}=cls.{n}" if hasattr(cls, n) else n for n in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        source = (
            f"def __init__(self, {params}):\n"
            f"    self.__dict__.update({', '.join(f'{n}={n}' for n in fields)}){post}"
        )
        namespace = {"cls": cls}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._shown))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        shown = ", ".join(f"{n}={d[n]!r}" for n in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with `changes` applied, built and checked by the constructor."""
        d = self.__dict__
        values = {n: d[n] for n in self._fields}
        values.update(changes)
        return self.__class__(**values)
