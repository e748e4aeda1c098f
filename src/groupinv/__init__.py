"""groupinv: geometric end-invariants of finitely generated groups,
exact twisted-conjugacy counts, and R-infinity verdicts with derivation traces.

Typical use::

    from groupinv import parse_group_expr, lookup_invariants, decide

    expr = parse_group_expr("BS(1,2) x F(3)")
    lookup_invariants(expr).omega_at(1)   # one rational surviving direction
    decide(expr).conclusion               # 'RInfinity', with a trace

The library modules load on first use.  Importing the package registers each
one in ``sys.modules`` and as a package attribute through
``importlib.util.LazyLoader``; its code runs when one of its attributes is
first read.  A name in ``__all__`` is read from its home module on every
access and never copied into the package, so it always is that module's
current attribute.
"""

import importlib.util
import sys
from operator import attrgetter

__version__ = "0.1.0"

# home module -> the names the package exports from it; every other public
# name is imported from its module
_EXPORTS = {
    "abelian": ("FGAbelianAutomorphism", "FiniteGroupTable", "brute_force_twisted_classes",
                "reidemeister_number"),
    "ballprobe": ("connectivity_probe", "enumerate_ball"),
    "catalog": ("lookup_invariants",),
    "cones": (),
    "expressions": ("parse_group_expr",),
    "rinf": ("decide",),
    "spheres": ("Direction",),
    "unionfind": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register_lazily(name: str):
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# `cli` and `selfcheck` are left out: `python -m groupinv.cli` warns when the
# module it runs is in sys.modules already
for _name in _EXPORTS:
    globals()[_name] = _register_lazily(_name)
del _name


class _Record:
    """An immutable record: its ``__init__`` fills the ``__slots__`` once, in
    order, through ``_set``, and any later assignment or deletion raises
    ``dataclasses.FrozenInstanceError``, imported only when one does.  Equal
    by identity unless a subclass says otherwise."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slots' own setters, which do not go through __setattr__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _set(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError("%s is immutable: cannot set or delete %r"
                                  % (type(self).__name__, name))

    __delattr__ = __setattr__


class _Value(_Record):
    """A record that is equal to, hashes as and prints as the tuple of its
    fields in slot order; a record of another class is never equal to it."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:  # a base that adds no fields has no key
            # the value of a record's one field, or the tuple of its fields
            cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        key = self._key(self)
        return hash((key,) if len(self.__slots__) == 1 else key)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
