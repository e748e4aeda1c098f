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


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
