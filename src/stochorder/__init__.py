"""Stochastic-order toolkit for one-parameter families.

The package decides the likelihood-ratio, log-concavity, usual, and
hazard-rate orders three ways that deliberately share no code path:

* kernel criteria (`criteria`): shape tests on K_nu(x) = d/dnu log w_nu(x)
  and on the conditional tail means of the score;
* a brute-force oracle (`oracle`): direct comparisons of two mass vectors,
  with no kernel or family information;
* closed forms (`pairwise`): exact threshold inequalities for cross-family
  pairs, parameter paths, and pseudo-sample interpolations.

`catalog` carries the law table, the families and grid policy, `compound` the
random-sum layer (the counting kernel's lr direction and the summand's PF2
certificate), and `cli` a deterministic JSON/CSV front end with golden-file
table checks.

The package exports the `__all__` of each module but `cli` and `special`.
Importing the package loads none of its modules (PEP 562): a submodule loads
when it is first imported or read as an attribute, and the first read of an
exported name, of `__all__` or of `dir()` loads every exporting module.
`import stochorder.cli` loads `catalog`, `criteria`, `oracle`, `special` and
`verdicts`, which every command reads; `pairwise` and `compound` load inside
the commands that call them.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exporting modules, in the order of __all__
_EXPORTING = ("catalog", "compound", "criteria", "oracle", "pairwise", "verdicts")
_SUBMODULES = (*_EXPORTING, "cli", "special")


def _export_all() -> None:
    """Bind every exporting module's names here, and `__all__`, once."""
    if "__all__" in globals():
        return
    modules = [import_module(f"{__name__}.{m}") for m in _EXPORTING]
    globals().update({name: getattr(m, name) for m in modules for name in m.__all__})
    globals()["__all__"] = [name for m in modules for name in m.__all__]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        _export_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _export_all()
    return sorted({*globals(), *_SUBMODULES})
