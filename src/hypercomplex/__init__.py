"""Computer algebra for commutative hypercomplex numbers and their relatives.

Submodules: `bicomplex` (tessarines, idempotent decomposition, nullific
ideals), `multicomplex` (the order-n tower), `quadruple` (Cockle's four
quadruple algebras via Cayley-table derivation), `polysolve` (roots over
split algebras), `biquaternion` (Hamilton biquaternions), `surd`
(congeneric surd equations), and `cli` (the batch command line).

``import hypercomplex`` loads no submodule.  Each public name in
``__all__`` and each submodule name loads its submodule on first use
(PEP 562), so a caller pays only for the algebras it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bicomplex": ("Bicomplex", "IdealTag", "NotInvertible", "SplitPair"),
    "biquaternion": ("Biquaternion", "DegenerateSpectrum", "NotComplanar", "solve_quadratic"),
    "multicomplex": ("Multicomplex", "OrderMismatch"),
    "polysolve": (
        "BicomplexPoly", "NoConvergence", "RootSet", "ZeroPolynomial",
        "complex_roots", "mc_solve", "solve",
    ),
    "quadruple": (
        "CayleyTable", "QuadElement", "QuadSignature", "derive_table", "is_normal", "named_table",
    ),
    "scalars": ("InvariantError", "RationalComplex", "ZeroInput"),
    "surd": (
        "CongenerReport", "ParseError", "SurdEquation", "UnsupportedNesting", "VanishedStock",
        "classify_roots", "congeners", "parse_surd", "stock_equation",
    ),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)
_SUBMODULES = (*_EXPORTS, "cli", "ratpoly")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
