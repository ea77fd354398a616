"""Computer algebra for commutative hypercomplex numbers and their relatives.

Submodules: `bicomplex` (tessarines, idempotent decomposition, nullific
ideals), `multicomplex` (the order-n tower), `quadruple` (Cockle's four
quadruple algebras via Cayley-table derivation), `polysolve` (roots over
split algebras), `biquaternion` (Hamilton biquaternions), `surd`
(congeneric surd equations), and `cli` (the batch command line).
"""

from .bicomplex import Bicomplex, IdealTag, NotInvertible, SplitPair
from .biquaternion import Biquaternion, DegenerateSpectrum, NotComplanar, solve_quadratic
from .multicomplex import Multicomplex, OrderMismatch
from .polysolve import (
    BicomplexPoly,
    NoConvergence,
    RootSet,
    ZeroPolynomial,
    complex_roots,
    mc_solve,
    solve,
)
from .quadruple import (
    CayleyTable,
    QuadElement,
    QuadSignature,
    derive_table,
    is_normal,
    named_table,
)
from .scalars import InvariantError, RationalComplex, ZeroInput
from .surd import (
    CongenerReport,
    ParseError,
    SurdEquation,
    UnsupportedNesting,
    VanishedStock,
    classify_roots,
    congeners,
    parse_surd,
    stock_equation,
)

__version__ = "0.1.0"

__all__ = [
    "Bicomplex",
    "BicomplexPoly",
    "Biquaternion",
    "CayleyTable",
    "CongenerReport",
    "DegenerateSpectrum",
    "IdealTag",
    "InvariantError",
    "Multicomplex",
    "NoConvergence",
    "NotComplanar",
    "NotInvertible",
    "OrderMismatch",
    "ParseError",
    "QuadElement",
    "QuadSignature",
    "RationalComplex",
    "RootSet",
    "SplitPair",
    "SurdEquation",
    "UnsupportedNesting",
    "VanishedStock",
    "ZeroInput",
    "ZeroPolynomial",
    "classify_roots",
    "complex_roots",
    "congeners",
    "derive_table",
    "is_normal",
    "mc_solve",
    "named_table",
    "parse_surd",
    "solve",
    "solve_quadratic",
    "stock_equation",
]
