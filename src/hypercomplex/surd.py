"""Congeneric surd equations: radical equations over Q[x] and their analysis.

A surd equation is base(x) + sum_m sign_m * Q_m(x) * sqrt(R_m(x)) = 0 with
rational polynomials and pairwise distinct radicands.  Its congeners are the
2**n sign variants obtained by flipping each radical independently; the
radical itself always denotes the principal (nonnegative) square root, so
every sign lives in the congener vector.  Multiplying all congeners in the
quotient ring Q[x, s_1..s_n]/(s_m**2 - R_m) eliminates every radical and
yields the rational stock equation, whose roots distribute among the
congeners: each real stock root makes at least one congener vanish, and a
congener that receives no real root is *impossible* -- it has no real root,
though it may vanish at a complex one.  n congeners of stock degree m
give the surd equation fractional order m/n (reported unreduced).

The product is built as a tower of relative norms, F <- F*sigma_m(F) for
m = 1..n, sigma_m flipping the sign of radical m: after step m the element
is fixed by sigma_1..sigma_m, so after n steps it is rational, and it is
the product of all 2**n congeners (the norm is transitive in the
multiquadratic extension).  That is n ring products instead of 2**n.  They
run on integer polynomials: with e_m the denominator of R_m, t_m = e_m*s_m
satisfies t_m**2 = e_m**2*R_m, one common denominator clears the
coefficients of F, and the content comes off once at the end.

Grammar (recursive descent, exact rational literals only)::

    equation := expr '=' expr
    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := NUMBER | NUMBER '/' NUMBER | 'x' ['^' INT]
              | 'sqrt' '(' expr ')' | '(' expr ')'

with at most one sqrt factor per term, no radicals inside parentheses, and
UnsupportedNesting for sqrt inside sqrt.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from . import ratpoly as rp
from .scalars import ComputationalError, InvariantError, common_denominator

MAX_RADICALS = 4
MAX_RADICAND_DEGREE = 8
ASSIGN_RTOL = 1e-8


class ParseError(ValueError):
    """Input rejected; carries the offending position and expectation."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{hint}")


class UnsupportedNesting(ParseError):
    """Radicals inside radicals are outside the grammar."""


class VanishedStock(ComputationalError, ValueError):
    """The congeners multiply to 0, so the stock equation says nothing."""


# ---------------------------------------------------------------------------
# tokens


_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", "=")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            if end < len(text) and text[end] in ".eE":
                raise ParseError(
                    "only exact rational literals are supported", end
                )
            tokens.append(("INT", text[pos:end], pos))
            pos = end
            continue
        if ch.isalpha():
            end = pos
            while end < len(text) and text[end].isalnum():
                end += 1
            word = text[pos:end]
            if word not in ("x", "sqrt"):
                raise ParseError(f"unknown name {word!r}", pos, ("x", "sqrt"))
            tokens.append((word, word, pos))
            pos = end
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# equation model


@dataclass(frozen=True)
class RadicalTerm:
    sign: int            # +1 or -1
    coeff: tuple         # positive-leading rational polynomial Q
    radicand: tuple      # rational polynomial R under the radical


@dataclass(frozen=True)
class SurdEquation:
    """base + sum sign*Q*sqrt(R) = 0, radicands pairwise distinct."""

    base: tuple
    terms: tuple

    @property
    def n_radicals(self) -> int:
        return len(self.terms)

    def signs(self) -> tuple:
        return tuple(t.sign for t in self.terms)

    def with_signs(self, signs) -> "SurdEquation":
        return SurdEquation(
            self.base,
            tuple(
                RadicalTerm(s, t.coeff, t.radicand)
                for s, t in zip(signs, self.terms)
            ),
        )

    def __str__(self):
        out = rp.to_str(self.base) if self.base else ""
        for t in self.terms:
            body = f"sqrt({rp.to_str(t.radicand)})"
            if t.coeff != (1,):
                q = rp.to_str(t.coeff)
                needs_parens = rp.degree(t.coeff) >= 1 and len(
                    [c for c in t.coeff if c]
                ) > 1
                body = (f"({q})" if needs_parens else q) + "*" + body
            if not out:
                out = body if t.sign > 0 else f"-{body}"
            else:
                out += f" {'+' if t.sign > 0 else '-'} {body}"
        return f"{out} = 0"


def parse_surd(text: str) -> SurdEquation:
    """Parse and normalize (RHS subtracted, like radicands merged)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    base, radicals = parser.equation()
    merged: dict[tuple, tuple] = {}
    order: list[tuple] = []
    for signed_q, radicand in radicals:
        if radicand not in merged:
            merged[radicand] = ()
            order.append(radicand)
        merged[radicand] = rp.add(merged[radicand], signed_q)
    terms = []
    for radicand in order:
        q = merged[radicand]
        if not q:
            continue  # radical cancelled out entirely
        sign = 1 if q[-1] > 0 else -1
        terms.append(RadicalTerm(sign, rp.scale(q, sign), radicand))
    if not terms:
        raise ParseError("no radical term survives normalization", 0, ("sqrt",))
    if len(terms) > MAX_RADICALS:
        raise ParseError(
            f"at most {MAX_RADICALS} distinct radicals are supported", 0
        )
    for t in terms:
        if rp.degree(t.radicand) > MAX_RADICAND_DEGREE:
            raise ParseError(
                f"radicand degree above cap {MAX_RADICAND_DEGREE}", 0
            )
    return SurdEquation(base, tuple(terms))


class _Parser:
    """Recursive descent over the token list."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind=None):
        tok = self.tokens[self.idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"unexpected {tok[1]!r}", tok[2], (kind,)
            )
        self.idx += 1
        return tok

    def equation(self):
        lhs_base, lhs_rad = self.expr()
        self.take("=")
        rhs_base, rhs_rad = self.expr(in_radicand=False)
        tok = self.take("END")
        base = rp.sub(lhs_base, rhs_base)
        radicals = lhs_rad + [(rp.neg(q), r) for q, r in rhs_rad]
        return base, radicals

    def expr(self, in_radicand: bool = False):
        base: tuple = ()
        radicals: list = []
        sign = 1
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.take()
            sign = -1 if tok[0] == "-" else 1
        while True:
            poly, radicand = self.term(in_radicand)
            if sign < 0:
                poly = rp.neg(poly)
            if radicand is None:
                base = rp.add(base, poly)
            else:
                radicals.append((poly, radicand))
            tok = self.peek()
            if tok[0] in ("+", "-"):
                self.take()
                sign = -1 if tok[0] == "-" else 1
                continue
            return base, radicals

    def term(self, in_radicand: bool):
        poly, radicand = self.factor(in_radicand)
        while self.peek()[0] == "*":
            self.take()
            p2, r2 = self.factor(in_radicand)
            if r2 is not None:
                if radicand is not None:
                    raise ParseError(
                        "at most one radical per term", self.peek()[2]
                    )
                radicand = r2
            poly = rp.mul(poly, p2)
        return poly, radicand

    def factor(self, in_radicand: bool):
        tok = self.peek()
        if tok[0] == "INT":
            self.take()
            value = int(tok[1])
            if self.peek()[0] == "/":
                self.take()
                value = Fraction(value, int(self.take("INT")[1]))
            return rp.normalize([value]), None
        if tok[0] == "x":
            self.take()
            power = 1
            if self.peek()[0] == "^":
                self.take()
                power = int(self.take("INT")[1])
            return (0,) * power + (1,), None
        if tok[0] == "sqrt":
            if in_radicand:
                raise UnsupportedNesting(
                    "radicals inside radicals are not supported", tok[2]
                )
            self.take()
            self.take("(")
            base, radicals = self.expr(in_radicand=True)
            if radicals:
                raise UnsupportedNesting(
                    "radicals inside radicals are not supported", tok[2]
                )
            self.take(")")
            return (1,), base
        if tok[0] == "(":
            self.take()
            base, radicals = self.expr(in_radicand=in_radicand)
            if radicals:
                raise ParseError(
                    "radicals are allowed only as top-level factors", tok[2]
                )
            self.take(")")
            return base, None
        raise ParseError(
            f"unexpected {tok[1] or 'end of input'!r}",
            tok[2],
            ("INT", "x", "sqrt", "("),
        )


# ---------------------------------------------------------------------------
# congeners and the stock equation


def congeners(eq: SurdEquation) -> list[SurdEquation]:
    """All 2**n sign variants; element 0 is the input itself."""
    base_signs = eq.signs()
    out = []
    for j in range(1 << eq.n_radicals):
        signs = tuple(
            s * (-1 if (j >> m) & 1 else 1) for m, s in enumerate(base_signs)
        )
        out.append(eq.with_signs(signs))
    return out


def stock_equation(eq: SurdEquation) -> tuple:
    """Product of all congeners in Q[x, s_m]/(s_m**2 - R_m): radical-free,
    content-free, positive leading coefficient.

    The tower of relative norms of the module docstring, on F =
    D*(base + sum sign*Q_m/e_m * t_m), whose coefficients are ints for D
    their common denominator.  sigma_m negates the keys that hold bit m.
    """
    radicands = []
    element: dict[int, tuple] = {0: eq.base}
    for m, t in enumerate(eq.terms):
        e, ints = common_denominator(t.radicand)
        radicands.append(tuple(e * v for v in ints))
        element[1 << m] = rp.scale(t.coeff, Fraction(t.sign, e))
    _, ints = common_denominator([c for p in element.values() for c in p])
    flat = iter(ints)
    product = {k: tuple(itertools.islice(flat, len(p))) for k, p in element.items() if p}
    for m in range(len(eq.terms)):
        flipped = {k: rp.neg(p) if (k >> m) & 1 else p for k, p in product.items()}
        product = _quotient_mul(product, flipped, radicands)
    if not set(product) <= {0}:
        raise InvariantError("congener product failed to rationalize")
    return rp.primitive_positive(product.get(0, ()))


def _quotient_mul(e1: dict, e2: dict, radicands) -> dict:
    out: dict[int, tuple] = {}
    for m1, p1 in e1.items():
        for m2, p2 in e2.items():
            poly = rp.mul(p1, p2)
            common = m1 & m2
            for m in range(len(radicands)):
                if (common >> m) & 1:
                    poly = rp.mul(poly, radicands[m])
            key = m1 ^ m2
            out[key] = rp.add(out.get(key, ()), poly)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# root classification


@dataclass(frozen=True)
class RootReport:
    value: object          # Fraction (exact), float, or complex
    exact: bool
    assigned: tuple        # congener indices this root satisfies
    ambiguous: bool        # branch-dependent (negative radicand or complex root)


@dataclass(frozen=True)
class CongenerStatus:
    signs: tuple
    possible: bool
    roots: tuple           # values assigned to this congener


@dataclass(frozen=True)
class CongenerReport:
    equation: SurdEquation
    congeners: tuple       # CongenerStatus per sign vector, input first
    stock: tuple
    order: tuple           # (stock degree m, congener count n), unreduced
    roots: tuple           # RootReport per stock root

    @property
    def order_str(self) -> str:
        return f"{self.order[0]}/{self.order[1]}"


def classify_roots(eq: SurdEquation) -> CongenerReport:
    """Solve the stock equation and hand each root to the congeners it kills."""
    stock = stock_equation(eq)
    if not stock:
        raise VanishedStock(f"stock equation vanished: the congeners of {eq} multiply to 0")
    all_signs = [c.signs() for c in congeners(eq)]

    rational, numeric = rp.rational_roots(stock)
    numeric_real, complex_roots = rp.real_and_complex_roots(numeric)
    real_roots: list = sorted(set(rational)) + sorted(numeric_real)

    reports: list[RootReport] = []
    for root in real_roots:
        assigned, ambiguous = _assign(eq, all_signs, root)
        reports.append(
            RootReport(
                value=root,
                exact=isinstance(root, Fraction),
                assigned=assigned,
                ambiguous=ambiguous,
            )
        )
    for root in complex_roots:
        reports.append(
            RootReport(value=root, exact=False, assigned=(), ambiguous=True)
        )

    statuses = []
    for idx, signs in enumerate(all_signs):
        mine = tuple(r.value for r in reports if idx in r.assigned)
        statuses.append(CongenerStatus(signs=signs, possible=bool(mine), roots=mine))
    return CongenerReport(
        equation=eq,
        congeners=tuple(statuses),
        stock=stock,
        order=(rp.degree(stock), len(all_signs)),
        roots=tuple(reports),
    )


def _assign(eq: SurdEquation, all_signs, root) -> tuple[tuple, bool]:
    """Indices of the congeners ``all_signs`` satisfied at a real stock root.

    Nonnegative radicands use the principal real square root (exactly, when
    the value is a rational perfect square).  Negative radicands are
    evaluated with the principal complex root under every branch choice; if
    the satisfied set depends on the choice the root is flagged ambiguous.
    """
    base = rp.evaluate(eq.base, root)
    qs = [rp.evaluate(t.coeff, root) for t in eq.terms]
    radicand_values = [rp.evaluate(t.radicand, root) for t in eq.terms]
    negatives = [m for m, v in enumerate(radicand_values) if v < 0]

    if not negatives:
        sqrts = []
        exact = isinstance(root, Fraction)
        for v in radicand_values:
            s = rp.sqrt_exact(v) if exact else None
            sqrts.append(s if s is not None else math.sqrt(float(v)))
        return _satisfied(all_signs, root, base, qs, sqrts), False

    satisfied_sets = set()
    for branch in itertools.product((1, -1), repeat=len(negatives)):
        sqrts = []
        for m, v in enumerate(radicand_values):
            if v < 0:
                flip = branch[negatives.index(m)]
                sqrts.append(flip * cmath.sqrt(complex(float(v))))
            else:
                sqrts.append(math.sqrt(float(v)))
        satisfied_sets.add(_satisfied(all_signs, root, base, qs, sqrts))
    if len(satisfied_sets) == 1:
        return satisfied_sets.pop(), False
    return (), True


def _satisfied(all_signs, root, base, qs, sqrts) -> tuple:
    """The congeners that vanish, from base, Q_m and R_m evaluated once."""
    exact = isinstance(root, Fraction) and all(
        isinstance(s, (int, Fraction)) for s in sqrts
    )
    magnitude = abs(complex(float(base)))
    for q, s in zip(qs, sqrts):
        magnitude += abs(complex(float(q))) * abs(complex(s))
    tol = ASSIGN_RTOL * (1.0 + magnitude)
    out = []
    for idx, signs in enumerate(all_signs):
        value = base
        for sign, q, s in zip(signs, qs, sqrts):
            value = value + sign * q * s
        if (value == 0) if exact else (abs(complex(value)) <= tol):
            out.append(idx)
    return tuple(out)
