"""Workload ``surd``: ``parse_surd`` followed by ``classify_roots``.

An equation is ``B(x) +- c_1*sqrt(R_1(x)) [+- c_2*sqrt(R_2(x))] = k`` with
one or two distinct radicands.  For
``(radicals, D, count)`` in ``MIX`` every radicand has degree D, so the
equations of one class cost about the same; B has degree max(1, D//2);
coefficients are integers in [-5, 5], c_m in 1..4, k in [-5, 5].  The stock
equation then has degree up to 2**radicals * max(1, D/2), so 1 to 16.

Checks, against the equation as generated (not as the program parsed it):

* the number of distinct real stock roots the program reports equals the
  number of real roots that sympy's exact isolation (``Poly.intervals``)
  finds in the stock polynomial (sympy's Sturm-based ``count_roots`` gives
  the same count but takes about a minute at degree 64);
* at sample points, the product of all congeners evaluated with mpmath at
  50 digits is one constant multiple of the stock polynomial;
* each root assigned to a congener makes that congener vanish at 50 digits
  (a float root is first refined on the exact stock polynomial);
* each real root whose radicands are all nonnegative is assigned to at
  least one congener.
"""

from __future__ import annotations

from fractions import Fraction

from common import Op, rng_for

from hypercomplex import surd

# (radicals, radicand degree, equations per round).  Thirty-six degree-4
# two-radical equations span the median and the degree-8 ones the 90th
# percentile, so neither percentile falls between two kinds of equation.
# Three and four radicals are left out: there the program, on some seeds,
# assigns no congener to a real root or reports real roots that the stock
# polynomial does not have (see README.md and CHANGES.md).
MIX = tuple((1, d, 4) for d in range(1, 9)) + ((2, 4, 36), (2, 6, 8), (2, 8, 28))
SAMPLE_POINTS = (Fraction(7, 3), Fraction(-5, 2), Fraction(11, 7), Fraction(1, 5))
DIGITS = 50


def _poly(rng, degree: int) -> list:
    p = [Fraction(rng.randint(-5, 5)) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-5, 5)
    return p + [Fraction(lead)]


def _text(p) -> str:
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else (f"{mag}*x" if k == 1 else f"{mag}*x^{k}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def make_equation(rng, radicals: int, top: int) -> dict:
    """Generated equation: text, base - k, and (sign, c, radicand) terms."""
    base = _poly(rng, max(1, top // 2))
    radicands: list = []
    while len(radicands) < radicals:
        r = _poly(rng, top)
        if r not in radicands:
            radicands.append(r)
    terms = [(rng.choice((1, -1)), Fraction(rng.randint(1, 4)), r) for r in radicands]
    k = rng.randint(-5, 5)
    text = _text(base)
    for sign, c, r in terms:
        text += f" {'+' if sign > 0 else '-'} {c}*sqrt({_text(r)})"
    text += f" = {k}"
    shifted = list(base)
    shifted[0] -= k
    return {"text": text, "base": shifted, "terms": terms}


def build(seed: int) -> list:
    rng = rng_for(seed, "surd")
    specs = []
    for radicals, top, count in MIX:
        for _ in range(count):
            specs.append((f"surd.r{radicals}.d{top}", make_equation(rng, radicals, top)))
    return specs


# -- checks -------------------------------------------------------------------


def _mp_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _congener(mp, eq: dict, signs, x):
    """(value, magnitude) of base - k + sum signs_m * c_m * sqrt(R_m) at x."""
    value = _mp_eval([mp.mpf(c.numerator) / c.denominator for c in eq["base"]], x)
    magnitude = abs(value)
    for s, (_, c, r) in zip(signs, eq["terms"]):
        root = mp.sqrt(_mp_eval([mp.mpf(v.numerator) / v.denominator for v in r], x))
        term = s * (mp.mpf(c.numerator) / c.denominator) * root
        value += term
        magnitude += abs(term)
    return value, magnitude


def _real_root_count(stock) -> int:
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(stock)], x)
    return len(poly.intervals())


def _refine(mp, stock, value):
    """Newton's method on the exact stock polynomial from a reported float
    root, to DIGITS digits."""
    coeffs = [mp.mpf(c.numerator) / c.denominator for c in stock]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    x = mp.mpf(value)
    for _ in range(200):
        slope = _mp_eval(deriv, x)
        if slope == 0:
            break
        step = _mp_eval(coeffs, x) / slope
        x -= step
        if abs(step) <= mp.mpf(10) ** (-DIGITS - 5) * (1 + abs(x)):
            break
    return x


def check_report(eq: dict, stock: list, congener_signs: list, roots: list) -> list:
    """``roots``: (value, assigned congener indices, ambiguous) per stock root;
    ``congener_signs[j]`` is the sign of each radical term in congener j,
    i.e. congener j is base + sum_m signs[m] * c_m * sqrt(R_m)."""
    import mpmath

    errors = []
    n = len(eq["terms"])
    every_choice = {tuple(-1 if (j >> m) & 1 else 1 for m in range(n)) for j in range(1 << n)}
    if len(congener_signs) != 1 << n or set(map(tuple, congener_signs)) != every_choice:
        errors.append(f"congener sign vectors {congener_signs} are not the 2**{n} sign choices")
    real = [r for r in roots if not isinstance(r[0], complex)]
    if len({v for v, _, _ in real}) != _real_root_count(stock):
        errors.append(
            f"{len({v for v, _, _ in real})} distinct real stock roots reported, "
            f"exact isolation finds {_real_root_count(stock)}"
        )
    with mpmath.workdps(DIGITS + 10):
        mp = mpmath.mp
        ratios = []
        for x in SAMPLE_POINTS:
            xm = mp.mpf(x.numerator) / x.denominator
            s = _mp_eval([mp.mpf(c.numerator) / c.denominator for c in stock], xm)
            if s == 0:
                continue
            prod = mp.mpf(1)
            for signs in congener_signs:
                prod *= _congener(mp, eq, signs, xm)[0]
            ratios.append(prod / s)
        if not ratios or ratios[0] == 0 or any(
            abs(r - ratios[0]) > mp.mpf(10) ** (-DIGITS + 10) * abs(ratios[0]) for r in ratios
        ):
            errors.append("the congener product is not a constant multiple of the stock polynomial")
        for value, assigned, ambiguous in real:
            if isinstance(value, Fraction):
                xm = mp.mpf(value.numerator) / value.denominator
            else:
                xm = _refine(mp, stock, value)
                if abs(xm - value) > 1e-6 * (1 + abs(value)):
                    errors.append(f"reported root {value} is not near a stock root")
                    continue
            radicands = [_mp_eval([mp.mpf(v.numerator) / v.denominator for v in r], xm) for _, _, r in eq["terms"]]
            for j in assigned:
                val, mag = _congener(mp, eq, congener_signs[j], xm)
                if abs(val) > mp.mpf(10) ** (-DIGITS + 15) * (1 + mag):
                    errors.append(f"root {value} assigned to congener {j}, which is {mpmath.nstr(val, 5)} there")
            if not assigned and not ambiguous and all(r >= 0 for r in radicands):
                errors.append(f"real root {value} with nonnegative radicands is assigned to no congener")
    return errors


def _check(eq: dict, report) -> list:
    return check_report(
        eq,
        list(report.stock),
        [st.signs for st in report.congeners],
        [(r.value, r.assigned, r.ambiguous) for r in report.roots],
    )


def operations(specs, ctx) -> list:
    return [
        Op(
            name,
            lambda t=eq["text"]: surd.classify_roots(surd.parse_surd(t)),
            lambda out, eq=eq: _check(eq, out),
        )
        for name, eq in specs
    ]
