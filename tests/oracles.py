"""Independent reference computations the production code is tested against.

Everything here is deliberately written from first principles -- exact
complex arithmetic on (re, im) Fraction pairs, literal unit substitution,
word reduction for commuting generators, fraction-free Gaussian
elimination -- and never calls the code paths under test.
"""

import cmath
import math
import struct
from fractions import Fraction

from hypercomplex.scalars import RationalComplex


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def substitute_unit(components, i_sign: int):
    """Evaluate w + x*i + y*h + z*(ih) at i -> i_sign*h, h the complex unit.

    This is the literal definition of the two split components: the first
    set of nullifics vanishes at i -> -h, the second at i -> +h.
    """
    w, x, y, z = (Fraction(c) for c in components)
    h = (Fraction(0), Fraction(1))
    i_img = (Fraction(0), Fraction(i_sign))
    k_img = cmul(i_img, h)
    out = (w, Fraction(0))
    out = cadd(out, cmul((x, Fraction(0)), i_img))
    out = cadd(out, cmul((y, Fraction(0)), h))
    out = cadd(out, cmul((z, Fraction(0)), k_img))
    return out


def split_oracle(components):
    """(Z, Z') as (re, im) Fraction pairs, by direct substitution."""
    return substitute_unit(components, +1), substitute_unit(components, -1)


def commuting_word_product(s_mask: int, t_mask: int, n: int):
    """Sign and subset of e_S * e_T reduced as a word in commuting generators.

    Generators commute freely (no transposition signs); every adjacent
    equal pair g*g collapses to -1.
    """
    word = sorted(
        [g for g in range(n) if (s_mask >> g) & 1]
        + [g for g in range(n) if (t_mask >> g) & 1]
    )
    sign, mask, idx = 1, 0, 0
    while idx < len(word):
        if idx + 1 < len(word) and word[idx] == word[idx + 1]:
            sign = -sign
            idx += 2
        else:
            mask |= 1 << word[idx]
            idx += 1
    return sign, mask


def subset_rule_product(a, b, n: int):
    """Product of two order-n multicomplex coefficient lists, term by term.

    Each pair of nonzero coefficients contributes sign * x * y at the subset
    that :func:`commuting_word_product` reduces e_S * e_T to, added in the
    order s, then t.  That is the arithmetic of the direct element product,
    float bits included: (-x) * y is -(x * y) exactly.
    """
    out = [0] * (1 << n)
    for s, x in enumerate(a):
        if not x:
            continue
        for t, y in enumerate(b):
            if not y:
                continue
            sign, mask = commuting_word_product(s, t, n)
            out[mask] = out[mask] + sign * x * y
    return out


def scaled_ints(values):
    """(d, [d * x for x in values]) with d the least common denominator of
    the values taken as Fractions (a float is the dyadic rational it
    holds), so the list holds ints."""
    fractions = [Fraction(x) for x in values]
    d = math.lcm(*(f.denominator for f in fractions))
    return d, [f.numerator * (d // f.denominator) for f in fractions]


def exact_product(a, b, n: int) -> list:
    """The exact product of two order-n coefficient lists of ints,
    Fractions and finite floats, as Fractions: :func:`subset_rule_product`
    on the ints d * a and e * b, over d * e."""
    d, ints_a = scaled_ints(a)
    e, ints_b = scaled_ints(b)
    return [Fraction(x, d * e) for x in subset_rule_product(ints_a, ints_b, n)]


# Halfway between the largest float and 2**1024, where rounding to nearest
# (ties to even; the largest float's significand is odd) reaches inf.
OVERFLOW_THRESHOLD = Fraction(2**1024 - 2**970)


def rounds_to_inf(exact) -> bool:
    return abs(exact) >= OVERFLOW_THRESHOLD


def is_rounded_once(value, exact) -> bool:
    """``value`` is the float nearest to the Fraction ``exact``, ties to
    even: neither ``math.nextafter`` neighbour lies closer, and at a tie
    the last bit of value's significand is 0.  Past the largest float the
    neighbour is 2**1024, where rounding overflows."""
    if not math.isfinite(value):
        return False
    error = abs(Fraction(value) - exact)
    for toward in (math.inf, -math.inf):
        neighbour = math.nextafter(value, toward)
        if math.isinf(neighbour):
            other = Fraction(2**1024 if toward > 0 else -(2**1024))
        else:
            other = Fraction(neighbour)
        distance = abs(other - exact)
        if distance < error or (distance == error and _odd_significand(value)):
            return False
    return True


def _odd_significand(value) -> bool:
    return struct.unpack("<Q", struct.pack("<d", value))[0] & 1 == 1


_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


def multicomplex_character(coeffs, signs):
    """sum_S c_S * prod_{k in S} (signs[k] * i) as an exact (re, im) pair:
    the literal substitution i_{k+1} -> signs[k] * i."""
    total = (Fraction(0), Fraction(0))
    for mask, c in enumerate(coeffs):
        sign, count = 1, 0
        for k, s in enumerate(signs):
            if (mask >> k) & 1:
                sign, count = sign * s, count + 1
        re, im = _POWERS_OF_I[count % 4]
        total = cadd(total, (Fraction(c) * sign * re, Fraction(c) * sign * im))
    return total


# The recursive idempotent split and its inverse as element arithmetic, the
# way the package computed them before the butterfly: a = x + i1*y maps to
# (x + i2*y, x - i2*y), recursively, and back through (zp + zm) * 1/2 and
# -(i2 * (zp - zm)) * 1/2.  Kept as the reference for float bits, signed
# zeros included.

_HALF = Fraction(1, 2)


def _complex_like_the_package(re, im):
    if isinstance(re, float) or isinstance(im, float):
        return complex(re, im)
    return RationalComplex(Fraction(re), Fraction(im))


def _first_unit(n: int):
    unit = [0] * (1 << n)
    unit[1] = 1
    return unit


def recursive_split(coeffs, n: int):
    if n == 1:
        return (_complex_like_the_package(coeffs[0], coeffs[1]),)
    x, y = list(coeffs[0::2]), list(coeffs[1::2])
    uy = subset_rule_product(_first_unit(n - 1), y, n - 1)
    plus = [a + b for a, b in zip(x, uy)]
    minus = [a + (-b) for a, b in zip(x, uy)]
    return recursive_split(plus, n - 1) + recursive_split(minus, n - 1)


def recursive_unsplit(values, n: int):
    if n == 1:
        (z,) = values
        return [z.real, z.imag]
    half = len(values) // 2
    zp = recursive_unsplit(values[:half], n - 1)
    zm = recursive_unsplit(values[half:], n - 1)
    scalar_half = [_HALF] + [0] * ((1 << (n - 1)) - 1)
    x = subset_rule_product([a + b for a, b in zip(zp, zm)], scalar_half, n - 1)
    diff = [a + (-b) for a, b in zip(zp, zm)]
    u_diff = subset_rule_product(_first_unit(n - 1), diff, n - 1)
    y = subset_rule_product([-c for c in u_diff], scalar_half, n - 1)
    out = [0] * (1 << n)
    out[0::2] = x
    out[1::2] = y
    return out


def det_gauss(matrix):
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def hamilton_mul(a, b):
    """Quaternion product on complex 4-tuples (scalars commute with units)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def newton_quadratic_solutions(b, c, n_starts=200, seed=20260809):
    """Clustered solutions of q**2 = q*b + c by damped-free Newton iteration
    on the 8 real unknowns from many random starts.

    Independent of the solvent-enumeration path: plain multi-start rootfinding
    with finite-difference Jacobians.  Returns cluster representatives as
    complex 4-tuples.
    """
    import numpy as np

    b = tuple(complex(v) for v in b)
    c = tuple(complex(v) for v in c)

    def residual(vec8):
        q = tuple(complex(vec8[m], vec8[m + 4]) for m in range(4))
        f = hamilton_mul(q, q)
        qb = hamilton_mul(q, b)
        f = tuple(f[m] - qb[m] - c[m] for m in range(4))
        return np.array([v.real for v in f] + [v.imag for v in f])

    rng = np.random.default_rng(seed)
    scale = 1.0 + max(abs(v) for v in b + c)
    found = []
    for _ in range(n_starts):
        x = rng.normal(0.0, 1.5, size=8)
        converged = False
        for _ in range(80):
            f = residual(x)
            if np.linalg.norm(f) <= 1e-12 * scale:
                converged = True
                break
            jac = np.empty((8, 8))
            eps = 1e-7
            for col in range(8):
                bumped = x.copy()
                bumped[col] += eps
                jac[:, col] = (residual(bumped) - f) / eps
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e6:
                break
            x = x - step
        if not converged:
            continue
        if all(np.linalg.norm(x - y) > 1e-6 * (1 + np.linalg.norm(y)) for y in found):
            found.append(x)
    return [tuple(complex(x[m], x[m + 4]) for m in range(4)) for x in found]


def table_is_associative(entry):
    """Brute-force associativity of a 4x4 signed-unit table given as a
    callable (i, j) -> (sign, k)."""
    for i in range(4):
        for j in range(4):
            s_ij, u_ij = entry(i, j)
            for k in range(4):
                s1, u1 = entry(u_ij, k)
                lhs = (s_ij * s1, u1)
                s_jk, u_jk = entry(j, k)
                s2, u2 = entry(i, u_jk)
                rhs = (s_jk * s2, u2)
                if lhs != rhs:
                    return False
    return True


# The two snap-and-deflate loops the package ran before it had one exact-root
# extractor: the rational loop behind the surd stock roots, and the
# Gaussian-rational loop of the split-component solver.  Each checks a
# candidate by Horner in Fraction (or exact complex) arithmetic and divides
# by its own synthetic division.  Kept as references for the exact roots
# found and for the bits of the numeric roots left over.

_SNAP_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 100, 1000, 10**6)


def _exact_horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _synthetic_division(coeffs, root):
    quotient, acc = [], 0
    for c in reversed(coeffs[1:]):
        acc = acc * root + c
        quotient.append(acc)
    if acc * root + coeffs[0]:
        raise ValueError(f"{root} is no root")
    return list(reversed(quotient))


def _numpy_roots(coeffs):
    import numpy as np

    return [complex(r) for r in np.roots([float(c) for c in reversed(coeffs)])]


def reference_rational_roots(coeffs):
    """(rational roots with multiplicity, numeric roots of the remainder) of
    an exact real polynomial without trailing zeros, the remainder's roots
    taken by a second ``np.roots`` call as the surd classifier did."""
    roots, rem = [], list(coeffs)
    while len(rem) >= 2:
        hit = None
        for r in _numpy_roots(rem):
            if abs(r.imag) > 1e-6 * (1 + abs(r.real)):
                continue
            candidate = Fraction(r.real).limit_denominator(10**6)
            if _exact_horner(rem, candidate) == 0:
                hit = candidate
                break
        if hit is None:
            break
        while len(rem) >= 2 and _exact_horner(rem, hit) == 0:
            roots.append(hit)
            rem = _synthetic_division(rem, hit)
    return roots, (_numpy_roots(rem) if len(rem) >= 2 else [])


def _snap_gaussian(z, coeffs):
    re, im = Fraction(z.real), Fraction(z.imag)
    seen = set()
    for d in _SNAP_DENOMINATORS:
        candidate = (re.limit_denominator(d), im.limit_denominator(d))
        if candidate in seen:
            continue
        seen.add(candidate)
        x = RationalComplex(*candidate)
        if not _exact_horner(coeffs, x):
            return x
    return None


def reference_gaussian_roots(coeffs, numeric_roots):
    """(Gaussian-rational roots with multiplicity, numeric roots of the
    remainder) of a polynomial with RationalComplex coefficients and degree
    1 or more, ``numeric_roots`` the complex root finder."""
    exact, rem = [], list(coeffs)
    numeric = numeric_roots(rem)
    while True:
        hit = None
        for r in numeric:
            hit = _snap_gaussian(r, rem)
            if hit is not None:
                break
        if hit is None:
            return exact, numeric
        while len(rem) >= 2 and not _exact_horner(rem, hit):
            exact.append(hit)
            rem = _synthetic_division(rem, hit)
        if len(rem) < 2:
            return exact, []
        numeric = numeric_roots(rem)


# The surd stock equation as first written: the product of all 2**n
# congeners, one sign vector at a time, in Q[x, s_1..s_n]/(s_m**2 - R_m)
# with Fraction coefficients.  Ring elements map a radical bitmask to an
# ascending coefficient list.


def _poly_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and not out[-1]:
        out.pop()
    return out


def _ring_mul(e1, e2, radicands):
    out = {}
    for m1, p1 in e1.items():
        for m2, p2 in e2.items():
            poly = _poly_mul(p1, p2)
            for m, r in enumerate(radicands):
                if (m1 & m2) >> m & 1:
                    poly = _poly_mul(poly, r)
            out[m1 ^ m2] = _poly_add(out.get(m1 ^ m2, []), poly)
    return {k: v for k, v in out.items() if v}


def reference_stock_equation(base, terms):
    """Primitive stock polynomial (ascending Fractions, positive leading
    coefficient) of base + sum sign*Q*sqrt(R) = 0, ``terms`` a list of
    (sign, Q, R); the zero polynomial is ()."""
    radicands = [list(r) for _, _, r in terms]
    product = {0: [Fraction(1)]}
    for j in range(1 << len(terms)):
        element = {0: list(base)} if base else {}
        for m, (sign, q, _) in enumerate(terms):
            flip = -1 if (j >> m) & 1 else 1
            element[1 << m] = [sign * flip * c for c in q]
        product = _ring_mul(product, element, radicands)
    if set(product) - {0}:
        raise ValueError("congener product kept a radical")
    stock = product.get(0, [])
    if not stock:
        return ()
    den = math.lcm(*(c.denominator for c in stock))
    ints = [int(c * den) for c in stock]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(Fraction(v, g) for v in ints)


# The Aberth iteration of the complex root finder, started from the Newton
# polygon of |a_k|: a verbatim copy of the package's start, then Horner
# through a general evaluation routine and the Aberth sum as an explicit left
# fold from 0, so that its bits do not depend on how ``sum()`` adds complex
# numbers.  The package's finder must give the same iterates bit for bit.

ABERTH_MAX_SWEEPS = 200


def _evaluate(p, x):
    if not p:
        return 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def reference_aberth_start(coeffs) -> list:
    deg = len(coeffs) - 1
    vertices = []
    radii = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        y = math.log(abs(c))
        while vertices:
            i, yi = vertices[-1]
            r = math.exp(max(-700.0, min(700.0, (yi - y) / (k - i))))
            if not radii or radii[-1] < r:
                radii.append(r)
                break
            vertices.pop()
            radii.pop()
        vertices.append((k, y))
    low = vertices[0][0]
    edges = [(0, low, radii[0] / 2 if radii else 1.0)] if low else []
    edges += [(i, j, r) for (i, _), (j, _), r in zip(vertices, vertices[1:], radii)]
    return [
        cmath.rect(r, 2 * math.pi * (m / (j - i) + i / deg) + 0.43)
        for i, j, r in edges
        for m in range(j - i)
    ]


def reference_aberth(coeffs) -> list:
    deg = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    deriv = [k * monic[k] for k in range(1, deg + 1)]
    zs = reference_aberth_start(monic)
    for _ in range(ABERTH_MAX_SWEEPS):
        settled = True
        for j in range(deg):
            pj = _evaluate(monic, zs[j])
            dj = _evaluate(deriv, zs[j])
            if dj == 0:
                zs[j] += (1e-6 + 1e-6j) * (1 + abs(zs[j]))
                settled = False
                continue
            w = pj / dj
            s = 0
            for k in range(deg):
                if k != j:
                    s = s + 1 / (zs[j] - zs[k])
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            zs[j] -= step
            if abs(step) > 1e-14 * (1 + abs(zs[j])):
                settled = False
        if settled:
            break
    return zs


def newton_polygon_radii(coeffs) -> list:
    """The radii of the Newton polygon of |a_k|, one per root, from first
    principles: the least concave majorant H of log|a_k| over the nonzero
    a_k, evaluated at every integer k by brute force over all pairs i <= k
    <= j, gives the radius exp(H(k) - H(k+1)) of the k-th root.  The roots
    at 0 (a_0 .. a_{l-1} vanish) get half the smallest radius, or 1 when
    there is no other root."""
    logs = {k: math.log(abs(c)) for k, c in enumerate(coeffs) if c}
    ks = sorted(logs)

    def majorant(k):
        return max(
            logs[i] + (logs[j] - logs[i]) * (k - i) / (j - i) if j > i else logs[i]
            for i in ks
            for j in ks
            if i <= k <= j
        )

    low, deg = ks[0], ks[-1]
    radii = [math.exp(majorant(k) - majorant(k + 1)) for k in range(low, deg)]
    return [min(radii) / 2 if radii else 1.0] * low + radii


# The solver's per-root stage as element arithmetic, the way the package ran
# it before the stage moved onto coefficient tuples: every combination of
# component roots recombined by ``Bicomplex.recompose`` or
# ``Multicomplex.unsplit`` (exact roots as they are, others as complex
# floats), substituted by the element Horner, and sorted by float keys taken
# per combination (an exact root's combination, a float root's split).  It
# calls the element operations, which the stage no longer does, and takes the
# component roots from the solver, which this reference does not test.


def _float_pairs(values) -> tuple:
    return tuple(part for z in values for part in (float(z.real), float(z.imag)))


def element_path_root_set(coeffs):
    """The ``RootSet`` of the polynomial with degree-ascending ``Bicomplex``
    or ``Multicomplex`` coefficients, when it has finitely many roots."""
    import itertools

    from hypercomplex.bicomplex import Bicomplex, SplitPair
    from hypercomplex.multicomplex import Multicomplex
    from hypercomplex.polysolve import RootSet, _component_roots
    from hypercomplex.scalars import scalar_norm

    if isinstance(coeffs[0], Bicomplex):
        spectra = [c.decompose() for c in coeffs]
        recompose = lambda values: Bicomplex.recompose(SplitPair(*values))  # noqa: E731
        parts = Bicomplex.components
    else:
        order = coeffs[0].order
        spectra = [c.split() for c in coeffs]
        recompose = lambda values: Multicomplex.unsplit(values, order)  # noqa: E731
        parts = Multicomplex.components
    comps = []
    for i in range(len(spectra[0])):
        comp = [s[i] for s in spectra]
        while comp and not comp[-1]:
            comp.pop()
        comps.append(comp)
    roots, residuals, keys = [], [], []
    for combo in itertools.product(*[_component_roots(c) for c in comps]):
        exact = all(isinstance(z, RationalComplex) for z in combo)
        root = recompose(combo if exact else [complex(z) for z in combo])
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * root + c
        roots.append(root)
        residuals.append(scalar_norm(parts(acc)))
        keys.append(_float_pairs(combo))
    order = sorted(range(len(roots)), key=keys.__getitem__)
    return RootSet(
        kind="Finite",
        counts=tuple(len(c) - 1 for c in comps),
        roots=tuple(roots[i] for i in order),
        residuals=tuple(residuals[i] for i in order),
    )
