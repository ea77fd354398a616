"""Reference computations that the benchmark checks the program against.

Nothing here imports the package under test.  Complex values are plain
pairs ``(re, im)``: exact when both parts are ``int``/``Fraction``, float
otherwise, so the same code checks both scalar backends.

Characters of MC(n).  A ring homomorphism MC(n) -> C sends each unit
``i_j`` to ``sigma_j * i`` with ``sigma_j = +-1``.  The benchmark indexes the
2**n sign vectors by a mask (bit j-1 set <=> sigma_j = -1), so

    phi_mask(a) = sum_S a_S * i**|S| * (-1)**popcount(S & mask),

a Walsh-Hadamard transform of ``a_S * i**|S|``.  The 2**(n-1) masks with bit
0 clear send ``i_1 -> +i``; the other half are their complex conjugates.
"""

from __future__ import annotations

from fractions import Fraction


def is_exact_value(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


# -- complex pairs -----------------------------------------------------------


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cabs(a) -> float:
    return abs(complex(float(a[0]), float(a[1])))


def cpow(a, k: int):
    out = (1, 0)
    for _ in range(k):
        out = cmul(out, a)
    return out


def close(a, b, tol: float) -> bool:
    """Exact equality for exact pairs, else |a - b| <= tol."""
    if all(is_exact_value(v) for v in (*a, *b)):
        return a[0] == b[0] and a[1] == b[1]
    return cabs(csub(a, b)) <= tol


# -- characters ---------------------------------------------------------------


def _wht(values: list) -> None:
    h, n = 1, len(values)
    while h < n:
        for start in range(0, n, 2 * h):
            for j in range(start, start + h):
                x, y = values[j], values[j + h]
                values[j], values[j + h] = x + y, x - y
        h *= 2


def _times_i_power(re, im, r: int):
    """(re + i*im) * i**r."""
    r %= 4
    if r == 0:
        return re, im
    if r == 1:
        return -im, re
    if r == 2:
        return -re, -im
    return im, -re


def all_characters(coeffs) -> list:
    """phi_mask(a) for every mask in 0..2**n - 1 (see module docstring)."""
    size = len(coeffs)
    re, im = [0] * size, [0] * size
    for s, a in enumerate(coeffs):
        re[s], im[s] = _times_i_power(a, 0, s.bit_count())
    _wht(re)
    _wht(im)
    return list(zip(re, im))


def characters(coeffs) -> list:
    """The 2**(n-1) characters with i_1 -> +i, in mask order."""
    return all_characters(coeffs)[0::2]


def element_from_characters(values) -> list:
    """Coefficients of the element whose i_1 -> +i characters are ``values``.

    ``values[k]`` is the value at mask ``2*k``; the conjugate characters are
    filled in, the transform is inverted, and ``a_S = b_S * (-i)**|S|`` must
    come out real.
    """
    half = len(values)
    size = 2 * half
    full = [None] * size
    for k, v in enumerate(values):
        full[2 * k] = v
        full[(2 * k) ^ (size - 1)] = (v[0], -v[1])
    re = [v[0] for v in full]
    im = [v[1] for v in full]
    _wht(re)
    _wht(im)
    exact = all(is_exact_value(x) for x in re + im)
    coeffs = []
    for s in range(size):
        r, i = _times_i_power(re[s], im[s], -s.bit_count())
        if exact:
            r, i = Fraction(r, size), Fraction(i, size)
            if i:
                raise ValueError("character values do not come from a real element")
        else:
            r, i = r / size, i / size
        coeffs.append(r)
    return coeffs


def split_order_mask(order: int, k: int) -> int:
    """Mask of the character at position k of the documented split order.

    ``Multicomplex.split`` writes a = x + i_1*y and recurses on
    (x + i_2*y, x - i_2*y): level l (the top level is l = 1) chooses the sign
    e_l of i_l -> e_l*i_{l+1}, and the last unit goes to +i.  So
    sigma_j = prod_{l >= j} e_l, with e_l read from bit (order-1-l) of k.
    """
    mask, sign = 0, 1
    for j in range(order - 1, 0, -1):
        if (k >> (order - 1 - j)) & 1:
            sign = -sign
        if sign < 0:
            mask |= 1 << (j - 1)
    return mask


def split_order_characters(coeffs, order: int) -> list:
    everything = all_characters(coeffs)
    return [everything[split_order_mask(order, k)] for k in range(1 << (order - 1))]


# -- biquaternions ------------------------------------------------------------


def biq_matrix(components) -> tuple:
    """rho(q) for q = c0 + c1*i + c2*j + c3*k with complex-pair scalars.

    rho(i) = diag(I, -I), rho(j) = [[0, 1], [-1, 0]], rho(k) = [[0, I], [I, 0]]
    and the scalar imaginary maps to I times the identity.
    """
    c0, c1, c2, c3 = components
    ic1 = (-c1[1], c1[0])
    ic3 = (-c3[1], c3[0])
    return (
        (cadd(c0, ic1), cadd(c2, ic3)),
        (csub(ic3, c2), csub(c0, ic1)),
    )


def mat_mul(a, b) -> tuple:
    return tuple(
        tuple(cadd(cmul(a[r][0], b[0][c]), cmul(a[r][1], b[1][c])) for c in range(2))
        for r in range(2)
    )


def mat_sub(a, b) -> tuple:
    return tuple(tuple(csub(a[r][c], b[r][c]) for c in range(2)) for r in range(2))


def mat_norm(a) -> float:
    return sum(cabs(a[r][c]) ** 2 for r in range(2) for c in range(2)) ** 0.5


# -- polynomials --------------------------------------------------------------


def poly_from_roots(roots, lead=(1, 0)) -> list:
    """Ascending complex-pair coefficients of lead * prod (t - r)."""
    out = [lead]
    for r in roots:
        shifted = [(0, 0)] + out
        for k in range(len(out)):
            shifted[k] = csub(shifted[k], cmul(r, out[k]))
        out = shifted
    return out


def backward_error(coeffs, z) -> float:
    """Normwise backward error |p(z)| / (max_k |a_k| * sum_k |z|**k).

    (The componentwise form, with sum_k |a_k| |z|**k below, is near 1 at a
    float root near 0 of a polynomial whose constant term is exactly 0.)
    """
    zc = complex(float(z[0]), float(z[1]))
    value = 0j
    for a in reversed(coeffs):
        value = value * zc + complex(float(a[0]), float(a[1]))
    powers = sum(abs(zc) ** k for k in range(len(coeffs)))
    return abs(value) / (max(cabs(a) for a in coeffs) * powers)
