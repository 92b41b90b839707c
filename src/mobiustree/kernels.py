"""Integer arithmetic kernels: the hot inner loops of the encoding.

All functions work on plain unbounded ``int`` values and assume their
documented preconditions without checking them: the public constructors
and wrappers in ``exactmath`` and ``encoding`` validate every value once,
where it enters the library.  Callers reach them as ``kernels.<name>``
so a profiler can rebind each one in this module alone.
"""


def ext_gcd_raw(a, b):
    """Iterative extended Euclid: returns (g, x, y) with a*x + b*y = g.

    Standard back-substitution coefficients: |x| <= b/(2g) and
    |y| <= a/(2g) away from degenerate inputs.  No tie-breaking; the
    a == b case is resolved by the caller.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def euclid_quotients_raw(a, b):
    """Quotient sequence of Euclid on (a, b) plus the final gcd.

    Assumes a >= b >= 1.  Returns (quotients, gcd); the caller decides
    whether a non-unit gcd is an error.  A quotient of 1 (a < 2b) is
    taken by one subtraction, with no division.
    """
    out = []
    while b:
        r = a - b
        if r < b:
            out.append(1)
        else:
            q, r = divmod(a, b)
            out.append(q)
        a, b = b, r
    return out, a


def cf_eval_raw(components):
    """Evaluate a simple continued fraction bottom-up to (num, den).

    Folds q + 1/(...) from the innermost term outwards, i.e. runs the
    Euclidean division steps in reverse.  Assumes a nonempty sequence of
    integers >= 1; the result is automatically in lowest terms.
    """
    num, den = 1, 0
    for q in reversed(components):
        if q == 1:
            num, den = num + den, num
        else:
            num, den = q * num + den, num
    return num, den


def path_to_matrix_raw(components):
    """Left-to-right product of primitive factors [[q,1],[1,0]].

    The empty product is the identity.  Assumes integer components >= 1.
    A component 1 multiplies by additions alone.
    """
    a, b, c, d = 1, 0, 0, 1
    for q in components:
        if q == 1:
            a, b = a + b, a
            c, d = c + d, c
        else:
            a, b = a * q + b, a
            c, d = c * q + d, c
    return a, b, c, d


def matrix_to_path_raw(a, b, c, d):
    """Peel primitive factors off [[a,b],[c,d]], returning the quotients.

    Inverse of path_to_matrix_raw for any product of primitives,
    including non-canonical (trailing-1) ones, which is every matrix the
    MobiusMatrix constructor accepts.  The quotient is
    min(floor(a/c), floor(b/d)) (floor(a/c) when d = 0), the only choice
    that keeps the remainder a path matrix; a/c and b/d differ by
    1/(c*d), so the min is floor(a/c) or one less.  When a - c < c the
    quotient is 1 with no fix-up, since b >= d: that step is two
    subtractions.  The one 1 that fails the test, the first of a
    trailing 1.1 (a = 2c), goes through the division.
    """
    out = []
    while c:
        r = a - c
        if r < c:
            a, b, c, d = c, d, r, b - d
            out.append(1)
            continue
        q = a // c
        if b - q * d < 0:
            q -= 1
        a, b, c, d = c, d, a - q * c, b - q * d
        out.append(q)
    return out


def mat_mul_raw(a1, b1, c1, d1, a2, b2, c2, d2):
    """2x2 integer matrix product, row-major flat form."""
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def cmp_raw(pn, pd, qn, qd):
    """Exact rational comparison by cross-multiplication: -1, 0 or 1.

    Denominator 0 is the +infinity sentinel (numerator 1); the plain
    cross product already orders it above every finite value.
    """
    lhs = pn * qd
    rhs = qn * pd
    if lhs < rhs:
        return -1
    if lhs > rhs:
        return 1
    return 0
