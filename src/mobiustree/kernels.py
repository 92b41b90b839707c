"""Integer arithmetic kernels: the hot inner loops of the encoding.

All functions work on plain unbounded ``int`` values and assume their
documented preconditions without checking them: the public constructors
and wrappers in ``exactmath`` and ``encoding`` validate every value once,
where it enters the library.
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
    whether a non-unit gcd is an error.
    """
    out = []
    while b:
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
        num, den = q * num + den, num
    return num, den


def path_to_matrix_raw(components):
    """Left-to-right product of primitive factors [[q,1],[1,0]].

    The empty product is the identity.  Assumes integer components >= 1.
    """
    a, b, c, d = 1, 0, 0, 1
    for q in components:
        a, b = a * q + b, a
        c, d = c * q + d, c
    return a, b, c, d


def matrix_to_path_raw(a, b, c, d):
    """The quotients of the path whose primitive product is [[a,b],[c,d]].

    Inverse of path_to_matrix_raw for any product of primitives,
    including non-canonical (trailing-1) ones, which is every matrix the
    MobiusMatrix constructor accepts.  The path spells a/c as a
    continued fraction, so it is the Euclid chain of (a, c), or, for a
    non-canonical path, that chain with its last quotient q split into
    q - 1, 1.  Each primitive has determinant -1, so the path's length
    has the parity of the determinant's sign, and that parity picks the
    one of the two that the matrix is.
    """
    out, _ = euclid_quotients_raw(a, c)
    if (-1) ** len(out) != _det_sign(a, b, c, d):
        out[-1] -= 1
        out.append(1)
    return out


def _det_sign(a, b, c, d):
    """The determinant +-1 of a valid matrix's entries: -1 and +1 differ
    mod 4, so the entries' low two bits give it."""
    return -1 if ((a & 3) * (d & 3) - (b & 3) * (c & 3)) & 3 == 3 else 1


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
