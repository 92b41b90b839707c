"""Exact unbounded-integer and rational arithmetic.

Everything is plain ``int`` math: no floats, no fixed-width fast paths.
``Ratio`` is an exact nonnegative rational kept in lowest terms, with a
single +infinity sentinel (1/0) that exists only as the upper endpoint
of the root interval.  All values are immutable and all functions pure.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from . import kernels

__all__ = [
    "DomainError",
    "Ratio",
    "INFINITY",
    "gcd",
    "ext_gcd",
    "euclid_quotients",
    "ratio_cmp",
]


class DomainError(ValueError):
    """An input violates a documented precondition."""


def _check_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


# CPython refuses int <-> decimal text conversions longer than
# sys.get_int_max_str_digits() digits (4300 by default, never below 640
# when set).  Past that limit the helpers below convert in chunks short
# enough for any setting, so the process-global limit stays untouched.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def to_decimal(n: int) -> str:
    """Decimal text of an int of any size; str(n) within CPython's
    int/str digit limit."""
    try:
        return str(n)
    except ValueError:
        pass
    sign = "-" if n < 0 else ""
    n = abs(n)
    chunks = []  # base 10**_CHUNK_DIGITS digits, least significant first
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    head = str(chunks.pop())
    return sign + head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def from_decimal(text: str) -> int:
    """The int spelled by decimal text of any length; int(text) within
    CPython's int/str digit limit, plain ASCII digits after at most one
    leading "-" past it.  Raises ValueError otherwise."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _CHUNK_DIGITS):
        n = n * _CHUNK + int(digits[i : i + _CHUNK_DIGITS])
    return -n if text.startswith("-") else n


_EXCERPT_CHARS = 40


def _excerpt(value: int | str | Ratio) -> str:
    """value as an error message quotes it: its text (an int's in
    decimal) whole up to 40 characters, else the first 40 and the
    length, so a huge input cannot make a huge message.  An int past
    CPython's int/str digit limit is named by its bit length instead,
    as its decimal text takes time quadratic in its length.  A Ratio is
    its two parts, each excerpted."""
    if isinstance(value, Ratio):
        return "inf" if value.den == 0 else f"{_excerpt(value.num)}/{_excerpt(value.den)}"
    if isinstance(value, int):
        try:
            value = str(value)
        except ValueError:
            return f"<{value.bit_length()}-bit int>"
    if len(value) <= _EXCERPT_CHARS:
        return value
    return f"{value[:_EXCERPT_CHARS]}... ({len(value)} chars)"


def gcd(a: int, b: int) -> int:
    """Greatest common divisor with gcd(n, 0) = n; (0, 0) is an error."""
    _check_int("a", a)
    _check_int("b", b)
    if a < 0 or b < 0:
        raise DomainError("gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with a*x + b*y = g = gcd(a, b).

    The coefficients are the standard back-substitution pair, which is
    minimal in magnitude (|x| <= b/(2g), |y| <= a/(2g) away from the
    degenerate cases).  The tie at a == b resolves to (g, 1, 0).
    """
    _check_int("a", a)
    _check_int("b", b)
    if a < 0 or b < 0:
        raise DomainError("ext_gcd arguments must be nonnegative")
    if a == 0 and b == 0:
        raise DomainError("ext_gcd(0, 0) is undefined")
    if a == b:
        return a, 1, 0
    return kernels.ext_gcd_raw(a, b)


def euclid_quotients(a: int, b: int) -> list[int]:
    """Quotient sequence of the Euclidean algorithm on (a, b).

    Requires a >= b >= 1 and gcd(a, b) = 1.  The result is the canonical
    continued-fraction expansion of a/b: every term >= 1, and the last
    term >= 2 whenever b >= 2.
    """
    _check_int("a", a)
    _check_int("b", b)
    if b < 1 or a < b:
        raise DomainError(f"need a >= b >= 1, got ({_excerpt(a)}, {_excerpt(b)})")
    quotients, g = kernels.euclid_quotients_raw(a, b)
    if g != 1:
        raise DomainError(
            f"{_excerpt(a)} and {_excerpt(b)} are not coprime (gcd {_excerpt(g)})"
        )
    return quotients


_RATIO_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\Z")


@functools.total_ordering
@dataclass(frozen=True, slots=True, init=False, repr=False)
class Ratio:
    """Exact nonnegative rational in lowest terms.

    The constructor normalizes, so 10/4 and 5/2 are the same value.
    A zero denominator is the +infinity sentinel: it normalizes to 1/0,
    compares greater than every finite value, and prints as "inf".
    0/0 is rejected.
    """

    num: int
    den: int

    def __init__(self, num: int, den: int = 1):
        _check_int("num", num)
        _check_int("den", den)
        if num < 0 or den < 0:
            raise DomainError("Ratio parts must be nonnegative")
        if num == 0 and den == 0:
            raise DomainError("0/0 is not a Ratio")
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @classmethod
    def parse(cls, text: str) -> "Ratio":
        """Parse "num/den" (any terms; normalized), "num", or "inf"."""
        text = text.strip()
        if text == "inf":
            return cls(1, 0)
        m = _RATIO_RE.match(text)
        if m is None:
            raise DomainError(f"invalid ratio text: {_excerpt(text)!r}")
        num = from_decimal(m.group(1))
        den = from_decimal(m.group(2)) if m.group(2) is not None else 1
        return cls(num, den)

    def __str__(self):
        if self.den == 0:
            return "inf"
        return f"{to_decimal(self.num)}/{to_decimal(self.den)}"

    def __repr__(self):
        return f"Ratio({to_decimal(self.num)}, {to_decimal(self.den)})"

    def __lt__(self, other):
        if not isinstance(other, Ratio):
            return NotImplemented
        return kernels.cmp_raw(self.num, self.den, other.num, other.den) < 0


_set_num = Ratio.__dict__["num"].__set__
_set_den = Ratio.__dict__["den"].__set__


def _unchecked_ratio(num: int, den: int) -> Ratio:
    """Ratio from parts already known to be nonnegative ints in lowest
    terms, such as a column of a determinant +-1 matrix; skips the
    constructor's checks and gcd."""
    r = object.__new__(Ratio)
    _set_num(r, num)
    _set_den(r, den)
    return r


INFINITY = Ratio(1, 0)


def ratio_cmp(p: Ratio, q: Ratio) -> int:
    """Total order on Ratios: -1 if p < q, 0 if equal, 1 if p > q.

    Cross-multiplication on normalized parts; the infinity sentinel
    orders above every finite value.
    """
    return kernels.cmp_raw(p.num, p.den, q.num, q.den)
