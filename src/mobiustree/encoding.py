"""The five equivalent encodings of a tree node, and the algebra on them.

A node is addressed by its materialized path (sequence of sibling
indices).  Reading the path as a simple continued fraction gives the
node a rational label; appending a free variable instead of the last
reciprocal gives a rational function (a*x + b)/(c*x + d), i.e. a 2x2
integer matrix with determinant +-1; evaluating that function over
x in [1, inf) gives a semiopen interval with rational endpoints.  Path
concatenation is matrix multiplication, so ancestor/descendant checks,
parent/sibling moves and subtree relocation are all O(depth) integer
arithmetic.

The matrix is the primary node identity.  Rational labels collide on
trailing-1 paths (for example 3.12.5.1 and 3.12.6 are both labeled
225/73) while matrices and intervals never do.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from . import kernels
from .exactmath import (
    DomainError,
    Ratio,
    _unchecked_ratio,
    euclid_quotients,
    ext_gcd,
    from_decimal,
    to_decimal,
)

__all__ = [
    "Path",
    "MobiusMatrix",
    "NestedInterval",
    "path_to_matrix",
    "matrix_to_path",
    "path_to_ratio",
    "ratio_to_path",
    "ratio_to_matrix",
    "matrix_to_interval",
    "interval_to_matrix",
    "interval_contains",
    "parent",
    "next_sibling",
    "prev_sibling",
    "child",
    "concat",
    "relative",
    "is_ancestor",
    "convergents",
    "depth",
]

_PATH_RE = re.compile(r"[0-9]+(?:\.[0-9]+)*\Z")


class Path:
    """Materialized path: a sequence of sibling indices, all >= 1.

    The empty path is the (virtual) root.  A path is canonical when it
    is empty, equal to 1, or its last component is >= 2; the
    continued fractions [..., q, 1] and [..., q+1] have the same value,
    so only canonical paths are reachable from a rational label.
    Non-canonical paths are still valid, distinct nodes.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int] = ()):
        comps = tuple(components)
        for q in comps:
            if not isinstance(q, int):
                raise TypeError(f"path component {q!r} is not an int")
            if q < 1:
                raise DomainError(f"path component {to_decimal(q)} is < 1")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dotted decimal form, e.g. "3.12.5.1.21"; "" or "root"
        is the empty path."""
        text = text.strip()
        if text in ("", "root"):
            return cls()
        if _PATH_RE.match(text) is None:
            raise DomainError(f"invalid path text: {text!r}")
        comps = tuple(map(from_decimal, text.split(".")))
        # digits alone spell no negative component, so 0 is the only bad one
        if 0 in comps:
            raise DomainError("path component 0 is < 1")
        return _unchecked_path(comps)

    @property
    def is_root(self) -> bool:
        return not self.components

    @property
    def is_canonical(self) -> bool:
        c = self.components
        return len(c) == 0 or c == (1,) or c[-1] >= 2

    def canonical(self) -> "Path":
        """The canonical path with the same rational label.

        Rewrites a trailing [..., q, 1] as [..., q+1]; canonical paths
        are returned unchanged.
        """
        if self.is_canonical:
            return self
        c = self.components
        return Path(c[:-2] + (c[-2] + 1,))

    def concat(self, other: "Path") -> "Path":
        return Path(self.components + other.components)

    def __len__(self):
        return len(self.components)

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        if not self.components:
            return "root"
        return ".".join(map(to_decimal, self.components))

    def __repr__(self):
        return f"Path([{', '.join(map(to_decimal, self.components))}])"


class MobiusMatrix:
    """2x2 unbounded-integer matrix [[a,b],[c,d]], the full node identity.

    Represents the rational function (a*x + b)/(c*x + d) and equals the
    left-to-right product of primitive factors [[q,1],[1,0]], one per
    path component.  The public constructor (and parse) enforces the
    algebraic invariants on caller-supplied entries: nonnegative ints,
    determinant +-1, and the entry ordering a >= b, a >= c, b >= d,
    c >= d unless identity.  These imply a >= c >= 1: c = 0 would force
    d = 0 and so det = 0.

    Every matrix these checks accept is a product of primitives, so the
    constructor alone decides whether four integers are a node.  By
    induction on a: if d = 0 the ordering forces b = c = 1, i.e. the
    primitive [[a,1],[1,0]]; otherwise |a/c - b/d| = 1/(c*d), and with
    q = min(a//c, b//d) the remainder [[q,1],[1,0]]^-1 * M again meets
    every check with a smaller a.  Matrices this module derives from
    valid ones (child, path_to_matrix, parent) keep the invariants by
    construction and are not checked again.
    """

    __slots__ = ("a", "b", "c", "d")

    IDENTITY: "MobiusMatrix"

    def __init__(self, a: int, b: int, c: int, d: int):
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not isinstance(v, int):
                raise TypeError(f"matrix entry {name} must be an int")
            if v < 0:
                raise DomainError(f"matrix entry {name} is negative")
        det = a * d - b * c
        if det != 1 and det != -1:
            raise DomainError(f"determinant must be +-1, got {to_decimal(det)}")
        if not (a == 1 and b == 0 and c == 0 and d == 1):
            if not (a >= b and a >= c and b >= d and c >= d):
                a, b, c, d = map(to_decimal, (a, b, c, d))
                raise DomainError(
                    f"entries [[{a},{b}],[{c},{d}]] violate the encoding ordering"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("MobiusMatrix is immutable")

    @classmethod
    def parse(cls, text: str) -> "MobiusMatrix":
        """Parse row-major decimal form "a,b,c,d"."""
        parts = [p.strip() for p in text.strip().split(",")]
        if len(parts) != 4 or not all(re.fullmatch(r"[0-9]+", p) for p in parts):
            raise DomainError(f"invalid matrix text: {text!r}")
        return cls(*map(from_decimal, parts))

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, MobiusMatrix):
            return NotImplemented
        return MobiusMatrix(
            *kernels.mat_mul_raw(*self.entries(), *other.entries())
        )

    def __eq__(self, other):
        if not isinstance(other, MobiusMatrix):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __str__(self):
        return ",".join(map(to_decimal, self.entries()))

    def __repr__(self):
        return f"MobiusMatrix({', '.join(map(to_decimal, self.entries()))})"


MobiusMatrix.IDENTITY = MobiusMatrix(1, 0, 0, 1)


class NestedInterval:
    """Semiopen interval with exact rational endpoints.

    The range of (a*x + b)/(c*x + d) over x in [1, inf): one endpoint is
    a/c (the open one, the limit at infinity), the other (a+b)/(c+d)
    (the closed one, the value at x = 1).  closed_end says which of
    lo/hi is included; the determinant sign decides it (det = -1 means
    the function decreases, so the closed endpoint is the high one).
    """

    __slots__ = ("lo", "hi", "closed_end")

    def __init__(self, lo: Ratio, hi: Ratio, closed_end: str):
        if closed_end not in ("low", "high"):
            raise DomainError(f"closed_end must be 'low' or 'high', got {closed_end!r}")
        if not lo < hi:
            raise DomainError(f"need lo < hi, got {lo} and {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "closed_end", closed_end)

    def __setattr__(self, name, value):
        raise AttributeError("NestedInterval is immutable")

    @classmethod
    def parse(cls, text: str) -> "NestedInterval":
        """Parse "(lo, hi]" or "[lo, hi)"; the other bracket combinations
        are not encoding intervals."""
        text = text.strip()
        m = re.fullmatch(r"\((.+),(.+)\]", text)
        if m is not None:
            closed = "high"
        else:
            m = re.fullmatch(r"\[(.+),(.+)\)", text)
            if m is None:
                raise DomainError(f"invalid interval text: {text!r}")
            closed = "low"
        return cls(Ratio.parse(m.group(1)), Ratio.parse(m.group(2)), closed)

    @property
    def closed_point(self) -> Ratio:
        return self.hi if self.closed_end == "high" else self.lo

    @property
    def open_point(self) -> Ratio:
        return self.lo if self.closed_end == "high" else self.hi

    def contains(self, p: Ratio) -> bool:
        """True iff lo < p < hi, or p is the closed endpoint."""
        return (self.lo < p and p < self.hi) or p == self.closed_point

    def encloses(self, inner: "NestedInterval") -> bool:
        """True iff inner is a proper subset of this interval as a point
        set, honoring which endpoints are included."""
        if self == inner:
            return False
        if inner.lo < self.lo or self.hi < inner.hi:
            return False
        if inner.lo == self.lo and self.closed_end != "low" and inner.closed_end == "low":
            return False
        if inner.hi == self.hi and self.closed_end != "high" and inner.closed_end == "high":
            return False
        return True

    def intersects(self, other: "NestedInterval") -> bool:
        """True iff the two intervals share at least one point."""
        lo = self.lo if other.lo < self.lo else other.lo
        hi = self.hi if self.hi < other.hi else other.hi
        if lo < hi:
            return True
        if hi < lo:
            return False
        return self.contains(lo) and other.contains(lo)

    def __eq__(self, other):
        if not isinstance(other, NestedInterval):
            return NotImplemented
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.closed_end == other.closed_end
        )

    def __hash__(self):
        return hash((self.lo, self.hi, self.closed_end))

    def __str__(self):
        if self.closed_end == "high":
            return f"({self.lo}, {self.hi}]"
        return f"[{self.lo}, {self.hi})"

    def __repr__(self):
        return f"NestedInterval({self.lo!r}, {self.hi!r}, {self.closed_end!r})"


# Unchecked constructors, for values derived from already-valid ones
# only; every outside value goes through the public constructors.
_new = object.__new__
_set_components = Path.__dict__["components"].__set__
_set_a, _set_b, _set_c, _set_d = (MobiusMatrix.__dict__[n].__set__ for n in "abcd")
_set_lo, _set_hi, _set_closed_end = (
    NestedInterval.__dict__[n].__set__ for n in ("lo", "hi", "closed_end")
)


def _unchecked_path(components: tuple[int, ...]) -> Path:
    p = _new(Path)
    _set_components(p, components)
    return p


def _unchecked_matrix(a: int, b: int, c: int, d: int) -> MobiusMatrix:
    m = _new(MobiusMatrix)
    _set_a(m, a)
    _set_b(m, b)
    _set_c(m, c)
    _set_d(m, d)
    return m


def _unchecked_interval(lo: Ratio, hi: Ratio, closed_end: str) -> NestedInterval:
    iv = _new(NestedInterval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    _set_closed_end(iv, closed_end)
    return iv


def _as_components(p) -> tuple[int, ...]:
    if isinstance(p, Path):
        return p.components
    return Path(p).components


def path_to_matrix(p: Path | Sequence[int]) -> MobiusMatrix:
    """Product of primitive factors [[q,1],[1,0]] over the path, left to
    right; the empty path gives the identity."""
    return _unchecked_matrix(*kernels.path_to_matrix_raw(_as_components(p)))


def matrix_to_path(m: MobiusMatrix) -> Path:
    """The unique path whose primitive product is m.

    Quotients are peeled off the left: q = floor(a/c) when d = 0, else
    min(floor(a/c), floor(b/d)); the min rule is what makes trailing-1
    (non-canonical) matrices decode correctly.  Every valid matrix has
    such a path (see MobiusMatrix), so this never fails.
    """
    return _unchecked_path(tuple(kernels.matrix_to_path_raw(m.a, m.b, m.c, m.d)))


def path_to_ratio(p: Path | Sequence[int]) -> Ratio:
    """Value of the simple continued fraction q1 + 1/(q2 + 1/(...)).

    Evaluated bottom-up (the Euclidean division steps in reverse), so it
    is an independent route to the a/c entry of path_to_matrix.  The
    empty path has no rational label.
    """
    comps = _as_components(p)
    if not comps:
        raise DomainError("the root has no rational label")
    num, den = kernels.cf_eval_raw(comps)
    return Ratio(num, den)


def ratio_to_path(r: Ratio) -> Path:
    """Canonical path of a node label: the Euclid quotient sequence."""
    _check_label(r)
    return Path(euclid_quotients(r.num, r.den))


def ratio_to_matrix(r: Ratio) -> MobiusMatrix:
    """Canonical matrix of a node label, via the extended Euclidean
    algorithm rather than rebuilding the primitive product.

    With a = r.num and c = r.den, the second column (b, d) is the unique
    pair with 0 <= d < c (or d = 0, b = 1 when c = 1) and
    a*d - b*c = (-1)**len(canonical path); of the two Bezout-derived
    candidates, that sign picks the one equal to
    path_to_matrix(ratio_to_path(r)).
    """
    _check_label(r)
    a, c = r.num, r.den
    sign = -1 if len(euclid_quotients(a, c)) % 2 else 1
    _, x, _ = ext_gcd(a, c)
    if c == 1:
        # depth-1 node: primitive factor [[a,1],[1,0]]
        return MobiusMatrix(a, 1, 1, 0)
    d = (x * sign) % c
    b = (a * d - sign) // c
    return MobiusMatrix(a, b, c, d)


def matrix_to_interval(m: MobiusMatrix) -> NestedInterval:
    """Range of (a*x + b)/(c*x + d) over x in [1, inf).

    The value at x = 1 is (a+b)/(c+d) and is attained (closed); the
    limit a/c at infinity is not (open).  det = -1 means decreasing,
    so the interval is (a/c, (a+b)/(c+d)]; det = +1 gives
    [(a+b)/(c+d), a/c).  The identity maps to [1/1, inf).

    Both endpoints are in lowest terms already: the columns (a, c) and
    (a+b, c+d) each have determinant +-1 with the second column.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    open_pt = _unchecked_ratio(a, c)
    closed_pt = _unchecked_ratio(a + b, c + d)
    # det is +-1, and -1 and +1 differ mod 4, so the low two bits of the
    # entries give its sign without multiplying the full entries
    if ((a & 3) * (d & 3) - (b & 3) * (c & 3)) & 3 == 3:
        return _unchecked_interval(open_pt, closed_pt, "high")
    return _unchecked_interval(closed_pt, open_pt, "low")


def interval_to_matrix(iv: NestedInterval) -> MobiusMatrix:
    """Reconstruct the unique source matrix of an encoding interval.

    The open endpoint is a/c in lowest terms and the closed endpoint is
    (a+b)/(c+d) in lowest terms, so both columns read off exactly.
    Raises DomainError("not an encoding interval") if no valid matrix
    has this interval.
    """
    open_pt, closed_pt = iv.open_point, iv.closed_point
    expected_det = -1 if iv.closed_end == "high" else 1
    a, c = open_pt.num, open_pt.den
    b = closed_pt.num - a
    d = closed_pt.den - c
    if b < 0 or d < 0:
        raise DomainError(f"not an encoding interval: {iv}")
    try:
        m = MobiusMatrix(a, b, c, d)
    except DomainError:
        raise DomainError(f"not an encoding interval: {iv}") from None
    if m.det != expected_det:
        raise DomainError(f"not an encoding interval: {iv}")
    return m


def interval_contains(iv: NestedInterval, p: Ratio) -> bool:
    """Membership of a rational point in an encoding interval."""
    return iv.contains(p)


def parent(m: MobiusMatrix) -> MobiusMatrix | None:
    """Matrix of the path with the last component removed; None for the
    identity.

    O(1): m = P * [[q,1],[1,0]] puts the parent P's first column at
    (b, d) and its second at (a - q*b, c - q*d).  As 0 <= P.b <= P.a = b,
    q is floor(a/b), or one less when P.b = b; that happens only for
    P = [[1,1],[1,0]], and exactly when c - floor(a/b)*d comes out
    negative.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if a == 1 and b == 0 and c == 0 and d == 1:
        return None
    return _unchecked_matrix(*_parent_entries(a, b, c, d))


def _parent_entries(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The step of parent() on the entries of a non-identity matrix."""
    q = a // b
    dp = c - q * d
    if dp < 0:
        q -= 1
        dp += d
    return b, a - q * b, d, dp


def next_sibling(m: MobiusMatrix) -> MobiusMatrix:
    """Matrix of the same path with the last component incremented."""
    if m.is_identity:
        raise DomainError("the root has no siblings")
    return MobiusMatrix(m.a + m.b, m.b, m.c + m.d, m.d)


def prev_sibling(m: MobiusMatrix) -> MobiusMatrix:
    """Matrix of the same path with the last component decremented.

    The first sibling (last component 1) has no predecessor.
    """
    if m.is_identity:
        raise DomainError("the root has no siblings")
    try:
        return MobiusMatrix(m.a - m.b, m.b, m.c - m.d, m.d)
    except DomainError:
        raise DomainError("already the first sibling") from None


def child(m: MobiusMatrix, n: int) -> MobiusMatrix:
    """Matrix of the n-th child: m * [[n,1],[1,0]].

    n = 1 is legal even though it creates a non-canonical path; the
    matrix keeps it a distinct node.
    """
    if not isinstance(n, int):
        raise TypeError("child index must be an int")
    if n < 1:
        raise DomainError(f"child index must be >= 1, got {to_decimal(n)}")
    # with n >= 1 the product keeps m's entry ordering and flips the
    # determinant's sign, so it needs no check
    return _unchecked_matrix(n * m.a + m.b, m.a, n * m.c + m.d, m.c)


def concat(m1: MobiusMatrix, m2: MobiusMatrix) -> MobiusMatrix:
    """Matrix product m1 * m2 = the matrix of path1 followed by path2."""
    return m1 * m2


def relative(anc: MobiusMatrix, desc: MobiusMatrix) -> MobiusMatrix:
    """Solve anc * X = desc for the path fragment X leading from anc
    down to desc.

    anc is inverted exactly: det being +-1 makes the integer adjugate
    det * [[d,-b],[-c,a]] the true inverse.  X is a path matrix, and
    anc's path a prefix of desc's, exactly when the MobiusMatrix
    constructor accepts it (every matrix it accepts is a primitive
    product), so the test is O(1) and peels no path; otherwise raises
    DomainError("not a descendant").  relative(m, m) is the identity.
    """
    s = anc.det
    inv = (s * anc.d, -s * anc.b, -s * anc.c, s * anc.a)
    try:
        return MobiusMatrix(*kernels.mat_mul_raw(*inv, *desc.entries()))
    except DomainError:
        raise DomainError("not a descendant") from None


def _rebase(
    old: MobiusMatrix, new: MobiusMatrix, descs: Iterable[MobiusMatrix]
) -> list[MobiusMatrix]:
    """new * relative(old, m) for each m of descs, which must be old
    itself or its descendants; not checked.  The product is
    (new * old^-1) * m, formed once, so a subtree of any depth is
    re-keyed without peeling each fragment's path: new times a path
    matrix is a path matrix."""
    s = old.det
    t = kernels.mat_mul_raw(*new.entries(), s * old.d, -s * old.b, -s * old.c, s * old.a)
    mul = kernels.mat_mul_raw
    return [_unchecked_matrix(*mul(*t, m.a, m.b, m.c, m.d)) for m in descs]


def is_ancestor(anc: MobiusMatrix, desc: MobiusMatrix) -> bool:
    """Strict ancestor test by arithmetic: anc != desc and the matrix
    equation anc * X = desc has a path solution.  O(1), a fixed number
    of integer operations: one matrix product and the constructor's
    checks (see relative).

    Coincides with proper containment of desc's interval in anc's
    (NestedInterval.encloses).  The store's descendants query finds the
    same nodes without either test, as one slice of its index ordered
    by integer-scaled interval endpoints.
    """
    if anc == desc:
        return False
    try:
        relative(anc, desc)
    except DomainError:
        return False
    return True


def convergents(r: Ratio) -> list[Ratio]:
    """Continued-fraction convergents of a node label, in depth order.

    These are exactly the labels of the node's canonical-path prefixes,
    i.e. its ancestor chain, ending with r itself.
    """
    _check_label(r)
    quotients = euclid_quotients(r.num, r.den)
    out = []
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    for q in quotients:
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        out.append(Ratio(h, k))
    return out


def depth(m: MobiusMatrix) -> int:
    """Path length of the node; the identity has depth 0."""
    return len(matrix_to_path(m))


def _check_label(r: Ratio) -> None:
    if not isinstance(r, Ratio):
        raise TypeError("expected a Ratio")
    if r.den < 1 or r.num < r.den:
        raise DomainError(f"{r} is not a node label (need num >= den >= 1)")
