"""Independent oracles and random generators for the test suite.

Nothing here may call into the package's conversion code paths it is
used to check: continued fractions are evaluated with Fraction, matrix
products with plain tuples, prefix tests on raw tuples.
"""

from fractions import Fraction


def brute_gcd(a, b):
    """Largest common divisor by downward scan."""
    for d in range(min(a, b) if min(a, b) else max(a, b), 0, -1):
        if a % d == 0 and b % d == 0:
            return d
    raise AssertionError("no divisor found")


def brute_min_bezout(a, b):
    """Exhaustive search for the minimal-|x| solution of a*x + b*y = g."""
    g = brute_gcd(a, b)
    best = None
    for x in range(-b, b + 1):
        if (g - a * x) % b == 0:
            y = (g - a * x) // b
            if best is None or abs(x) < abs(best[0]):
                best = (x, y)
    return (g,) + best


def cf_value(components):
    """Exact value of q1 + 1/(q2 + 1/(...)) using Fraction arithmetic."""
    acc = Fraction(components[-1])
    for q in reversed(components[:-1]):
        acc = q + 1 / acc
    return acc


def cf_quotients(x):
    """Canonical continued-fraction quotients of a Fraction x >= 1, by
    repeated floor and reciprocal."""
    out = []
    while True:
        q = x.numerator // x.denominator
        out.append(q)
        x -= q
        if x == 0:
            return out
        x = 1 / x


def fib(n):
    """Fibonacci with fib(1) = fib(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def mat_mul4(m1, m2):
    (a1, b1, c1, d1), (a2, b2, c2, d2) = m1, m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def primitive_product(components):
    """Path matrix as a plain tuple, via explicit primitive factors."""
    m = (1, 0, 0, 1)
    for q in components:
        m = mat_mul4(m, (q, 1, 1, 0))
    return m


def oracle_interval(matrix):
    """(lo, hi) of a matrix's interval as Fractions: the endpoints a/c
    and (a+b)/(c+d) in increasing order."""
    a, b, c, d = matrix
    return tuple(sorted([Fraction(a, c), Fraction(a + b, c + d)]))


def escape(payload):
    """A payload as record lines and the CLI print it."""
    return payload.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def store_file_bytes(records):
    """What a save must write for (matrix, payload) records given in
    interval order: the header, then each record's entries and escaped
    payload."""
    lines = ["mobius-tree v1"]
    lines += ["\t".join([*map(str, m), escape(payload)]) for m, payload in records]
    return ("\n".join(lines) + "\n").encode()


def is_proper_prefix(p, q):
    return len(p) < len(q) and q[: len(p)] == p


def random_path(rng, max_depth=12, max_component=30, min_depth=0):
    depth = rng.randint(min_depth, max_depth)
    return tuple(rng.randint(1, max_component) for _ in range(depth))


def random_paths(rng, count, max_depth=12, max_component=30, trailing_one_share=0.15):
    """Random paths, a slice of them forced non-canonical (trailing 1)."""
    out = []
    for i in range(count):
        p = random_path(rng, max_depth, max_component)
        if p and rng.random() < trailing_one_share:
            p = p[:-1] + (1,)
        out.append(p)
    return out


def random_forest(rng, n_nodes, max_component=30, gap_prob=0.15):
    """A parent-closed forest of distinct paths (tuples), grown by random
    attachment; sibling indices mostly dense with occasional gaps."""
    nodes = [()]
    top = {(): 0}  # highest allocated child index per node
    paths = []
    while len(paths) < n_nodes:
        parent = nodes[rng.randrange(len(nodes))]
        nxt = top.get(parent, 0) + 1
        if rng.random() < gap_prob:
            nxt += rng.randint(1, 3)
        if nxt > max_component:
            continue
        top[parent] = nxt
        p = parent + (nxt,)
        paths.append(p)
        nodes.append(p)
    return paths


def build_store_from_paths(store_cls, paths):
    """Insert paths (any order given; parents first) into a fresh store,
    payload = dotted path."""
    store = store_cls()
    for p in sorted(paths, key=len):
        parent = "root" if len(p) == 1 else ".".join(map(str, p[:-1]))
        store.add_child(parent, ".".join(map(str, p)), index=p[-1])
    return store
