"""Independent oracles and random generators for the test suite.

Nothing here may call into the package's conversion code paths it is
used to check: continued fractions are evaluated with Fraction, matrix
products with plain tuples, prefix tests on raw tuples.  TreeModel is
the randomized store and CLI tests' one model of a store, and
check_store their one comparison of a TreeStore with it (check_records
its part that builds no index).
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


def dotted(path):
    """A path tuple as the store and the CLI take it: dotted decimal,
    or "root" for the empty path."""
    return ".".join(map(str, path)) or "root"


class TreeModel:
    """A store as path tuples alone know it: tree maps each node's path
    to its payload, a node's matrix is its parent's times one primitive
    factor, and the interval order is computed with Fraction.  add, move
    and delete follow the store's slot rule (see place) and return what
    it returns; a move gives src's subtree new paths and no other node
    changes."""

    def __init__(self, tree=()):
        self.tree = dict(tree)
        self._product = {(): primitive_product(())}

    def matrix(self, path):
        """The matrix of path: its longest memoized prefix's times one
        primitive factor per further component."""
        product, k = self._product, len(path)
        while path[:k] not in product:
            k -= 1
        for k in range(k, len(path)):
            product[path[: k + 1]] = mat_mul4(product[path[:k]], primitive_product(path[k : k + 1]))
        return product[path]

    def order(self, paths=None):
        """paths (all nodes by default) by interval low, then high end."""
        return sorted(self.tree if paths is None else paths, key=lambda p: oracle_interval(self.matrix(p)))

    def subtree(self, top):
        """top and every node below it."""
        return [p for p in self.tree if p[: len(top)] == top]

    def targets(self, src):
        """The parents src can move under: the root, then each node
        outside src's subtree, in path order."""
        return [()] + [p for p in sorted(self.tree) if p[: len(src)] != src]

    def children(self, parent):
        return self.order(p for p in self.tree if p[:-1] == parent)

    def descendants(self, node):
        return self.order(p for p in self.subtree(node) if p != node)

    @staticmethod
    def ancestors(node):
        return [node[:k] for k in range(1, len(node))]

    def walk(self):
        """Every node depth first, children in interval order."""
        kids = {}
        for p in self.order():
            kids.setdefault(p[:-1], []).append(p)
        out, stack = [], kids.get((), [])[::-1]
        while stack:
            out.append(stack.pop())
            stack += kids.get(out[-1], [])[::-1]
        return out

    def place(self, parent, index=None, src=None):
        """The path a node placed under parent takes, by add (src None)
        or by a move of src: index, or 1 + the highest slot taken there,
        src's own slot not counted; None if index is taken."""
        vacating = src[-1] if src is not None and src[:-1] == parent else None
        taken = [p[-1] for p in self.tree if p[:-1] == parent and p[-1] != vacating]
        if index is None:
            return parent + (max(taken, default=0) + 1,)
        return None if index in taken else parent + (index,)

    def add(self, parent, payload, index=None):
        """The new node's path, or None if index is taken."""
        path = self.place(parent, index)
        if path is not None:
            self.tree[path] = payload
        return path

    def move(self, src, parent, index=None):
        """{old path: new path} for src's subtree; None for a
        move under src itself or into a taken index."""
        top = None if parent[: len(src)] == src else self.place(parent, index, src)
        if top is None:
            return None
        moved = {p: top + p[len(src) :] for p in self.subtree(src)}
        self.tree = {moved.get(p, p): payload for p, payload in self.tree.items()}
        return moved

    def delete(self, top):
        """The paths of the removed subtree."""
        doomed = self.subtree(top)
        for p in doomed:
            del self.tree[p]
        return doomed

    def stats(self):
        """What stats() must report, by field name."""
        keys = [self.matrix(p) for p in self.tree]
        return {
            "nodes": len(keys),
            "max_depth": max(map(len, self.tree), default=0),
            "max_numerator_bits": max((k[0].bit_length() for k in keys), default=0),
            "max_key_bytes": max((len("\t".join(map(str, k))) for k in keys), default=0),
        }

    def file_bytes(self, order=None):
        """What a save must write; order is self.order(), if known."""
        order = self.order() if order is None else order
        return store_file_bytes((self.matrix(p), self.tree[p]) for p in order)

    def line(self, path, shown=None):
        """The CLI's record line: the path (or shown), label, payload."""
        a, _, c, _ = self.matrix(path)
        return f"{dotted(path) if shown is None else shown}\t{a}/{c}\t{escape(self.tree[path])}\n"

    def lines(self, paths):
        return "".join(map(self.line, paths))

    def build(self, store):
        """store with every node added, parents first, at its own slot."""
        made = {(): "root"}
        for p in sorted(self.tree, key=len):
            made[p] = store.add_child(made[p[:-1]], self.tree[p], index=p[-1])
        return store

    def refs(self, path, record=None):
        """path as each kind of parent reference that add_child,
        move_subtree and children take: its text, a Path, a
        MobiusMatrix, and its record, or None for the root."""
        from mobiustree import MobiusMatrix, Path

        return [dotted(path), Path(path), MobiusMatrix(*self.matrix(path)), record if path else None]


QUERIES = ("children", "descendants", "ancestors")


def check_records(store, model, records=None):
    """Assert that store holds a record at each of model's paths'
    matrices, with its payload, and no other record; records, if
    given, maps each path to the record it must be.  Builds no index.
    Returns the record at each path."""
    by_key = {rec.matrix.entries(): rec for rec in store}
    assert len(store) == len(by_key) == len(model.tree)
    at = {p: by_key.get(model.matrix(p)) for p in model.tree}
    for p, rec in at.items():
        assert rec is not None and rec.payload == model.tree[p], dotted(p)
        assert records is None or rec is records[p], dotted(p)
    return at


def check_store(store, model, file, queries=QUERIES, records=None):
    """Assert that store holds model: check_records, then all_nodes()
    in interval order, stats(), and the bytes a save to file writes.
    The queries named are asked of every node, and children of the
    root too.  Returns the record at each path."""
    at = check_records(store, model, records)
    order = model.order()
    recs = [at[p] for p in order]
    assert store.all_nodes() == recs
    assert vars(store.stats()) == model.stats()
    store.save(file)
    with open(file, "rb") as f:
        assert f.read() == model.file_bytes(order)
    if not queries:
        return at

    # each node's parent, kids and descendants by its place in order,
    # the root at n: a slice of a long path would cost its length
    n = len(order)
    rank = {p: i for i, p in enumerate(order)}
    rank[()] = n
    up = [rank[p[:-1]] for p in order]
    kids = [[] for _ in range(n + 1)]
    below = [[] for _ in range(n + 1)]
    for i, rec in enumerate(recs):
        j = up[i]
        kids[j].append(rec)
        while "descendants" in queries and j < n:
            below[j].append(rec)
            j = up[j]
    if "children" in queries:
        assert store.children() == kids[n]
    for i, rec in enumerate(recs):
        if "children" in queries:
            assert store.children(rec) == kids[i], dotted(order[i])
        if "descendants" in queries:
            assert store.descendants(rec) == below[i], dotted(order[i])
        if "ancestors" in queries:
            chain, j = [], up[i]
            while j < n:
                chain.append(recs[j])
                j = up[j]
            assert store.ancestors(rec) == chain[::-1], dotted(order[i])
    return at
