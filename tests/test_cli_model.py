"""A model-based test of the mobius-tree CLI on one store file.

Hypothesis drives random sequences of commands through cli.main():
adds with explicit, automatic and huge slots, moves, deletes, every
query, and commands that must fail (a missing node, an occupied slot,
a cycle, slot 0, bad slot text, init on an existing file); a further
rule grows the tree through the library, so queries meet deep trees
within a short run.  After every
step the exit code and the exact stdout are compared with a model that
knows only path tuples: a node's label is the oracle primitive product
of its path, and the interval order is computed with Fraction.  A
failed command must leave the file as it was, not even rewritten, and
the file must always hold what a save of the model's nodes writes.
"""

import collections
import contextlib
import io
import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from mobiustree.cli import main
from mobiustree.store import TreeStore

from oracles import escape, mat_mul4, oracle_interval, primitive_product, store_file_bytes

BIG = 2**300

# explicit slots, some past 2**300, or None for the automatic slot
SLOTS = st.one_of(st.none(), st.integers(1, 4), st.integers(BIG + 1, BIG + 3))

# adds stop here; each step runs one command on a file this small
MAX_NODES = 32

# --index text that argparse refuses (exit 2) before any file is read
BAD_SLOT_TEXT = ["abc", "1.5", "+5", "1_0", " 6", ""]


def dotted(path):
    return ".".join(map(str, path)) or "root"


class CliMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.file = os.path.join(self.dir.name, "s.db")
        self.tree = {}  # path tuple -> payload
        self.product = {(): primitive_product(())}  # path tuple -> its matrix
        self.made = 0

    def teardown(self):
        self.dir.cleanup()

    # -- model helpers ----------------------------------------------------

    def matrix(self, path):
        if path not in self.product:
            self.product[path] = mat_mul4(self.matrix(path[:-1]), primitive_product(path[-1:]))
        return self.product[path]

    def ordered(self, paths):
        """paths by interval low, then high endpoint."""
        return sorted(paths, key=lambda p: oracle_interval(self.matrix(p)))

    def line(self, shown, path):
        a, _, c, _ = self.matrix(path)
        return f"{shown}\t{a}/{c}\t{escape(self.tree[path])}\n"

    def lines(self, paths):
        return "".join(self.line(dotted(p), p) for p in paths)

    def kids(self, parent):
        return self.ordered(p for p in self.tree if p[:-1] == parent)

    def subtree(self, top):
        return [p for p in self.tree if p[: len(top)] == top]

    def payload(self):
        self.made += 1
        # every other payload needs escaping
        return f"n{self.made}" + ("\t\\\n" if self.made % 2 else "")

    def draw_node(self, data, root=False):
        nodes = sorted(self.tree)
        return data.draw(st.sampled_from([()] + nodes if root else nodes))

    def draw_target(self, data, root=False):
        """A node to query: any node, or one with at least one or two
        children (if there is such a node), whose output has the most
        lines to get wrong."""
        need = data.draw(st.integers(0, 2))
        kids = collections.Counter(p[:-1] for p in self.tree if len(p) > 1 or root)
        inner = sorted(p for p, n in kids.items() if n >= need)
        if need and inner:
            return data.draw(st.sampled_from(inner))
        return self.draw_node(data, root)

    def draw_missing(self, data):
        """A path that names no node: a free slot under a node or the root."""
        parent = self.draw_node(data, root=True)
        taken = [p[-1] for p in self.tree if p[:-1] == parent]
        return parent + (data.draw(st.integers(1, 5).filter(lambda n: n not in taken)),)

    def snapshot(self):
        st_ = os.stat(self.file)
        with open(self.file, "rb") as f:
            return f.read(), st_.st_ino, st_.st_mtime_ns

    def run(self, argv, code, out=""):
        """Run one command; its exit code and stdout must be the model's,
        and a failed command must leave the file untouched."""
        before = self.snapshot()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            got = main(argv)
        assert (got, stdout.getvalue()) == (code, out), (argv, stderr.getvalue())
        if code:
            assert self.snapshot() == before, argv
        if code in (3, 4):
            assert stderr.getvalue().startswith("error: "), argv

    # -- rules ------------------------------------------------------------

    @initialize()
    def init(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["init", self.file]) == 0
        assert stdout.getvalue() == ""

    @rule()
    def init_existing(self):
        self.run(["init", self.file], 4)

    @precondition(lambda self: len(self.tree) < MAX_NODES)
    @rule(data=st.data(), slot=SLOTS)
    def add(self, data, slot):
        parent = self.draw_node(data, root=True)
        payload = self.payload()
        argv = ["add", self.file, "--parent", dotted(parent), "--payload", payload]
        if slot is not None:
            argv += ["--index", str(slot)]
        occupied = [p[-1] for p in self.tree if p[:-1] == parent]
        if slot in occupied:
            self.run(argv, 4)
            return
        path = parent + (max(occupied, default=0) + 1 if slot is None else slot,)
        self.tree[path] = payload
        self.run(argv, 0, self.line(dotted(path), path))

    @precondition(lambda self: len(self.tree) < MAX_NODES)
    @rule(data=st.data(), depth=st.integers(1, 6))
    def grow_comb(self, data, depth):
        """Adds a comb under a drawn node through the library, as another
        program on the file would: a chain of automatic slots (slot 1
        below its top), each link with a sibling in a drawn free slot.
        Queries then meet nodes of both determinant signs with several
        children, and det +1 nodes whose slot-1 child has children,
        within a short run."""
        store = TreeStore.load(self.file)
        parent = self.draw_node(data, root=True)
        for _ in range(depth):
            links = []
            for slot in (None, data.draw(SLOTS)):
                occupied = [p[-1] for p in self.tree if p[:-1] == parent]
                if slot in occupied:
                    continue
                payload = self.payload()
                store.add_child(dotted(parent), payload, index=slot)
                links.append(parent + (max(occupied, default=0) + 1 if slot is None else slot,))
                self.tree[links[-1]] = payload
            parent = links[0]
        store.save(self.file)

    @precondition(lambda self: self.tree)
    @rule(
        data=st.data(),
        place=st.sampled_from(["own parent", "own subtree", "any"]),
        slot=st.one_of(SLOTS, st.just("own")),
    )
    def mv(self, data, place, slot):
        src = self.draw_node(data)
        if place == "own parent":
            parent = src[:-1]
        elif place == "own subtree":
            parent = data.draw(st.sampled_from(self.subtree(src)))
        else:
            parent = self.draw_node(data, root=True)
        if slot == "own":
            slot = src[-1]
        argv = ["mv", self.file, "--node", dotted(src), "--to", dotted(parent)]
        if slot is not None:
            argv += ["--index", str(slot)]
        vacating = src[-1] if parent == src[:-1] else None
        occupied = [p[-1] for p in self.tree if p[:-1] == parent and p[-1] != vacating]
        if parent[: len(src)] == src or slot in occupied:
            self.run(argv, 4)
            return
        top = parent + (max(occupied, default=0) + 1 if slot is None else slot,)
        moved = self.subtree(src)
        tree = {top + p[len(src) :]: self.tree.pop(p) for p in moved}
        self.tree.update(tree)
        self.run(argv, 0, f"moved: {len(moved)}\n")

    @precondition(lambda self: self.tree)
    @rule(data=st.data())
    def rm(self, data):
        top = self.draw_node(data)
        doomed = self.subtree(top)
        for p in doomed:
            del self.tree[p]
        self.run(["rm", self.file, "--node", dotted(top)], 0, f"removed: {len(doomed)}\n")

    @rule(data=st.data())
    def ls(self, data):
        node = self.draw_target(data, root=True)
        argv = ["ls", self.file]
        # without --node, ls lists the root
        if node or data.draw(st.booleans()):
            argv += ["--node", dotted(node)]
        self.run(argv, 0, self.lines(self.kids(node)))

    @rule()
    def print_tree(self):
        want, stack = [], self.kids(())[::-1]
        while stack:
            p = stack.pop()
            want.append(self.line("  " * (len(p) - 1) + str(p[-1]), p))
            stack.extend(self.kids(p)[::-1])
        self.run(["tree", self.file], 0, "".join(want))

    @precondition(lambda self: self.tree)
    @rule(data=st.data())
    def ancestors(self, data):
        node = self.draw_target(data)
        want = self.lines(node[:k] for k in range(1, len(node)))
        self.run(["ancestors", self.file, "--node", dotted(node)], 0, want)

    @precondition(lambda self: self.tree)
    @rule(data=st.data())
    def descendants(self, data):
        node = self.draw_target(data)
        want = self.lines(self.ordered(p for p in self.subtree(node) if p != node))
        self.run(["descendants", self.file, "--node", dotted(node)], 0, want)

    @rule()
    def stats(self):
        keys = [self.matrix(p) for p in self.tree]
        depth = max(map(len, self.tree), default=0)
        bits = max((k[0].bit_length() for k in keys), default=0)
        key_bytes = max((len("\t".join(map(str, k))) for k in keys), default=0)
        want = f"nodes: {len(keys)}\nmax_depth: {depth}\n"
        want += f"max_numerator_bits: {bits}\nmax_key_bytes: {key_bytes}\n"
        self.run(["stats", self.file], 0, want)

    # -- commands that must fail --------------------------------------------

    @rule(
        data=st.data(),
        command=st.sampled_from(["add", "mv", "mv --to", "rm", "ls", "ancestors", "descendants"]),
    )
    def missing_node(self, data, command):
        missing = dotted(self.draw_missing(data))
        if command == "add":
            argv = ["add", self.file, "--parent", missing]
        elif command == "mv --to":
            if not self.tree:
                return
            argv = ["mv", self.file, "--node", dotted(self.draw_node(data)), "--to", missing]
        elif command == "mv":
            argv = ["mv", self.file, "--node", missing, "--to", "root"]
        else:
            argv = [command, self.file, "--node", missing]
        self.run(argv, 4)

    @rule(
        data=st.data(),
        command=st.sampled_from(["add", "mv"]),
        text=st.sampled_from(["0", *BAD_SLOT_TEXT]),
    )
    def bad_index(self, data, command, text):
        """--index 0 is a domain error (3); text that is no integer is a
        usage error (2)."""
        if command == "add":
            argv = ["add", self.file, "--parent", dotted(self.draw_node(data, root=True))]
        else:
            if not self.tree:
                return
            src = self.draw_node(data)
            # the root is under no subtree, so the move is no cycle
            argv = ["mv", self.file, "--node", dotted(src), "--to", "root"]
        self.run(argv + ["--index", text], 3 if text == "0" else 2)

    # -- the comparison after every step ------------------------------------

    @invariant()
    def file_holds_the_model(self):
        order = self.ordered(self.tree)
        with open(self.file, "rb") as f:
            assert f.read() == store_file_bytes((self.matrix(p), self.tree[p]) for p in order)


# each step runs one whole command, most of whose time goes to building
# the argument parser; at 30 steps per example the default 100 examples
# take about 10 s
CliMachine.TestCase.settings = settings(deadline=None, stateful_step_count=30)
test_cli_model = CliMachine.TestCase
