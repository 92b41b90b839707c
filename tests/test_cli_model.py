"""A model-based test of the mobius-tree CLI on one store file.

Hypothesis drives random sequences of commands through cli.main():
adds with explicit, automatic and huge slots, moves, deletes, every
query, and commands that must fail (a missing node, an occupied slot,
a cycle, slot 0, bad slot text, init on an existing file); a further
rule grows the tree through the library, so queries meet deep trees
within a short run.  After every
step the exit code and the exact stdout are compared with what
oracles.TreeModel, which knows only path tuples, says the command
prints.  A failed command must leave the file as it was, not even
rewritten, and the file must always hold what a save of the model's
nodes writes.
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

from oracles import TreeModel, dotted

BIG = 2**300

# explicit slots, some past 2**300, or None for the automatic slot
SLOTS = st.one_of(st.none(), st.integers(1, 4), st.integers(BIG + 1, BIG + 3))

# adds stop here; each step runs one command on a file this small
MAX_NODES = 32

# --index text that argparse refuses (exit 2) before any file is read
BAD_SLOT_TEXT = ["abc", "1.5", "+5", "1_0", " 6", ""]


class CliMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.file = os.path.join(self.dir.name, "s.db")
        self.model = TreeModel()
        self.made = 0

    def teardown(self):
        self.dir.cleanup()

    # -- helpers ----------------------------------------------------------

    def payload(self):
        self.made += 1
        # every other payload needs escaping
        return f"n{self.made}" + ("\t\\\n" if self.made % 2 else "")

    def draw_node(self, data, root=False):
        nodes = sorted(self.model.tree)
        return data.draw(st.sampled_from([()] + nodes if root else nodes))

    def draw_target(self, data, root=False):
        """A node to query: any node, or one with at least one or two
        children (if there is such a node), whose output has the most
        lines to get wrong."""
        need = data.draw(st.integers(0, 2))
        kids = collections.Counter(p[:-1] for p in self.model.tree if len(p) > 1 or root)
        inner = sorted(p for p, n in kids.items() if n >= need)
        if need and inner:
            return data.draw(st.sampled_from(inner))
        return self.draw_node(data, root)

    def draw_missing(self, data):
        """A path that names no node: a free slot under a node or the root."""
        parent = self.draw_node(data, root=True)
        return data.draw(st.integers(1, 5).map(lambda n: self.model.place(parent, n)).filter(bool))

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

    @precondition(lambda self: len(self.model.tree) < MAX_NODES)
    @rule(data=st.data(), slot=SLOTS)
    def add(self, data, slot):
        parent = self.draw_node(data, root=True)
        payload = self.payload()
        argv = ["add", self.file, "--parent", dotted(parent), "--payload", payload]
        if slot is not None:
            argv += ["--index", str(slot)]
        path = self.model.add(parent, payload, slot)
        if path is None:
            self.run(argv, 4)
        else:
            self.run(argv, 0, self.model.line(path))

    @precondition(lambda self: len(self.model.tree) < MAX_NODES)
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
                payload = self.payload()
                path = self.model.add(parent, payload, slot)
                if path is not None:
                    store.add_child(dotted(parent), payload, index=slot)
                    links.append(path)
            parent = links[0]
        store.save(self.file)

    @precondition(lambda self: self.model.tree)
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
            parent = data.draw(st.sampled_from(self.model.subtree(src)))
        else:
            parent = self.draw_node(data, root=True)
        if slot == "own":
            slot = src[-1]
        argv = ["mv", self.file, "--node", dotted(src), "--to", dotted(parent)]
        if slot is not None:
            argv += ["--index", str(slot)]
        moved = self.model.move(src, parent, slot)
        if moved is None:
            self.run(argv, 4)
        else:
            self.run(argv, 0, f"moved: {len(moved)}\n")

    @precondition(lambda self: self.model.tree)
    @rule(data=st.data())
    def rm(self, data):
        top = self.draw_node(data)
        doomed = self.model.delete(top)
        self.run(["rm", self.file, "--node", dotted(top)], 0, f"removed: {len(doomed)}\n")

    @rule(data=st.data())
    def ls(self, data):
        node = self.draw_target(data, root=True)
        argv = ["ls", self.file]
        # without --node, ls lists the root
        if node or data.draw(st.booleans()):
            argv += ["--node", dotted(node)]
        self.run(argv, 0, self.model.lines(self.model.children(node)))

    @rule()
    def print_tree(self):
        want = "".join(self.model.line(p, "  " * (len(p) - 1) + str(p[-1])) for p in self.model.walk())
        self.run(["tree", self.file], 0, want)

    @precondition(lambda self: self.model.tree)
    @rule(data=st.data())
    def ancestors(self, data):
        node = self.draw_target(data)
        want = self.model.lines(self.model.ancestors(node))
        self.run(["ancestors", self.file, "--node", dotted(node)], 0, want)

    @precondition(lambda self: self.model.tree)
    @rule(data=st.data())
    def descendants(self, data):
        node = self.draw_target(data)
        want = self.model.lines(self.model.descendants(node))
        self.run(["descendants", self.file, "--node", dotted(node)], 0, want)

    @rule()
    def stats(self):
        want = "".join(f"{name}: {value}\n" for name, value in self.model.stats().items())
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
            if not self.model.tree:
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
            if not self.model.tree:
                return
            src = self.draw_node(data)
            # the root is under no subtree, so the move is no cycle
            argv = ["mv", self.file, "--node", dotted(src), "--to", "root"]
        self.run(argv + ["--index", text], 3 if text == "0" else 2)

    # -- the comparison after every step ------------------------------------

    @invariant()
    def file_holds_the_model(self):
        with open(self.file, "rb") as f:
            assert f.read() == self.model.file_bytes()


# each step runs one whole command, which loads the store file and, for
# a mutation, saves it with two fsyncs; at 30 steps per example the
# default 100 examples take about 3 s on a 2-core Xeon container, and
# at Hypothesis's default of 50 steps about 5 s
CliMachine.TestCase.settings = settings(deadline=None, stateful_step_count=30)
test_cli_model = CliMachine.TestCase
