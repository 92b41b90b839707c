"""The benchmark workloads; README.md says why each one exists.

A workload builds its store in ``setup`` (timed as set-up, repeated),
builds its checker state in ``prepare`` (untimed), then yields operations
from ``ops()`` forever as ``(kind, call, check)``; the same seed gives the
same sequence.  The runner times
``call()`` alone; ``check(result)`` runs outside the timed region,
compares the result with the shadow model and applies a mutation to the
shadow.  ``epilogue()`` yields the closing save/load/stats round trip.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from oracles import build_store_from_paths, random_forest
from shadow import Shadow, dotted

from mobiustree import TreeStore

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

# traced_ops: operations in the traced stretch of a --trace 1 run, a fixed
# count so layer totals from different commits cover the same work (about
# six seconds traced on a 2-vCPU host with the pure kernels)
SIZES = {
    "full": {
        "read-mix": {"nodes": 100_000, "big": 2000, "max_scanned": 200, "traced_ops": 24_000},
        "mutate-query": {"nodes": 10_000, "big": 2000, "max_moved": 20, "max_scanned": 200,
                         "traced_ops": 18},
        "deep-keys": {"spines": 4, "length": 800, "traced_ops": 70},
    },
    "tiny": {
        "read-mix": {"nodes": 2000, "big": 100, "max_scanned": 20, "traced_ops": 200},
        "mutate-query": {"nodes": 500, "big": 60, "max_moved": 10, "max_scanned": 20,
                         "traced_ops": 12},
        "deep-keys": {"spines": 4, "length": 40, "traced_ops": 14},
    },
}


def closest_by_size(shadow: Shadow, target: int, count: int) -> list:
    """The nodes whose descendant counts are nearest to target, so the big
    queries cost about the same whatever the seed."""
    return sorted(shadow.paths, key=lambda p: abs(shadow.subtree_size(p) - 1 - target))[:count]


class Workload:
    # set-ups per run, enough for several seconds of them, so the median
    # is not one short stretch of a shared host's load
    setup_reps = 3

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rng = random.Random(f"ops-{seed}")
        self.store = None
        self.shadow = None
        self.records = {}  # payload -> NodeRecord
        self.final_bytes = 0
        self.tracer = None
        self.serial = 0  # numbers new payloads; survives a restart of ops()
        self.file = None  # store file the CLI processes work on
        self.child_load_s = 0.0

    def prepare(self):
        self.records = {rec.payload: rec for rec in self.store}

    def record_at(self, path):
        return self.records[self.shadow.payload[path]]

    def random_node(self):
        return self.rng.choice(self.shadow.paths)

    def small_subtree(self, limit):
        """A random node whose subtree has at most limit nodes."""
        for _ in range(50):
            p = self.random_node()
            if self.shadow.subtree_size(p) <= limit:
                return p
        return self.shadow.paths[-1]  # sorts last, so it is a leaf

    def scan_target(self, inner=False):
        """A random descendants target, an inner node if asked.  The few
        nodes with huge subtrees are left to the deliberate big queries, so
        the tail does not depend on whether a run happens to draw one."""
        for _ in range(50):
            p = self.small_subtree(self.size["max_scanned"])
            if not inner or self.shadow.subtree_size(p) > 1:
                return p
        return self.shadow.paths[0]  # sorts first, so it has a child

    def outside(self, src):
        """A random node that is not in src's subtree, or the root."""
        for _ in range(50):
            p = self.random_node()
            if p[: len(src)] != src:
                return p
        return ()

    # -- library operations with their checks ------------------------------

    def ancestors_op(self, path):
        rec = self.record_at(path)

        def check(res):
            want = [self.shadow.payload[path[:i]] for i in range(1, len(path))]
            return [r.payload for r in res] == want

        return "ancestors", lambda: self.store.ancestors(rec), check

    def descendants_op(self, path):
        rec = self.record_at(path)

        def check(res):
            want = {self.shadow.payload[p] for p in self.shadow.descendants(path)}
            return len(res) == len(want) and {r.payload for r in res} == want

        return "descendants", lambda: self.store.descendants(rec), check

    def children_op(self, path):
        rec = self.record_at(path)

        def check(res):
            want = {self.shadow.payload[p] for p in self.shadow.children(path)}
            return len(res) == len(want) and {r.payload for r in res} == want

        return "children", lambda: self.store.children(rec), check

    def resolve_op(self, path):
        text = dotted(path)
        payload = self.shadow.payload[path]
        return "resolve", lambda: self.store.resolve(text), lambda res: res.payload == payload

    def insert_op(self, parent, payload, explicit=False):
        slot = self.shadow.free_slot(parent, self.rng) if explicit else self.shadow.next_slot(parent)
        ref = self.record_at(parent) if parent else "root"
        index = slot if explicit else None
        new = parent + (slot,)

        def check(res):
            self.shadow.add(new, payload)
            self.records[payload] = res
            return res.payload == payload and res.matrix.entries() == self.shadow.matrix(new)

        return "insert", lambda: self.store.add_child(ref, payload, index=index), check

    def move_op(self, src, target, index=None):
        rec = self.record_at(src)
        ref = self.record_at(target) if target else "root"
        if index is None:
            taken = set(self.shadow.slots.get(target, ()))
            if target == src[:-1]:
                taken.discard(src[-1])
            index_used = max(taken, default=0) + 1
        else:
            index_used = index
        size = self.shadow.subtree_size(src)

        def check(res):
            moved = self.shadow.move_subtree(src, target + (index_used,))
            return res == size and all(
                self.records[payload].matrix.entries() == self.shadow.matrix(p)
                for payload, p in moved
            )

        return "move", lambda: self.store.move_subtree(rec, ref, index=index), check

    def delete_op(self, path):
        rec = self.record_at(path)
        size = self.shadow.subtree_size(path)

        def check(res):
            for p in self.shadow.subtree(path):
                del self.records[self.shadow.payload[p]]
            self.shadow.remove_subtree(path)
            return res == size

        return "delete", lambda: self.store.delete_subtree(rec), check

    # -- CLI processes with their checks ----------------------------------

    def command(self, kind, args, expect):
        """An op running one CLI process; expect() gives the stdout lines
        and applies any mutation to the shadow."""
        self.serial += 1
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        trace_file = None
        if self.tracer is not None:
            trace_file = os.path.join(self.workdir, f"trace-{self.serial}.json")
            env["PERFBENCH_TRACE"] = trace_file
        argv = [sys.executable, LAUNCHER, *args]

        def call():
            return subprocess.run(argv, capture_output=True, text=True,
                                  cwd=self.workdir, env=env, timeout=120)

        def check(res):
            if trace_file is not None:
                self.collect_trace(kind, trace_file)
            want = "".join(line + "\n" for line in expect())
            return res.returncode == 0 and res.stdout == want

        return kind, call, check

    def collect_trace(self, kind, trace_file):
        with open(trace_file) as f:
            dumped = json.load(f)
        os.unlink(trace_file)
        self.tracer.merge(dumped)
        self.child_load_s += dumped["table"].get("persistence.load", [0, 0.0])[1]

    def encode_op(self, path):
        a, b, c, d = self.shadow.matrix(path)
        det = a * d - b * c
        lo, hi = (f"{a}/{c}", f"{a + b}/{c + d}") if det == -1 else (f"{a + b}/{c + d}", f"{a}/{c}")
        interval = f"({lo}, {hi}]" if det == -1 else f"[{lo}, {hi})"
        return self.command("encode", ["encode", "--path", dotted(path)], lambda: [
            f"path: {dotted(path)}", f"ratio: {a}/{c}", f"matrix: {a},{b},{c},{d}",
            f"interval: {interval}", f"depth: {len(path)}", f"determinant: {det}"])

    def cli_op(self, kind):
        """A mobius-tree process on self.file: ancestors, descendants, ls,
        stats or add."""
        rng, sh, f = self.rng, self.shadow, os.path.basename(self.file)
        if kind == "ancestors":
            p = self.random_node()
            return self.command(kind, [kind, f, "--node", dotted(p)],
                                lambda: [sh.record_line(p[:i]) for i in range(1, len(p))])
        if kind == "descendants":
            p = rng.choice(self.big) if rng.random() < 0.1 else self.scan_target(inner=True)
            return self.command(kind, [kind, f, "--node", dotted(p)],
                                lambda: [sh.record_line(q) for q in sh.ordered(sh.descendants(p))])
        if kind == "ls":
            p = () if rng.random() < 0.1 else self.random_node()
            return self.command(kind, [kind, f, "--node", dotted(p)],
                                lambda: [sh.record_line(q) for q in sh.ordered(sh.children(p))])
        if kind == "stats":
            return self.command(kind, [kind, f], lambda: [
                f"{k}: {v}" for k, v in zip(("nodes", "max_depth", "max_numerator_bits",
                                             "max_key_bytes"), sh.stats())])
        p = self.random_node()
        explicit = rng.random() < 0.5
        slot = sh.free_slot(p, rng) if explicit else sh.next_slot(p)
        payload = f"c{self.serial}"
        args = ["add", f, "--parent", dotted(p), "--payload", payload]
        if explicit:
            args += ["--index", str(slot)]

        def added():
            sh.add(p + (slot,), payload)
            return [sh.record_line(p + (slot,))]

        return self.command("add", args, added)

    # -- closing round trip ------------------------------------------------

    def matches_shadow(self, store) -> bool:
        shadow = self.shadow
        return len(store) == len(shadow) and all(
            rec.payload in shadow.path_of
            and rec.matrix.entries() == shadow.matrix(shadow.path_of[rec.payload])
            for rec in store
        )

    def epilogue(self):
        final = os.path.join(self.workdir, "final.mtree")
        loaded = {}

        def check_saved(res):
            self.final_bytes = os.path.getsize(final)
            return self.final_bytes > 0

        def check_loaded(store):
            loaded["store"] = store
            return self.matches_shadow(store)

        def check_stats(st):
            return (st.nodes, st.max_depth, st.max_numerator_bits, st.max_key_bytes) == self.shadow.stats()

        yield "save", lambda: self.store.save(final), check_saved
        yield "load", lambda: TreeStore.load(final), check_loaded
        yield "stats", lambda: loaded["store"].stats(), check_stats


class ForestWorkload(Workload):
    """Stores built from tests/oracles.py random_forest, payload = path."""

    def make_store(self):
        self.paths = random_forest(random.Random(self.seed), self.size["nodes"])
        self.store = build_store_from_paths(TreeStore, self.paths)

    def prepare(self):
        super().prepare()
        self.shadow = Shadow((p, dotted(p)) for p in self.paths)


class ReadMix(ForestWorkload):
    name = "read-mix"

    def setup(self):
        self.make_store()
        self.store.all_nodes()  # first index build

    BIG_EVERY = 100  # one descendants query in this many goes to a big subtree
    # ancestors, children and resolve go to a random node of a depth drawn
    # uniformly from DEPTHS, not to a random node of the forest, whose
    # median depth moves between 10 and 12 with the seed
    DEPTHS = range(5, 17)

    def prepare(self):
        super().prepare()
        self.big = closest_by_size(self.shadow, self.size["big"], 8)
        self.by_depth = {}
        for p in self.shadow.paths:
            self.by_depth.setdefault(len(p), []).append(p)
        self.depths = [d for d in self.DEPTHS if d in self.by_depth]

    def node_by_depth(self):
        return self.rng.choice(self.by_depth[self.rng.choice(self.depths)])

    def ops(self):
        rng = self.rng
        scans = 0
        while True:
            r = rng.random()
            if r < 0.40:
                yield self.ancestors_op(self.node_by_depth())
            elif r < 0.70:
                scans += 1
                big = scans % self.BIG_EVERY == 0
                yield self.descendants_op(rng.choice(self.big) if big else self.scan_target())
            elif r < 0.90:
                yield self.children_op(self.node_by_depth())
            else:
                yield self.resolve_op(self.node_by_depth())


class MutateQuery(ForestWorkload):
    name = "mutate-query"
    setup_reps = 9  # ~0.6 s each

    def setup(self):
        self.make_store()
        self.store.all_nodes()

    CLOSING_CLI = ("encode", "ls", "ancestors", "descendants", "add", "stats")

    def prepare(self):
        super().prepare()
        self.big = closest_by_size(self.shadow, self.size["big"], 8)

    def epilogue(self):
        """The common round trip, then one mobius-tree process of each of
        CLOSING_CLI on the saved file, so the CLI layer is measured in
        this workload too."""
        yield from super().epilogue()
        self.file = os.path.join(self.workdir, "final.mtree")
        for kind in self.CLOSING_CLI:
            op = self.encode_op(self.random_node()) if kind == "encode" else self.cli_op(kind)
            yield ("cli." + op[0],) + op[1:]

    # ancestors queries go to a random node of a depth drawn uniformly from
    # DEPTHS, found by rejection, because the depths of the forest move
    # with the seed and the cost of the query with them
    DEPTHS = range(5, 13)

    def node_by_depth(self):
        depth = self.rng.choice(self.DEPTHS)
        for _ in range(400):
            p = self.random_node()
            if len(p) == depth:
                return p
        return p

    def mutation(self):
        r = self.rng.random()
        if r < 0.60:
            self.serial += 1
            explicit = self.rng.random() < 0.5
            return self.insert_op(self.random_node(), f"m{self.serial}", explicit)
        src = self.small_subtree(self.size["max_moved"])
        if r < 0.80:
            return self.move_op(src, self.outside(src))
        return self.delete_op(src)

    def ops(self):
        while True:
            yield self.mutation()
            yield self.descendants_op(self.scan_target())
            yield self.ancestors_op(self.node_by_depth())


class DeepKeys(Workload):
    """Spines of first children: Fibonacci-growth keys, the worst case."""

    name = "deep-keys"
    setup_reps = 15  # ~0.3 s each

    def spine_paths(self):
        """(path, payload) of every node, spine k rooted at slot 2k+1 and
        every spine node given a leaf sibling."""
        length = self.size["length"]
        for k in range(self.size["spines"]):
            top = (2 * k + 1,)
            yield top, f"s{k}.0"
            yield (2 * k + 2,), f"l{k}.0"
            for j in range(1, length):
                base = top + (1,) * (j - 1)
                yield base + (1,), f"s{k}.{j}"
                yield base + (2,), f"l{k}.{j}"

    def setup(self):
        store = self.store = TreeStore()
        length = self.size["length"]
        for k in range(self.size["spines"]):
            cur = store.add_child("root", f"s{k}.0", index=2 * k + 1)
            store.add_child("root", f"l{k}.0", index=2 * k + 2)
            for j in range(1, length):
                nxt = store.add_child(cur, f"s{k}.{j}", index=1)
                store.add_child(cur, f"l{k}.{j}", index=2)
                cur = nxt
        store.all_nodes()

    def prepare(self):
        super().prepare()
        self.shadow = Shadow(self.spine_paths())
        self.pending = None  # a suffix moved away, to be moved back next
        self.turn = self.rng.random()

    GOLDEN = 0.6180339887498949

    def spine_node(self):
        """A spine node in the deep half, where keys are largest: a random
        spine, at a depth that steps through the deep half by the golden
        ratio, so the few hundred queries of a run cover it evenly
        whatever the seed."""
        length = self.size["length"]
        k = self.rng.randrange(self.size["spines"])
        self.turn = (self.turn + self.GOLDEN) % 1.0
        j = length // 2 + int(self.turn * (length - length // 2))
        return k, j, self.shadow.path_of[f"s{k}.{j}"]

    def move(self):
        """Move a spine suffix onto another spine at the same depth, then
        back to its own slot, so key sizes stay stationary."""
        if self.pending is not None:
            payload, home = self.pending
            self.pending = None
            src = self.shadow.path_of[payload]
            return self.move_op(src, self.shadow.path_of[home], index=1)
        k, j, src = self.spine_node()
        t = (k + 1 + self.rng.randrange(self.size["spines"] - 1)) % self.size["spines"]
        self.pending = (f"s{k}.{j}", f"s{k}.{j - 1}")
        return self.move_op(src, self.shadow.path_of[f"s{t}.{j - 1}"])

    def ops(self):
        """Rounds of one mutation (two inserts, then a move) and three
        descendants/ancestors pairs, so two in three descendants queries
        find the index already built."""
        while True:
            self.serial += 1
            if self.serial % 3:
                yield self.insert_op(self.spine_node()[2], f"a{self.serial}")
            else:
                yield self.move()
            for _ in range(3):
                yield self.descendants_op(self.spine_node()[2])
                yield self.ancestors_op(self.spine_node()[2])


WORKLOADS = {w.name: w for w in (ReadMix, MutateQuery, DeepKeys)}
