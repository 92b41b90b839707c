"""Command-line surface: conversions between the node representations
plus store manipulation with stable, scriptable text output.

Exit codes: 0 success, 2 usage error, 3 domain error (invalid encoding
or value), 4 store error.  A stdout whose reader has gone ends the
command with 0 and no message, after any change is saved; any other
failure to write stdout, a line its encoding cannot hold included,
exits 4.  Error messages quote a file name, and a usage error any
argument, by an excerpt.  Mutating commands rewrite the store file
atomically, each holding an exclusive lock from load to save.

Each command returns its output lines, and _run alone writes them.
A listed record's path is its parent's path plus its slot: the
record's parent references are climbed to the nearest record whose
path is already known, the root's at the furthest, so records may be
listed in any order.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import gc
import os
import re
import sys
from typing import Iterable, Iterator

from .exactmath import DomainError, Ratio, _excerpt, _unchecked_ratio, from_decimal, to_decimal
from .encoding import (
    MobiusMatrix,
    NestedInterval,
    Path,
    _parent_and_slot,
    interval_to_matrix,
    matrix_to_interval,
    matrix_to_path,
    path_to_matrix,
    ratio_to_matrix,
)
from .store import ROOT, NodeRecord, StoreError, TreeStore, _os_store_error, escape_payload

_SLOT_RE = re.compile(r"-?[0-9]+")


def _slot(text: str) -> int:
    """argparse type of --index: ASCII decimal digits of any length,
    with an optional "-".  The store rejects slots below 1 as a domain
    error."""
    if _SLOT_RE.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid slot: {_excerpt(text)!r}")
    return from_decimal(text)


class _UsageError(Exception):
    """A usage error, raised by the parser that found it, with argparse's
    message for it, where argparse would print the message and exit."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, subcommand parsers included, whose usage
    errors _run reports, so that the arguments a message quotes are
    excerpted: argparse quotes an unknown command or argument whole."""

    def error(self, message):
        raise _UsageError(self, message)


def _excerpt_args(message: str, argv: list[str]) -> str:
    """message with each argument it quotes cut to an excerpt: argparse
    quotes an argument whole, its part after "=", or a short option's
    part after the option letter, as is or by repr."""
    for arg in sorted(argv, key=len, reverse=True):
        for value in (arg, arg.partition("=")[2], arg[2:]):
            short = _excerpt(value)
            if short != value:
                message = message.replace(repr(value), repr(short)).replace(value, short)
    return message


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mobius-tree",
        description="Tree encoding with rational labels, 2x2 matrices and "
        "nested intervals, plus a file-backed tree store.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    enc = sub.add_parser("encode", help="print every representation of a node")
    g = enc.add_mutually_exclusive_group(required=True)
    g.add_argument("--path", help='materialized path, e.g. "3.12.5.1.21" or "root"')
    g.add_argument("--ratio", help='rational label, e.g. "4913/1594"')
    g.add_argument("--matrix", help='row-major matrix, e.g. "4913,225,1594,73"')

    dec = sub.add_parser("decode", help="recover a node from its interval")
    dec.add_argument("--interval", required=True, help='e.g. "(4913/1594, 5138/1667]"')

    ini = sub.add_parser("init", help="create an empty store file")
    ini.add_argument("file")

    add = sub.add_parser("add", help="insert a child node")
    add.add_argument("file")
    add.add_argument("--parent", required=True, help='parent path or "root"')
    add.add_argument("--index", type=_slot, help="child slot (default: next free)")
    add.add_argument("--payload", default="", help="payload text (default empty)")

    mv = sub.add_parser("mv", help="relocate a subtree")
    mv.add_argument("file")
    mv.add_argument("--node", required=True, help="path of the subtree root")
    mv.add_argument("--to", required=True, help='new parent path or "root"')
    mv.add_argument("--index", type=_slot, help="child slot (default: next free)")

    rm = sub.add_parser("rm", help="delete a subtree")
    rm.add_argument("file")
    rm.add_argument("--node", required=True)

    ls = sub.add_parser("ls", help="list immediate children")
    ls.add_argument("file")
    ls.add_argument("--node", default=ROOT)

    tr = sub.add_parser("tree", help="print the whole store as an indented tree")
    tr.add_argument("file")

    anc = sub.add_parser("ancestors", help="list the ancestor chain, root side first")
    anc.add_argument("file")
    anc.add_argument("--node", required=True)

    desc = sub.add_parser("descendants", help="list every descendant")
    desc.add_argument("file")
    desc.add_argument("--node", required=True)

    st = sub.add_parser("stats", help="store size and key-growth summary")
    st.add_argument("file")
    return p


def _node_report(m: MobiusMatrix) -> list[str]:
    path = matrix_to_path(m)
    label = "-" if m.is_identity else str(_unchecked_ratio(m.a, m.c))
    return [
        f"path: {path}",
        f"ratio: {label}",
        f"matrix: {m}",
        f"interval: {matrix_to_interval(m)}",
        f"depth: {len(path)}",
        f"determinant: {m.det}",
    ]


def _record_line(path: str, rec: NodeRecord) -> str:
    """path, label and escaped payload, tab-separated.  det +-1 puts a/c
    in lowest terms, so the label is printed as Ratio would print it,
    with no gcd."""
    a, _, c, _ = rec._key
    return f"{path}\t{to_decimal(a)}/{to_decimal(c)}\t{escape_payload(rec.payload)}"


def _slot_of(rec: NodeRecord) -> str:
    return to_decimal(_parent_and_slot(*rec._key)[1])


def _path_lines(store: TreeStore, records: Iterable[NodeRecord]) -> Iterator[str]:
    """Each record's line, with its parent's path plus its slot as its
    path.  The record's parent references are climbed to the nearest
    record whose path is known, the root's "" at the furthest, and each
    record passed keeps its path, so records may come in any order and
    no path is decoded from scratch."""
    path_of = {store._root: ""}
    for rec in records:
        climbed = []
        while rec not in path_of:
            climbed.append(rec)
            rec = rec._parent
        path = path_of[rec]
        for rec in reversed(climbed):
            slot = _slot_of(rec)
            path = path_of[rec] = f"{path}.{slot}" if path else slot
        yield _record_line(path, rec)


def _cmd_encode(args) -> list[str]:
    if args.path is not None:
        m = path_to_matrix(Path.parse(args.path))
    elif args.ratio is not None:
        m = ratio_to_matrix(Ratio.parse(args.ratio))
    else:
        m = MobiusMatrix.parse(args.matrix)
    return _node_report(m)


def _cmd_decode(args) -> list[str]:
    m = interval_to_matrix(NestedInterval.parse(args.interval))
    path = matrix_to_path(m)
    label = "-" if m.is_identity else str(_unchecked_ratio(m.a, m.c))
    return [f"matrix: {m}", f"path: {path}", f"ratio: {label}"]


def _cmd_init(args) -> list[str]:
    with _write_lock(args.file):
        if os.path.exists(args.file):
            raise StoreError(f"{_excerpt(args.file)} already exists")
        TreeStore().save(args.file)
    return []


@contextlib.contextmanager
def _write_lock(file: str):
    """Hold an exclusive flock on the sidecar "<file>.lock", so that
    concurrent mutating commands on one store take turns from load to
    save and none loses another's update.  The store file itself is
    replaced by each save, so it cannot carry the lock.  The sidecar
    sits beside the file that symlinks resolve to, as the save does, so
    every name of one store takes one lock."""
    try:
        fd = os.open(os.path.realpath(file) + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            os.close(fd)
            raise
    except OSError as e:
        raise _os_store_error("cannot lock", file, e) from e
    try:
        yield
    finally:
        os.close(fd)  # releases the lock


def _cmd_add(args) -> Iterator[str]:
    with _write_lock(args.file):
        store = TreeStore.load(args.file)
        rec = store.add_child(args.parent, args.payload, index=args.index)
        store.save(args.file)
    return _path_lines(store, [rec])


def _cmd_mv(args) -> list[str]:
    with _write_lock(args.file):
        store = TreeStore.load(args.file)
        src = store.resolve(args.node)
        count = store.move_subtree(src, args.to, index=args.index)
        store.save(args.file)
    return [f"moved: {count}"]


def _cmd_rm(args) -> list[str]:
    with _write_lock(args.file):
        store = TreeStore.load(args.file)
        count = store.delete_subtree(store.resolve(args.node))
        store.save(args.file)
    return [f"removed: {count}"]


def _cmd_ls(args) -> Iterator[str]:
    store = TreeStore.load(args.file)
    return _path_lines(store, store.children(args.node))


def _cmd_tree(args) -> Iterator[str]:
    store = TreeStore.load(args.file)
    # explicit stack: store depth is unbounded, recursion is not
    stack = [(rec, 0) for rec in reversed(store.children(ROOT))]
    while stack:
        rec, level = stack.pop()
        yield _record_line("  " * level + _slot_of(rec), rec)
        stack.extend((kid, level + 1) for kid in reversed(store.children(rec)))


def _cmd_ancestors(args) -> Iterator[str]:
    store = TreeStore.load(args.file)
    return _path_lines(store, store.ancestors(store.resolve(args.node)))


def _cmd_descendants(args) -> Iterator[str]:
    store = TreeStore.load(args.file)
    return _path_lines(store, store.descendants(store.resolve(args.node)))


def _cmd_stats(args) -> list[str]:
    st = TreeStore.load(args.file).stats()
    return [
        f"nodes: {st.nodes}",
        f"max_depth: {st.max_depth}",
        f"max_numerator_bits: {st.max_numerator_bits}",
        f"max_key_bytes: {st.max_key_bytes}",
    ]


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "init": _cmd_init,
    "add": _cmd_add,
    "mv": _cmd_mv,
    "rm": _cmd_rm,
    "ls": _cmd_ls,
    "tree": _cmd_tree,
    "ancestors": _cmd_ancestors,
    "descendants": _cmd_descendants,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.  The cyclic garbage
    collector is off while it runs: a store's records form no cycles, so
    reference counting frees them, and a load would otherwise set off
    collections that rescan the records it has made.  The collector's
    previous state is restored on return."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    """Parse argv, run its command and write the lines it returns: the
    one place that writes stdout or maps a failure to an exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        parser, message = e.args
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {_excerpt_args(message, argv)}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return e.code if isinstance(e.code, int) else 2
    try:
        for line in _COMMANDS[args.command](args):
            print(line)
        sys.stdout.flush()
        return 0
    except (DomainError, StoreError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, DomainError) else 4
    except OSError as e:
        # the store turns its own I/O failures into StoreError, so this
        # is stdout's.  What it still buffers goes to os.devnull, so the
        # interpreter's closing flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(e, BrokenPipeError):  # the reader wants no more
            return 0
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 4
    except UnicodeEncodeError as e:
        # a line stdout's encoding cannot hold: the store refuses any
        # payload it could not save as UTF-8, so no command raises this
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
