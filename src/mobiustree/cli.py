"""Command-line surface: conversions between the node representations
plus store manipulation with stable, scriptable text output.

Exit codes: 0 success, 2 usage error, 3 domain error (invalid encoding
or value), 4 store error.  Mutating commands rewrite the store file
atomically.
"""

from __future__ import annotations

import argparse
import os
import sys

from .exactmath import DomainError, Ratio, from_decimal, to_decimal
from .encoding import (
    MobiusMatrix,
    NestedInterval,
    Path,
    interval_to_matrix,
    matrix_to_interval,
    matrix_to_path,
    path_to_matrix,
    ratio_to_matrix,
)
from .store import ROOT, NodeRecord, StoreError, TreeStore, _parent_and_slot, escape_payload


def _slot(text: str) -> int:
    """argparse type of --index: a decimal int of any length.  The
    store rejects slots below 1 as a domain error."""
    try:
        return from_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid slot: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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


def _print_node_report(m: MobiusMatrix, out) -> None:
    path = matrix_to_path(m)
    label = "-" if m.is_identity else str(Ratio(m.a, m.c))
    print(f"path: {path}", file=out)
    print(f"ratio: {label}", file=out)
    print(f"matrix: {m}", file=out)
    print(f"interval: {matrix_to_interval(m)}", file=out)
    print(f"depth: {len(path)}", file=out)
    print(f"determinant: {m.det}", file=out)


def _record_line(rec: NodeRecord) -> str:
    m = rec.matrix
    return f"{matrix_to_path(m)}\t{Ratio(m.a, m.c)}\t{escape_payload(rec.payload)}"


def _cmd_encode(args, out) -> int:
    if args.path is not None:
        m = path_to_matrix(Path.parse(args.path))
    elif args.ratio is not None:
        m = ratio_to_matrix(Ratio.parse(args.ratio))
    else:
        m = MobiusMatrix.parse(args.matrix)
    _print_node_report(m, out)
    return 0


def _cmd_decode(args, out) -> int:
    m = interval_to_matrix(NestedInterval.parse(args.interval))
    path = matrix_to_path(m)
    label = "-" if m.is_identity else str(Ratio(m.a, m.c))
    print(f"matrix: {m}", file=out)
    print(f"path: {path}", file=out)
    print(f"ratio: {label}", file=out)
    return 0


def _load(args) -> TreeStore:
    return TreeStore.load(args.file)


def _cmd_init(args, out) -> int:
    if os.path.exists(args.file):
        raise StoreError(f"{args.file} already exists")
    TreeStore().save(args.file)
    return 0


def _cmd_add(args, out) -> int:
    store = _load(args)
    rec = store.add_child(args.parent, args.payload, index=args.index)
    store.save(args.file)
    print(_record_line(rec), file=out)
    return 0


def _cmd_mv(args, out) -> int:
    store = _load(args)
    src = store.resolve(args.node)
    count = store.move_subtree(src, args.to, index=args.index)
    store.save(args.file)
    print(f"moved: {count}", file=out)
    return 0


def _cmd_rm(args, out) -> int:
    store = _load(args)
    count = store.delete_subtree(store.resolve(args.node))
    store.save(args.file)
    print(f"removed: {count}", file=out)
    return 0


def _cmd_ls(args, out) -> int:
    store = _load(args)
    if args.node != ROOT:
        store.resolve(args.node)  # missing node is an error even if leaf
    for rec in store.children(args.node):
        print(_record_line(rec), file=out)
    return 0


def _cmd_tree(args, out) -> int:
    store = _load(args)
    # explicit stack: store depth is unbounded, recursion is not
    stack = [(rec, 0) for rec in reversed(store.children(ROOT))]
    while stack:
        rec, level = stack.pop()
        m = rec.matrix
        slot = _parent_and_slot(m)[1]
        print(f"{'  ' * level}{to_decimal(slot)}\t{Ratio(m.a, m.c)}\t{escape_payload(rec.payload)}", file=out)
        stack.extend((kid, level + 1) for kid in reversed(store.children(rec)))
    return 0


def _cmd_ancestors(args, out) -> int:
    store = _load(args)
    for rec in store.ancestors(store.resolve(args.node)):
        print(_record_line(rec), file=out)
    return 0


def _cmd_descendants(args, out) -> int:
    store = _load(args)
    for rec in store.descendants(store.resolve(args.node)):
        print(_record_line(rec), file=out)
    return 0


def _cmd_stats(args, out) -> int:
    st = _load(args).stats()
    print(f"nodes: {st.nodes}", file=out)
    print(f"max_depth: {st.max_depth}", file=out)
    print(f"max_numerator_bits: {st.max_numerator_bits}", file=out)
    print(f"max_key_bytes: {st.max_key_bytes}", file=out)
    return 0


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except StoreError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
