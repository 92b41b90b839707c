"""TreeStore.load on corrupted store files.

Each file is a small valid store file with random damage: truncation,
swapped, dropped or repeated lines, huge, negative, malformed or
off-by-one matrix entries, bad escapes, bytes that are not UTF-8, stray
separators, lines replaced by the identity matrix or a new node.  An
oracle reads the same bytes with Euclid's algorithm and tuple matrix
products alone, and decides what the file holds.  The loader must agree:
either it loads exactly that store, which saves to the bytes of a
from-scratch rebuild and round-trips byte-identically, or it raises
StoreError (LoadError included) and nothing else.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mobiustree.exactmath import to_decimal
from mobiustree.store import StoreError, TreeStore

from oracles import TreeModel, build_store_from_paths, check_store, primitive_product, random_forest

HEADER = "mobius-tree v1"


def big_int(digits):
    """int() of a decimal string of any length, in chunks under
    CPython's int/str conversion limit."""
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def oracle_path(m):
    """The path whose primitive product is m, or None: Euclid on a/c
    gives the canonical continued fraction, and the path is it or its
    variant ending in 1."""
    a, b, c, d = m
    if c == 0 or a * d - b * c not in (1, -1):
        return None
    comps, x, y = [], a, c
    while y:
        comps.append(x // y)
        x, y = y, x % y
    for p in (comps, comps[:-1] + [comps[-1] - 1, 1]):
        if min(p) >= 1 and primitive_product(p) == m:
            return tuple(p)
    return None


def oracle_unescape(text):
    out, chars = [], iter(text)
    for ch in chars:
        if ch == "\\":
            ch = {"t": "\t", "n": "\n", "\\": "\\"}.get(next(chars, ""))
            if ch is None:
                return None
        out.append(ch)
    return "".join(out)


def oracle_load(raw):
    """{path: payload} of a valid store file, else None."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return None
    held = {}
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 5:
            return None
        if not all(f.isascii() and f.isdigit() for f in fields[:4]):
            return None
        path = oracle_path(tuple(map(big_int, fields[:4])))
        payload = oracle_unescape(fields[4])
        if path is None or path in held or payload is None:
            return None
        held[path] = payload
    if any(len(p) > 1 and p[:-1] not in held for p in held):
        return None
    return held


def base_file(tmp_path):
    """A valid 40-node store file whose payloads need every escape."""
    paths = random_forest(random.Random(67), 40)
    store = build_store_from_paths(TreeStore, paths)
    for i, rec in enumerate(store):
        rec.payload += ["", "\t", "\n", "\\", "\r", "é"][i % 6]
    f = tmp_path / "base.db"
    store.save(f)
    return f.read_bytes()


# one edit to the file: its kind, where it goes (a fraction of the
# lines or bytes), and what it writes
EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("swap"), st.floats(0, 1), st.floats(0, 1)),
    st.tuples(st.just("drop"), st.floats(0, 1)),
    st.tuples(st.just("repeat"), st.floats(0, 1)),
    st.tuples(
        st.just("entry"),
        st.floats(0, 1),
        st.integers(0, 3),
        st.sampled_from(["huge", "zeros", "+1", "-1", "-5", "", "x", "0", "1", "2", "٣", " 3"]),
    ),
    st.tuples(st.just("payload"), st.floats(0, 1), st.sampled_from(["\\q", "\\", "\\\\", "\\t"])),
    st.tuples(
        st.just("line"),
        st.floats(0, 1),
        st.sampled_from(["1\t0\t0\t1\tid", "9\t1\t1\t0\tnine", "", HEADER, "3\t1\t1\t0"]),
    ),
    st.tuples(
        st.just("bytes"),
        st.floats(0, 1),
        st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\t", b"\n", b"\r", b"\x00"]),
    ),
)


def apply(raw, edit, huge):
    kind, where, *rest = edit
    lines = raw.split(b"\n")
    i = int(where * (len(lines) - 1))
    if kind == "truncate":
        return raw[: int(where * len(raw))]
    if kind == "swap":
        j = int(rest[0] * (len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "entry":
        fields = lines[i].split(b"\t")
        k, value = rest
        if value in ("+1", "-1"):  # a near-miss: the field's number nudged by one
            if k < len(fields) and fields[k].isdigit():
                fields[k] = to_decimal(big_int(fields[k].decode()) + int(value)).encode()
        elif k < len(fields):
            if value == "zeros":  # the same number, with leading zeros
                value = "00" + fields[k].decode("utf-8", "replace")
            fields[k] = (huge if value == "huge" else value).encode()
        lines[i] = b"\t".join(fields)
    elif kind == "payload":
        lines[i] += rest[0].encode()
    elif kind == "line":
        lines[i] = rest[0].encode()
    else:
        return raw[: int(where * len(raw))] + rest[0] + raw[int(where * len(raw)) :]
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(EDITS, min_size=1, max_size=3), st.data())
def test_damaged_files_load_exactly_or_raise_store_error(tmp_path, edits, data):
    raw = base_file(tmp_path)
    huge = "9" * data.draw(st.integers(20, 5000), label="huge digits")
    for edit in edits:
        raw = apply(raw, edit, huge)
    f = tmp_path / "fuzz.db"
    f.write_bytes(raw)
    want = oracle_load(raw)
    try:
        store = TreeStore.load(f)
    except StoreError:
        assert want is None, "a valid file was rejected"
        return
    assert want is not None, "an invalid file was loaded"
    # the loaded store, one rebuilt from scratch and a reload of the
    # first one's save all hold the model and save its bytes
    model, a = TreeModel(want), tmp_path / "a.db"
    check_store(store, model, a, ())
    check_store(model.build(TreeStore()), model, tmp_path / "b.db", ())
    check_store(TreeStore.load(a), model, tmp_path / "c.db", ())


@pytest.mark.parametrize(
    "edit, loads",
    [
        (("swap", 0.3, 0.6), True),  # the loader needs no order
        (("entry", 0.5, 2, "zeros"), True),  # leading zeros read as the number
        (("repeat", 0.5), False),  # duplicate matrix
        (("drop", 0.0), False),  # the header
        (("payload", 0.5, "\\q"), False),
        (("bytes", 0.5, b"\xff"), False),
        (("entry", 0.5, 0, "huge"), False),
        (("entry", 0.5, 1, "-5"), False),
        (("entry", 0.5, 3, "+1"), False),  # a near-miss: determinant off by a
        (("line", 0.5, "1\t0\t0\t1\tid"), False),  # the identity
    ],
)
def test_each_kind_of_damage(tmp_path, edit, loads):
    """The oracle itself: each kind of edit, on a line where its outcome
    is known."""
    raw = apply(base_file(tmp_path), edit, "9" * 5000)
    assert (oracle_load(raw) is not None) == loads
    f = tmp_path / "fuzz.db"
    f.write_bytes(raw)
    if loads:
        TreeStore.load(f)
    else:
        with pytest.raises(StoreError):
            TreeStore.load(f)
