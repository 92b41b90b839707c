import difflib
import errno
import gc
import os
import stat
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from mobiustree.cli import main
from oracles import fib, primitive_product

SRC = FsPath(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = FsPath(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEncodeDecode:
    def test_encode_path(self, capsys):
        code, out, _ = run(capsys, "encode", "--path", "3.12.5.1.21")
        assert code == 0
        assert out == (
            "path: 3.12.5.1.21\n"
            "ratio: 4913/1594\n"
            "matrix: 4913,225,1594,73\n"
            "interval: (4913/1594, 5138/1667]\n"
            "depth: 5\n"
            "determinant: -1\n"
        )

    def test_encode_ratio_unit(self, capsys):
        code, out, _ = run(capsys, "encode", "--ratio", "1/1")
        assert code == 0
        assert "path: 1\n" in out
        assert "matrix: 1,1,1,0\n" in out

    def test_encode_matrix(self, capsys):
        code, out, _ = run(capsys, "encode", "--matrix", "29,4,7,1")
        assert code == 0
        assert "path: 4.7\n" in out

    def test_encode_root(self, capsys):
        code, out, _ = run(capsys, "encode", "--path", "root")
        assert code == 0
        assert out.startswith("path: root\nratio: -\nmatrix: 1,0,0,1\ninterval: [1/1, inf)\n")

    def test_encode_non_canonical_path_is_preserved(self, capsys):
        code, out, _ = run(capsys, "encode", "--path", "3.12.5.1")
        assert code == 0
        assert "path: 3.12.5.1\n" in out
        assert "matrix: 225,188,73,61\n" in out
        assert "determinant: 1\n" in out

    def test_decode(self, capsys):
        code, out, _ = run(capsys, "decode", "--interval", "(4913/1594, 5138/1667]")
        assert code == 0
        assert out == "matrix: 4913,225,1594,73\npath: 3.12.5.1.21\nratio: 4913/1594\n"

    def test_decode_root(self, capsys):
        code, out, _ = run(capsys, "decode", "--interval", "[1/1, inf)")
        assert code == 0
        assert out == "matrix: 1,0,0,1\npath: root\nratio: -\n"

    def test_decode_shallow(self, capsys):
        code, out, _ = run(capsys, "decode", "--interval", "[40/13, 37/12)")
        assert code == 0
        assert "path: 3.12\n" in out

    def test_encode_decode_closure(self, capsys):
        code, out, _ = run(capsys, "encode", "--path", "3.12.5.1.21")
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        code, out2, _ = run(capsys, "decode", "--interval", fields["interval"])
        assert code == 0
        assert f"matrix: {fields['matrix']}\n" in out2
        for key in ("path", "ratio", "matrix"):
            code, out3, _ = run(capsys, "encode", f"--{key}", fields[key])
            assert code == 0
            assert out3 == out

    def test_domain_errors_exit_3(self, capsys):
        for argv in (
            ["encode", "--path", "3.0.5"],
            ["encode", "--ratio", "2/3"],
            ["encode", "--matrix", "2,0,2,0"],
            ["decode", "--interval", "(1/2, 2/3]"],
            ["decode", "--interval", "oops"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == ""
            assert err.startswith("error: ")

    def test_encode_past_the_int_str_limit(self, capsys):
        from mobiustree import MobiusMatrix, Path, path_to_matrix

        code, out, _ = run(capsys, "encode", "--path", "9" * 5000)
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["path"] == "9" * 5000
        m = MobiusMatrix.parse(fields["matrix"])
        assert path_to_matrix(Path.parse(fields["path"])) == m
        code, out2, _ = run(capsys, "encode", "--matrix", fields["matrix"])
        assert (code, out2) == (0, out)

    @pytest.mark.parametrize(
        "matrix",
        ["1" + "0" * 100_000 + ",0,0,1", "1,0," + "9" * 100_000 + ",1"],
        ids=["determinant", "ordering"],
    )
    def test_huge_matrix_error_is_short(self, capsys, matrix):
        code, out, err = run(capsys, "encode", "--matrix", matrix)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err) < 300

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "encode")[0] == 2  # no input form
        assert run(capsys, "encode", "--path", "1", "--ratio", "1/1")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "encode", "--bogus", "1")[0] == 2


@pytest.fixture
def store_file(tmp_path):
    f = str(tmp_path / "t.db")
    save_example_store(f)
    return f


class TestStoreCommands:
    def test_init_refuses_overwrite(self, tmp_path, capsys):
        f = str(tmp_path / "x.db")
        assert main(["init", f]) == 0
        code, _, err = run(capsys, "init", f)
        assert code == 4
        assert "exists" in err

    def test_init_waits_for_the_write_lock(self, tmp_path, capsys):
        """init checks for the file and saves it under the lock that add,
        mv and rm hold, so it cannot replace a store written meanwhile."""
        import fcntl
        import threading
        import time

        from mobiustree import TreeStore

        f = tmp_path / "x.db"
        codes = []
        init = threading.Thread(target=lambda: codes.append(main(["init", str(f)])))
        fd = os.open(str(f) + ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            init.start()
            time.sleep(0.2)
            assert not f.exists()
            st = TreeStore()
            st.add_child("root", "first")
            st.save(f)
            before = f.read_bytes()
        finally:
            os.close(fd)  # releases the lock
        init.join(timeout=10)
        assert not init.is_alive()
        assert codes == [4]
        assert "already exists" in capsys.readouterr().err
        assert f.read_bytes() == before

    def test_add_through_a_symlink(self, tmp_path, capsys):
        """A store named through a symlink is saved into the file the
        link names and the link stays; the write lock sits beside that
        file, so both names of the store take turns."""
        import fcntl
        import threading
        import time

        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "s.db"
        link = tmp_path / "link.db"
        assert main(["init", str(real)]) == 0
        link.symlink_to("real/s.db")
        before = real.read_bytes()
        codes = []
        add = threading.Thread(
            target=lambda: codes.append(main(["add", str(link), "--parent", "root", "--payload", "x"]))
        )
        fd = os.open(str(real) + ".lock", os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            add.start()
            time.sleep(0.2)
            assert add.is_alive()
            assert real.read_bytes() == before
        finally:
            os.close(fd)  # releases the lock
        add.join(timeout=10)
        assert not add.is_alive()
        assert codes == [0]
        assert link.is_symlink()
        assert not (tmp_path / "link.db.lock").exists()
        capsys.readouterr()
        assert run(capsys, "ls", str(real)) == (0, "1\t1/1\tx\n", "")

    def test_add_prints_record(self, tmp_path, capsys):
        f = str(tmp_path / "x.db")
        main(["init", f])
        capsys.readouterr()
        code, out, _ = run(capsys, "add", f, "--parent", "root", "--payload", "hi")
        assert code == 0
        assert out == "1\t1/1\thi\n"

    def test_ancestors_output(self, store_file, capsys):
        code, out, _ = run(capsys, "ancestors", store_file, "--node", "3.12.5.1.21")
        assert code == 0
        assert out == (
            "3\t3/1\tthree\n"
            "3.12\t37/12\tp12\n"
            "3.12.5\t188/61\tp5\n"
            "3.12.5.1\t225/73\tp1\n"
        )

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["add", "{f}", "--parent", "root", "--index", "-" + "9" * 100_000], 3),
            (["add", "{f}", "--parent", "root", "--index", "1x" + "9" * 100_000], 2),
            (["add", "{f}", "--parent", ".".join(["1"] * 50_000)], 4),
            (["ancestors", "{f}", "--node", ".".join(["1"] * 50_000)], 4),
            (["encode", "--ratio", "1" * 100_000 + "/x"], 3),
            (["encode", "--ratio", "1/" + "9" * 100_000], 3),
            (["encode", "--path", "1." * 50_000 + "x"], 3),
            (["encode", "--matrix", "1" * 100_000 + ",x"], 3),
            (["decode", "--interval", "(" + "9" * 100_000 + "/1, 1/1]"], 3),
            (["decode", "--interval", "(1/1, " + "9" * 100_000 + "/2]"], 3),
            (["decode", "--interval", "x" * 100_000], 3),
            (["decode", "--interval", "(" + "," * 100_000 + ")"], 3),
            (["init", "x" * 100_000], 4),
            (["add", "x" * 100_000, "--parent", "root"], 4),
            (["ls", "x" * 100_000], 4),
            (["stats", "x" * 100_000], 4),
            (["x" * 100_000], 2),
            (["encode", "--path", "1", "1" * 100_000], 2),
            (["encode", "--path", "1", "--bogus" + "x" * 100_000], 2),
            (["encode", "--help=" + "x" * 100_000], 2),
            (["encode", "-h" + "x" * 100_000], 2),
        ],
        ids=[
            "add-index-below-1",
            "add-index-not-digits",
            "add-missing-parent",
            "ancestors-missing-node",
            "ratio-text",
            "ratio-not-a-label",
            "path-text",
            "matrix-text",
            "interval-ends-reversed",
            "not-an-encoding-interval",
            "interval-text",
            "interval-commas",
            "init-file-name",
            "add-file-name",
            "ls-file-name",
            "stats-file-name",
            "unknown-command",
            "unrecognized-argument",
            "unknown-option",
            "option-value-after-equals",
            "short-option-value",
        ],
    )
    def test_huge_argument_error_is_short(self, store_file, capsys, argv, want):
        """A huge bad value keeps the command's exit code, is quoted by
        an excerpt, and leaves the store as it was."""
        before = FsPath(store_file).read_bytes()
        code, out, err = run(capsys, *(a.replace("{f}", store_file) for a in argv))
        assert (code, out) == (want, "")
        assert len(err) < 300
        if want == 2:  # argparse's usage line, then its message
            assert err.startswith("usage: mobius-tree")
        assert FsPath(store_file).read_bytes() == before

    def test_ls_leaf_is_empty_success(self, store_file, capsys):
        code, out, _ = run(capsys, "ls", store_file, "--node", "3.12.5.1.21")
        assert code == 0
        assert out == ""

    def test_ls_missing_node_fails(self, store_file, capsys):
        code, _, err = run(capsys, "ls", store_file, "--node", "8")
        assert code == 4
        assert "no node" in err
        code, out, _ = run(capsys, "ls", store_file, "--node", "9.9")
        assert (code, out) == (4, "")

    def test_a_missing_node_is_quoted_alike(self, store_file, capsys):
        """Every --node that must name a record is resolved one way, so
        each command quotes the caller's own text."""
        for argv in (["ancestors"], ["descendants"], ["rm"], ["mv", "--to", "root"]):
            code, out, err = run(capsys, argv[0], store_file, "--node", "09.9", *argv[1:])
            assert (code, out, err) == (4, "", "error: no node at 09.9\n"), argv

    def test_ls_empty_node_is_the_root(self, store_file, capsys):
        code, out, _ = run(capsys, "ls", store_file, "--node", "")
        assert code == 0
        assert out == run(capsys, "ls", store_file, "--node", "root")[1]
        assert out == "3\t3/1\tthree\n4\t4/1\tfour\n"

    def test_ls_root(self, store_file, capsys):
        code, out, _ = run(capsys, "ls", store_file)
        assert code == 0
        assert out == "3\t3/1\tthree\n4\t4/1\tfour\n"

    def test_descendants(self, store_file, capsys):
        code, out, _ = run(capsys, "descendants", store_file, "--node", "3.12")
        assert code == 0
        lines = out.splitlines()
        assert [l.split("\t")[0] for l in lines] == ["3.12.5", "3.12.5.1", "3.12.5.1.21"]

    def test_descendants_paths_from_parent_references(self, tmp_path, capsys, monkeypatch):
        """descendants prints the slice in the Fraction oracle's order,
        each path built from its parent's, with no walk of the child
        slots.  2.3 has det +1, so its slot-1 child 2.3.1, which has
        children of its own, sorts just before it."""
        from mobiustree import TreeStore
        from oracles import TreeModel, dotted

        paths = [(2,), (2, 3), (2, 3, 1), (2, 3, 1, 1), (2, 3, 1, 4), (2, 3, 2)]
        model = TreeModel({p: dotted(p) for p in paths})
        f = str(tmp_path / "x.db")
        model.build(TreeStore()).save(f)

        def no_walk(*args):
            raise AssertionError("children() called")

        monkeypatch.setattr(TreeStore, "children", no_walk)
        for node in [(2,), (2, 3), (2, 3, 1)]:
            code, out, _ = run(capsys, "descendants", f, "--node", dotted(node))
            assert (code, out) == (0, model.lines(model.descendants(node)))

    def test_tree(self, store_file, capsys):
        code, out, _ = run(capsys, "tree", store_file)
        assert code == 0
        assert out == (
            "3\t3/1\tthree\n"
            "  12\t37/12\tp12\n"
            "    5\t188/61\tp5\n"
            "      1\t225/73\tp1\n"
            "        21\t4913/1594\tdeep\n"
            "4\t4/1\tfour\n"
            "  7\t29/7\tp7\n"
        )

    def test_mv_then_encode(self, store_file, capsys):
        code, out, _ = run(capsys, "mv", store_file, "--node", "3.12.5", "--to", "4.7", "--index", "5")
        assert code == 0
        assert out == "moved: 3\n"
        code, out, _ = run(capsys, "ancestors", store_file, "--node", "4.7.5.1.21")
        assert code == 0
        assert out.splitlines()[-1].startswith("4.7.5.1\t")
        code, out, _ = run(capsys, "encode", "--path", "4.7.5.1.21")
        assert "matrix: 3887,178,939,43\n" in out

    def test_mv_cycle_exits_4(self, store_file, capsys):
        code, _, err = run(capsys, "mv", store_file, "--node", "3", "--to", "3.12")
        assert code == 4
        assert "cannot move" in err

    def test_rm(self, store_file, capsys):
        code, out, _ = run(capsys, "rm", store_file, "--node", "3.12")
        assert code == 0
        assert out == "removed: 4\n"
        code, out, _ = run(capsys, "ls", store_file, "--node", "3")
        assert out == ""

    def test_stats(self, store_file, capsys):
        code, out, _ = run(capsys, "stats", store_file)
        assert code == 0
        assert out == (
            "nodes: 7\n"
            "max_depth: 5\n"
            "max_numerator_bits: 13\n"
            "max_key_bytes: 16\n"
        )

    def test_missing_store_file_exits_4(self, tmp_path, capsys):
        code, _, err = run(capsys, "ls", str(tmp_path / "nope.db"))
        assert code == 4
        # a mutating command cannot even make its lock file here
        code, _, err = run(capsys, "add", str(tmp_path / "no-dir" / "nope.db"), "--parent", "root")
        assert code == 4 and err.startswith("error: cannot lock ")

    def test_mutations_persist(self, store_file, capsys):
        run(capsys, "add", store_file, "--parent", "4.7", "--payload", "kid")
        code, out, _ = run(capsys, "ls", store_file, "--node", "4.7")
        assert out == "4.7.1\t33/8\tkid\n"

    def test_payloads_with_carriage_returns(self, tmp_path, capsys):
        f = str(tmp_path / "x.db")
        main(["init", f])
        for payload in ["a\rb", "x\r", "\r\n"]:
            assert main(["add", f, "--parent", "root", "--payload", payload]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "ls", f)
        assert code == 0
        assert out == "1\t1/1\ta\rb\n2\t2/1\tx\r\n3\t3/1\t\r\\n\n"

    def test_non_utf8_payload_exits_3(self, store_file, capsys):
        import os
        import pathlib

        before = pathlib.Path(store_file).read_bytes()
        # the str Python makes of the argument bytes a\xffb
        payload = os.fsdecode(b"a\xffb")
        code, _, err = run(capsys, "add", store_file, "--parent", "root", "--payload", payload)
        assert code == 3
        assert "UTF-8" in err
        assert pathlib.Path(store_file).read_bytes() == before

    def test_failed_mutation_leaves_file_intact(self, store_file, capsys):
        import pathlib

        before = pathlib.Path(store_file).read_bytes()
        code, _, _ = run(capsys, "add", store_file, "--parent", "9.9", "--payload", "x")
        assert code == 4
        assert pathlib.Path(store_file).read_bytes() == before

    @pytest.mark.parametrize("mode", [0o644, 0o640], ids=["0644", "0640"])
    def test_mutation_keeps_file_mode(self, store_file, capsys, mode):
        import os
        import stat

        os.chmod(store_file, mode)
        code, _, _ = run(capsys, "add", store_file, "--parent", "4.7", "--payload", "kid")
        assert code == 0
        assert stat.S_IMODE(os.stat(store_file).st_mode) == mode

    def test_a_failing_directory_fsync_exits_4_with_the_new_store_in_place(
        self, store_file, capsys, monkeypatch
    ):
        """The directory fsync follows the rename, so when it fails the
        new store is in place, and the save still fails: add exits 4."""
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "injected failure")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        code, out, err = run(capsys, "add", store_file, "--parent", "4.7", "--payload", "kid")
        monkeypatch.undo()
        assert (code, out) == (4, "")
        assert err.startswith("error: cannot write") and "injected failure" in err
        code, out, _ = run(capsys, "ls", store_file, "--node", "4.7")
        assert code == 0
        assert [line.split("\t")[::2] for line in out.splitlines()] == [["4.7.1", "kid"]]

    def test_store_commands_print_huge_slots(self, tmp_path, capsys):
        from mobiustree import TreeStore

        st = TreeStore()
        st.add_child(st.add_child("root", "big", index=10**5000), "kid")
        f = str(tmp_path / "big.db")
        st.save(f)
        big = "1" + "0" * 5000
        code, out, _ = run(capsys, "tree", f)
        assert code == 0
        assert out.splitlines()[0] == f"{big}\t{big}/1\tbig"
        code, out, _ = run(capsys, "descendants", f, "--node", big)
        assert code == 0
        assert out.startswith(f"{big}.1\t")
        code, out, _ = run(capsys, "stats", f)
        assert code == 0

    @pytest.mark.parametrize("command", ["add", "mv"])
    def test_index_past_the_int_str_limit(self, store_file, capsys, command):
        nines = "9" * 5000
        if command == "add":
            argv = ["add", store_file, "--parent", "4", "--payload", "x", "--index", nines]
        else:
            argv = ["mv", store_file, "--node", "3.12", "--to", "4", "--index", nines]
        assert run(capsys, *argv)[0] == 0
        code, out, _ = run(capsys, "ls", store_file, "--node", "4")
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == [f"4.{nines}", "4.7"]

    @pytest.mark.parametrize(
        "index, exit_code",
        [
            ("abc", 2),
            ("1.5", 2),
            # plain ASCII decimal only, though int() would take these
            ("1_0", 2),
            ("+5", 2),
            (" 6", 2),
            ("\u0663", 2),  # ARABIC-INDIC DIGIT THREE
            ("0", 3),
            ("-5", 3),
            # past CPython's int/str digit limit
            pytest.param("-" + "9" * 5000, 3, id="huge-negative-3"),
        ],
    )
    @pytest.mark.parametrize("command", ["add", "mv"])
    def test_index_errors(self, store_file, capsys, command, index, exit_code):
        if command == "add":
            argv = ["add", store_file, "--parent", "4", "--index", index]
        else:
            argv = ["mv", store_file, "--node", "3.12", "--to", "4", "--index", index]
        before = FsPath(store_file).read_bytes()
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (exit_code, "")
        assert FsPath(store_file).read_bytes() == before

    def test_tree_survives_very_deep_chains(self, tmp_path, capsys):
        from mobiustree import TreeStore

        st = TreeStore()
        ref = "root"
        for i in range(1500):
            ref = st.add_child(ref, f"d{i}", index=1)
        f = str(tmp_path / "deep.db")
        st.save(f)
        code, out, _ = run(capsys, "tree", f)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1500
        assert lines[-1].startswith("  " * 1499 + "1\t")

    def test_tree_slots_on_a_deep_chain_with_side_leaves(self, tmp_path, capsys):
        """Each printed slot is the last component of the node's path,
        and the nodes come in the model's order: depth first, children
        by their Fraction interval endpoints."""
        from mobiustree import TreeStore
        from oracles import TreeModel

        st, model = TreeStore(), TreeModel()
        ref, path = "root", ()
        for level in range(1500):
            # the next spine node in slot 1, and a side leaf in slot 2, 3 or 4
            for slot in (1, 2 + level % 3):
                model.tree[path + (slot,)] = str(len(model.tree))
                node = st.add_child(ref, model.tree[path + (slot,)], index=slot)
                if slot == 1:
                    spine = node
            ref, path = spine, path + (1,)
        f = str(tmp_path / "deep.db")
        st.save(f)

        code, out, _ = run(capsys, "tree", f)
        want = [model.line(p, "  " * (len(p) - 1) + str(p[-1])) for p in model.walk()]
        assert len(want) == 3000
        assert (code, out.splitlines(keepends=True)) == (0, want)


class TestCyclicCollector:
    """main() runs with the cyclic garbage collector off and leaves it
    as it found it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_restores_the_collector_state(self, store_file, capsys, monkeypatch, enabled):
        from mobiustree import TreeStore

        def crash(*args):
            raise RuntimeError("unexpected")

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in [
                (["ls", store_file], 0),
                (["no-such-command"], 2),
                (["encode", "--path", "0"], 3),
                (["ls", store_file + ".missing"], 4),
            ]:
                assert main(argv) == code
                assert gc.isenabled() is enabled
            monkeypatch.setattr(TreeStore, "load", crash)
            with pytest.raises(RuntimeError):
                main(["ls", store_file])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()

    def test_a_load_runs_no_collection(self, tmp_path, capsys):
        """Loading a few thousand records would set off collections of
        the youngest generation; with the collector off none runs."""
        from mobiustree import TreeStore

        f = str(tmp_path / "s.db")
        st = TreeStore()
        for _ in range(5000):
            st.add_child("root", "")
        st.save(f)
        del st
        events = []

        def on_gc(phase, info):
            events.append((phase, info["generation"]))

        gc.callbacks.append(on_gc)
        try:
            code = main(["ls", f, "--node", "1"])
        finally:
            gc.callbacks.remove(on_gc)
        assert (code, events) == (0, [])


# (parent, index, payload) of each node of the paper's worked example:
# 3.12.5.1.21, its ancestors, and 4.7
EXAMPLE_ADDS = [
    ("root", 3, "three"),
    ("3", 12, "p12"),
    ("3.12", 5, "p5"),
    ("3.12.5", 1, "p1"),
    ("3.12.5.1", 21, "deep"),
    ("root", 4, "four"),
    ("4", 7, "p7"),
]


def save_example_store(filename):
    from mobiustree import TreeStore

    st = TreeStore()
    for parent, index, payload in EXAMPLE_ADDS:
        st.add_child(parent, payload, index=index)
    st.save(filename)


CHAIN_DEPTH = 300
ONES = ".".join(["1"] * CHAIN_DEPTH)


def save_chain_store(filename):
    """A CHAIN_DEPTH-deep first-child chain with one side leaf per level:
    under each chain node (and the root), slot 1 continues the chain
    with payload c<depth> and slot 2 is a leaf with payload s<depth>."""
    from mobiustree import TreeStore

    st = TreeStore()
    ref = "root"
    for depth in range(1, CHAIN_DEPTH + 1):
        nxt = st.add_child(ref, f"c{depth}", index=1)
        st.add_child(ref, f"s{depth}", index=2)
        ref = nxt
    st.save(filename)


def _ones_interval():
    """The all-ones path's interval; its depth is even, so det is +1
    and the low end is closed."""
    a, b, c, d = primitive_product((1,) * CHAIN_DEPTH)
    assert a * d - b * c == 1
    return f"[{a + b}/{c + d}, {a}/{c})"


# the store files golden_mismatches builds; a mutating row has a file of
# its own, so every other row sees its store as built
GOLDEN_STORES = {
    "g.db": save_example_store,
    "mv.db": save_example_store,
    "rm.db": save_example_store,
    "chain.db": save_chain_store,
    "chain_add.db": save_chain_store,
}

# Every file in tests/golden, with the argv whose stdout it holds.  A row
# on a store names its file in GOLDEN_STORES, which goes in as argv's
# second word.  The all-ones path is the Fibonacci worst case of key
# size, and every step on it has quotient 1; its goldens were written by
# the long-division steps, before any step had a quotient-1 branch.
GOLDEN_CASES = [
    ("encode_path_deep.txt", None, ["encode", "--path", "3.12.5.1.21"]),
    ("encode_path_3_12.txt", None, ["encode", "--path", "3.12"]),
    ("encode_ratio_deep.txt", None, ["encode", "--ratio", "4913/1594"]),
    ("encode_ratio_parent.txt", None, ["encode", "--ratio", "225/73"]),
    ("encode_matrix_sibling.txt", None, ["encode", "--matrix", "5138,225,1667,73"]),
    ("encode_matrix_4_7.txt", None, ["encode", "--matrix", "29,4,7,1"]),
    ("encode_matrix_fragment.txt", None, ["encode", "--matrix", "131,6,22,1"]),
    ("decode_deep.txt", None, ["decode", "--interval", "(4913/1594, 5138/1667]"]),
    ("decode_3_12.txt", None, ["decode", "--interval", "[40/13, 37/12)"]),
    ("decode_root.txt", None, ["decode", "--interval", "[1/1, inf)"]),
    ("ancestors_deep.txt", "g.db", ["ancestors", "--node", "3.12.5.1.21"]),
    ("ls_root.txt", "g.db", ["ls"]),
    ("descendants_3.txt", "g.db", ["descendants", "--node", "3"]),
    ("mv_subtree.txt", "mv.db", ["mv", "--node", "3.12.5", "--to", "4.7", "--index", "5"]),
    # where that move takes 3.12.5.1.21
    ("encode_path_moved.txt", None, ["encode", "--path", "4.7.5.1.21"]),
    ("rm_subtree.txt", "rm.db", ["rm", "--node", "3.12"]),
    ("encode_path_ones300.txt", None, ["encode", "--path", ONES]),
    ("encode_ratio_ones300.txt", None, ["encode", "--ratio", f"{fib(CHAIN_DEPTH + 1)}/{fib(CHAIN_DEPTH)}"]),
    ("decode_ones300.txt", None, ["decode", "--interval", _ones_interval()]),
    ("ancestors_chain300.txt", "chain.db", ["ancestors", "--node", ONES]),
    ("descendants_chain300.txt", "chain.db", ["descendants", "--node", "1"]),
    # det +1 with slots [1, 2]: its slot-1 child heads the slice
    ("descendants_chain300_1_1.txt", "chain.db", ["descendants", "--node", "1.1"]),
    ("tree_chain300.txt", "chain.db", ["tree"]),
    ("stats_chain300.txt", "chain.db", ["stats"]),
    # a new node at CHAIN_DEPTH + 1 components
    ("add_chain300.txt", "chain_add.db", ["add", "--parent", ONES, "--payload", f"c{CHAIN_DEPTH + 1}"]),
]


def golden_mismatches(run, directory):
    """Build GOLDEN_STORES in directory, run each GOLDEN_CASES row through
    run(argv) -> (exit code, stdout), and return, for each row that does
    not exit 0 with its golden on stdout, its name, exit code and diff."""
    names = sorted(name for name, _, _ in GOLDEN_CASES)
    assert names == sorted(p.name for p in GOLDEN_DIR.iterdir()), "tests/golden and GOLDEN_CASES differ"
    for name, save in GOLDEN_STORES.items():
        save(os.path.join(directory, name))
    mismatches = []
    for name, store, argv in GOLDEN_CASES:
        if store is not None:
            argv = [argv[0], os.path.join(directory, store), *argv[1:]]
        code, out = run(argv)
        want = (GOLDEN_DIR / name).read_text()
        if code != 0 or out != want:
            diff = difflib.unified_diff(
                want.splitlines(True), out.splitlines(True), f"tests/golden/{name}", "stdout"
            )
            mismatches.append(f"{name}: exit {code}\n" + "".join(diff))
    return mismatches


def test_the_ones_label_prints_the_folded_path():
    """The all-ones label's canonical path folds the trailing 1 into a 2."""
    want_path = ".".join(["1"] * (CHAIN_DEPTH - 2) + ["2"])
    text = (GOLDEN_DIR / "encode_ratio_ones300.txt").read_text()
    assert text.startswith(f"path: {want_path}\n")


def test_exit_codes_of_a_real_process(tmp_path):
    """The process exit status, not only main()'s return value, carries
    each documented code; failures print nothing on stdout.  A stdout
    whose reader is gone ends the command with 0 and nothing on stderr,
    after a mutation has saved; one that cannot take more, or cannot
    encode a line, exits 4."""
    from mobiustree import TreeStore

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    big = TreeStore()
    for _ in range(5000):
        big.add_child("root", "")
    big.save(tmp_path / "big.db")
    accented = TreeStore()
    accented.add_child("root", "\u00fc")
    accented.save(tmp_path / "u.db")
    closed, ascii_pipe = "closed pipe", "pipe encoded as ASCII"
    cases = [
        (["encode", "--path", "3.12"], 0, subprocess.PIPE),
        (["no-such-command"], 2, subprocess.PIPE),
        (["encode", "--path", "0"], 3, subprocess.PIPE),
        (["ls", str(tmp_path / "nope.db")], 4, subprocess.PIPE),
        (["tree", "big.db"], 0, closed),
        (["add", "big.db", "--parent", "root", "--payload", "piped"], 0, closed),
        (["ls", "u.db"], 4, ascii_pipe),
        (["add", "u.db", "--parent", "root", "--payload", "\u00fc"], 4, ascii_pipe),
    ]
    if os.path.exists("/dev/full"):
        cases.append((["tree", "big.db"], 4, "/dev/full"))
    for argv, code, kind in cases:
        stdout, case_env = kind, env
        if kind == closed:
            read_end, stdout = os.pipe()
            os.close(read_end)
        elif kind == ascii_pipe:
            stdout, case_env = subprocess.PIPE, dict(env, PYTHONIOENCODING="ascii")
        elif kind != subprocess.PIPE:
            stdout = os.open(kind, os.O_WRONLY)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mobiustree.cli", *argv],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                cwd=tmp_path,
                env=case_env,
            )
        finally:
            if stdout != subprocess.PIPE:
                os.close(stdout)
        assert proc.returncode == code, (argv, proc.stderr)
        if kind != subprocess.PIPE:
            if code == 0:
                assert proc.stderr == "", argv
            else:
                assert proc.stderr.startswith("error: cannot write output: ")
                assert proc.stderr.count("\n") == 1, proc.stderr
        elif code == 0:
            assert proc.stdout.startswith("path: 3.12\nratio: 37/12\n")
        elif code >= 3:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error:")
    assert TreeStore.load(tmp_path / "big.db").resolve("5001").payload == "piped"
    assert TreeStore.load(tmp_path / "u.db").resolve("2").payload == "\u00fc"


def test_concurrent_adds_keep_every_node(tmp_path):
    """Mutating commands on one file take turns from load to save, so no
    concurrent add loses another's node.  Unlocked, the processes load
    the same file and the last save wins; loading 5000 records takes
    long enough that four processes started together overlap."""
    from mobiustree.store import TreeStore

    f = tmp_path / "s.db"
    st = TreeStore()
    for _ in range(5000):
        st.add_child("root", "")
    st.save(f)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "mobiustree.cli", "add", str(f), "--parent", "root", "--payload", f"p{j}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for j in range(4)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    payloads = [rec.payload for rec in TreeStore.load(f).children()]
    assert len(payloads) == 5004
    assert sorted(payloads[5000:]) == ["p0", "p1", "p2", "p3"]
