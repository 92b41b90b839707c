import pytest

from mobiustree.cli import main


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

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "encode")[0] == 2  # no input form
        assert run(capsys, "encode", "--path", "1", "--ratio", "1/1")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "encode", "--bogus", "1")[0] == 2


@pytest.fixture
def store_file(tmp_path, capsys):
    f = str(tmp_path / "t.db")
    assert main(["init", f]) == 0
    for parent, index, payload in [
        ("root", 3, "three"),
        ("3", 12, "p12"),
        ("3.12", 5, "p5"),
        ("3.12.5", 1, "p1"),
        ("3.12.5.1", 21, "deep"),
        ("root", 4, "four"),
        ("4", 7, "p7"),
    ]:
        assert main(["add", f, "--parent", parent, "--index", str(index), "--payload", payload]) == 0
    capsys.readouterr()
    return f


class TestStoreCommands:
    def test_init_refuses_overwrite(self, tmp_path, capsys):
        f = str(tmp_path / "x.db")
        assert main(["init", f]) == 0
        code, _, err = run(capsys, "init", f)
        assert code == 4
        assert "exists" in err

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

    def test_ls_leaf_is_empty_success(self, store_file, capsys):
        code, out, _ = run(capsys, "ls", store_file, "--node", "3.12.5.1.21")
        assert code == 0
        assert out == ""

    def test_ls_missing_node_fails(self, store_file, capsys):
        code, _, err = run(capsys, "ls", store_file, "--node", "8")
        assert code == 4
        assert "no node" in err

    def test_ls_root(self, store_file, capsys):
        code, out, _ = run(capsys, "ls", store_file)
        assert code == 0
        assert out == "3\t3/1\tthree\n4\t4/1\tfour\n"

    def test_descendants(self, store_file, capsys):
        code, out, _ = run(capsys, "descendants", store_file, "--node", "3.12")
        assert code == 0
        lines = out.splitlines()
        assert [l.split("\t")[0] for l in lines] == ["3.12.5", "3.12.5.1", "3.12.5.1.21"]

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
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (exit_code, "")

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
        and the nodes come in the oracle's order: depth first, children
        by their Fraction interval endpoints."""
        from fractions import Fraction

        from mobiustree import TreeStore
        from oracles import mat_mul4, primitive_product

        st = TreeStore()
        paths, product = [], {(): primitive_product(())}
        ref, path = "root", ()
        for level in range(1500):
            # the next spine node in slot 1, and a side leaf in slot 2, 3 or 4
            for slot in (1, 2 + level % 3):
                p = path + (slot,)
                product[p] = mat_mul4(product[path], primitive_product((slot,)))
                node = st.add_child(ref, str(len(paths)), index=slot)
                paths.append(p)
                if slot == 1:
                    spine = node
            ref, path = spine, path + (1,)
        f = str(tmp_path / "deep.db")
        st.save(f)

        def lo(p):
            a, b, c, d = product[p]
            return min(Fraction(a, c), Fraction(a + b, c + d))

        kids = {}
        for p in paths:
            kids.setdefault(p[:-1], []).append(p)
        want, stack = [], sorted(kids[()], key=lo, reverse=True)
        while stack:
            p = stack.pop()
            want.append(p)
            stack.extend(sorted(kids.get(p, ()), key=lo, reverse=True))

        code, out, _ = run(capsys, "tree", f)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(want) == 3000
        for line, p in zip(lines, want):
            slot, _, payload = line.split("\t")
            assert slot == "  " * (len(p) - 1) + str(p[-1])
            assert paths[int(payload)] == p
