import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from regma.cli import main
from regma.errors import RegmaError
from regma.serialize import parse_matroid_expr


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "regma.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestSystole:
    def test_petersen(self):
        rc, out, err = run_cli("systole", "builtin:petersen")
        assert rc == 0
        assert json.loads(out)["value"] == "1/3"
        assert "1/3" in err

    def test_weighted(self, tmp_path):
        wfile = tmp_path / "w"
        wfile.write_text("\n".join(["1/21"] * 21))
        rc, out, _ = run_cli("systole", "builtin:heawood", "--weights", str(wfile))
        assert rc == 0 and json.loads(out)["value"] == "2/7"

    def test_certificate_roundtrip(self, tmp_path):
        cert = tmp_path / "cert.json"
        rc, _, _ = run_cli("systole", "builtin:k4", "--out", str(cert))
        assert rc == 0
        rc, _, err = run_cli("systole", "builtin:k4", "--check", str(cert))
        assert rc == 0 and "ok" in err

    def test_graph_file(self, tmp_path):
        gfile = tmp_path / "g"
        gfile.write_text("2 3\n0 1\n0 1\n0 1\n")
        rc, out, _ = run_cli("systole", str(gfile))
        assert rc == 0 and json.loads(out)["value"] == "2/3"

    def test_check_on_forest_fails(self, tmp_path):
        gfile = tmp_path / "g"
        gfile.write_text("2 1\n0 1\n")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"value": "1", "weights": ["1"],
                                    "tight_cycles": [], "dual": []}))
        rc, _, err = run_cli("systole", str(gfile), "--check", str(cert))
        assert rc == 1 and "certificate FAILED" in err

    TRIANGLE = "3 3\n0 1\n1 2\n0 2\n"
    # sys of a triangle is 1 under any weights; this certificate claims 1/2
    FORGED = {"value": "1/2", "weights": ["1/3", "1/3", "1/3"],
              "tight_cycles": [[0, 1, 2]], "dual": [[[0, 1, 2], "1/2"]]}

    def test_weights_with_check_is_a_usage_error(self, tmp_path):
        # sys(G, w) reads no certificate, so --check next to --weights
        # would report success for a forged one
        gfile, wfile, cert = tmp_path / "g", tmp_path / "w", tmp_path / "cert.json"
        gfile.write_text(self.TRIANGLE)
        wfile.write_text("1/3\n1/3\n1/3\n")
        cert.write_text(json.dumps(self.FORGED))
        rc, out, err = run_cli("systole", str(gfile), "--weights", str(wfile),
                               "--check", str(cert))
        assert rc == 2 and out == ""
        assert "not allowed with argument" in err and "certificate ok" not in err
        rc, out, err = run_cli("systole", str(gfile), "--weights", str(wfile))
        assert rc == 0 and json.loads(out)["value"] == "1"
        assert "sys(G, w) = 1" in err
        rc, out, err = run_cli("systole", str(gfile), "--check", str(cert))
        assert rc == 1 and "certificate FAILED" in err


class TestCogirth:
    def test_r10(self):
        rc, out, _ = run_cli("cogirth", "r10")
        assert rc == 0 and json.loads(out)["value"] == "2/5"

    def test_dsl(self):
        rc, out, _ = run_cli("cogirth", "cographic(builtin:f14)")
        assert rc == 0 and json.loads(out)["value"] == "3/10"

    @pytest.mark.parametrize("expr", ["r10", "cographic(builtin:heawood)"])
    def test_certificate_roundtrip(self, tmp_path, expr):
        cert = tmp_path / "c.json"
        rc, _, _ = run_cli("cogirth", expr, "--out", str(cert))
        assert rc == 0 and json.loads(cert.read_text())["dual"]
        rc, _, err = run_cli("cogirth", expr, "--check", str(cert))
        assert rc == 0 and "certificate ok" in err

    def test_forged_certificate_rejected(self, tmp_path):
        # graphic(K4) has c = 1/2; weights (1/2, 1/10 x5) reach only 3/10
        rc, out, _ = run_cli("cogirth", "graphic(builtin:k4)")
        assert rc == 0
        forged = {"value": "3/10", "weights": ["1/2"] + ["1/10"] * 5,
                  "witness": "010", "dual": json.loads(out)["dual"]}
        cert = tmp_path / "forged.json"
        for payload in (forged, {k: v for k, v in forged.items() if k != "dual"}):
            cert.write_text(json.dumps(payload))
            rc, _, err = run_cli("cogirth", "graphic(builtin:k4)", "--check", str(cert))
            assert rc == 1 and "certificate FAILED" in err


class TestCRep:
    def test_uniform_r10(self):
        rc, out, _ = run_cli("c-rep", "r10")
        assert rc == 0 and json.loads(out)["value"] == "2/5"

    def test_mult_file(self, tmp_path):
        mfile = tmp_path / "m"
        mfile.write_text("\n".join(["1/10"] * 10))
        rc, out, _ = run_cli("c-rep", "r10", "--mult", str(mfile))
        assert rc == 0 and json.loads(out)["value"] == "2/5"

    def test_rank_zero_is_an_error_line(self):
        # as cogirth on the same matroid: one error line and exit 1
        for command in ("c-rep", "cogirth"):
            rc, out, err = run_cli(command, "dual(graphic(builtin:k2))")
            assert rc == 1 and out == ""
            assert err.startswith("error:") and "rank-0" in err
            assert len(err.splitlines()) == 1


class TestEmbed:
    def test_f13_klein(self, tmp_path):
        cert = tmp_path / "cert.json"
        rc, _, err = run_cli("embed", "builtin:f13", "--chi", "0",
                             "--nonorientable", "--out", str(cert))
        assert rc == 0 and "chi = 0" in err
        rc, _, err = run_cli("embed", "builtin:f13", "--chi", "0",
                             "--nonorientable", "--check", str(cert))
        assert rc == 0 and "ok" in err

    def test_no_embedding_exit_code(self):
        rc, _, err = run_cli("embed", "builtin:k33", "--chi", "2")
        assert rc == 1

    def test_no_embedding_without_a_walk(self, monkeypatch, capsys):
        # 30 darts in faces of length >= 5 make at most 6 of the 14 faces
        # that chi = 9 needs, so the search ends before its first candidate
        from regma import surface

        def no_walk(*args):
            raise AssertionError("faces walked")

        monkeypatch.setattr(surface, "_face_walks", no_walk)
        assert main(["embed", "builtin:petersen", "--chi", "9"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "no embedding found (exhaustive)\n"

    def test_pinned_face(self):
        rc, out, _ = run_cli("embed", "builtin:k4", "--chi", "2",
                             "--face", "0,1,3")
        assert rc == 0
        cert = json.loads(out)
        assert any(sorted(d >> 1 for d in f) == [0, 1, 3] for f in cert["faces"])

    def test_empty_face_is_malformed(self):
        rc, out, err = run_cli("embed", "builtin:k4", "--chi", "2", "--face", "")
        assert rc == 2 and out == "" and "--face needs edge ids" in err

    def test_max_chi(self):
        rc, out, _ = run_cli("embed", "builtin:k4", "--chi", "-2", "--max-chi")
        assert rc == 0 and json.loads(out)["chi"] == 2

    def test_max_chi_with_pinned_face(self):
        # the first hit with the face is a torus embedding; --max-chi must
        # still exhaust the space and find the plane
        rc, out, err = run_cli("embed", "builtin:k4", "--chi", "-2",
                               "--face", "0,1,3", "--max-chi")
        assert rc == 0 and "chi = 2" in err
        cert = json.loads(out)
        assert cert["chi"] == 2
        assert any(sorted(d >> 1 for d in f) == [0, 1, 3] for f in cert["faces"])

    def test_face_not_a_cycle_exits_2(self):
        rc, out, err = run_cli("embed", "builtin:k4", "--chi", "2",
                               "--face", "0,1")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_check_rotation_at_wrong_vertex_fails(self, tmp_path):
        rc, out, _ = run_cli("embed", "builtin:k4", "--chi", "2")
        assert rc == 0
        cert = json.loads(out)
        cert["rotations"][1] = cert["rotations"][0]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        rc, _, err = run_cli("embed", "builtin:k4", "--chi", "2",
                             "--check", str(path))
        assert rc == 1 and err.strip() == "certificate FAILED"

    def test_check_reads_chi(self, tmp_path):
        cert = tmp_path / "cert.json"
        rc, _, _ = run_cli("embed", "builtin:k4", "--chi", "2", "--out", str(cert))
        assert rc == 0
        for chi, code in (("5", 1), ("2", 0), ("-100", 0)):
            rc, out, err = run_cli("embed", "builtin:k4", "--chi", chi,
                                   "--check", str(cert))
            assert (rc, out) == (code, ""), chi
            assert err.strip() == ("certificate ok" if code == 0
                                   else "certificate FAILED")

    def test_check_reads_orientability(self, tmp_path):
        # the petersen graph has a projective-plane embedding but no
        # orientable one with chi >= 1
        cert = tmp_path / "cert.json"
        rc, _, _ = run_cli("embed", "builtin:petersen", "--chi", "1",
                           "--nonorientable", "--out", str(cert))
        assert rc == 0
        rc, _, _ = run_cli("embed", "builtin:petersen", "--chi", "1")
        assert rc == 1
        rc, _, err = run_cli("embed", "builtin:petersen", "--chi", "1",
                             "--check", str(cert))
        assert rc == 1 and err.strip() == "certificate FAILED"
        rc, _, err = run_cli("embed", "builtin:petersen", "--chi", "1",
                             "--nonorientable", "--check", str(cert))
        assert rc == 0 and err.strip() == "certificate ok"

    def test_max_chi_with_check_is_a_usage_error(self, tmp_path):
        cert = tmp_path / "cert.json"
        rc, _, _ = run_cli("embed", "builtin:k4", "--chi", "2", "--out", str(cert))
        assert rc == 0
        rc, out, err = run_cli("embed", "builtin:k4", "--chi", "2", "--max-chi",
                               "--check", str(cert))
        assert rc == 2 and out == ""
        assert "not allowed with argument" in err and "certificate ok" not in err

    def test_face_repeating_an_edge_exits_2(self):
        rc, out, err = run_cli("embed", "builtin:k4", "--chi", "2",
                               "--face", "0,1,3,0")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_file_exits_1(self):
        rc, _, err = run_cli("systole", "/nonexistent/graph.txt")
        assert rc == 1 and "error" in err


class TestOthers:
    def test_gen_cubic(self):
        rc, out, err = run_cli("gen-cubic", "--n", "6")
        assert rc == 0 and "2 graphs" in err
        blocks = [b for b in out.strip().split("\n\n") if b.strip()]
        assert len(blocks) == 2

    def test_gen_cubic_three_connected(self):
        rc, out, err = run_cli("gen-cubic", "--n", "10", "--three-connected")
        assert rc == 0 and "14 graphs" in err
        blocks = [b for b in out.strip().split("\n\n") if b.strip()]
        assert len(blocks) == 14

    def test_involutions(self):
        rc, out, _ = run_cli("involutions6", "cographic(builtin:petersen)")
        assert rc == 0
        data = json.loads(out)
        assert data["kernel_count_min"] >= 4
        assert len(set(data["vectors"])) == 6

    def test_involutions_certificate_roundtrip(self, tmp_path):
        cert = tmp_path / "c.json"
        for expr in ("cographic(builtin:petersen)", "graphic(builtin:k4)", "r10"):
            rc, _, _ = run_cli("involutions6", expr, "--out", str(cert))
            assert rc == 0
            rc, _, err = run_cli("involutions6", expr, "--check", str(cert))
            assert rc == 0 and "certificate ok" in err

    @pytest.mark.parametrize("vectors, counts", [
        # three elements lie in only three kernels, whatever counts claim
        (["000001", "001110", "010000", "010101", "100000", "100011"], [4] * 15),
        (["000001", "001110", "010000", "010101", "100000", "100011"], [4]),
        # functionals outside F2^6 vanish on every column
        ([format(1 << k, "b") for k in range(6, 12)], [6] * 15),
        # the search's own vectors with counts that are not theirs
        (["000001", "000010", "000100", "011100", "101010", "110001"], [1]),
        # five of them, which is one too few
        (["000001", "000010", "000100", "011100", "101010"], [4] * 15),
    ])
    def test_forged_involutions_rejected(self, tmp_path, vectors, counts):
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps({"vectors": vectors, "counts": counts}))
        rc, _, err = run_cli("involutions6", "cographic(builtin:petersen)",
                             "--check", str(cert))
        assert rc == 1 and "certificate FAILED" in err

    @pytest.mark.parametrize("expr", ["graphic({})", "dual(graphic({}))"])
    def test_involutions_of_no_elements(self, tmp_path, expr):
        # one vertex, no edges: the uniform multiplicity 1/0 does not exist
        gfile = tmp_path / "point"
        gfile.write_text("1 0\n")
        rc, out, err = run_cli("involutions6", expr.format(gfile))
        assert (rc, out) == (1, "")
        assert err.splitlines() == ["error: involutions6 of a matroid with no elements"]

    def test_reduce(self):
        rc, out, _ = run_cli("reduce", "builtin:g1")
        assert rc == 0

    def test_matroid_build_roundtrip(self, tmp_path):
        mfile = tmp_path / "m.txt"
        rc, _, err = run_cli("matroid-build", "graphic(builtin:k4)",
                             "--out", str(mfile))
        assert rc == 0
        text = mfile.read_text()
        assert text.startswith("3 6") and "LIFT" in text
        rc, out, _ = run_cli("cogirth", f"file:{mfile}")
        assert rc == 0 and json.loads(out)["value"] == "1/2"

    def test_matroid_build_sum2_at_two_coloops(self, tmp_path):
        path = tmp_path / "path"
        path.write_text("3 2\n0 1\n1 2\n")
        rc, out, err = run_cli("matroid-build",
                               f"sum2(graphic({path})@e1, graphic({path})@e0)")
        # a selection that cannot be glued is malformed input
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: a 2-sum cannot glue two coloops"]

    def test_matroid_build_free_dual(self):
        rc, out, _ = run_cli("matroid-build", "dual(graphic(builtin:k2))")
        assert rc == 0 and out.startswith("0 1")

    def test_no_columns(self, tmp_path):
        # simplify of a graph with no edges leaves a lift with no columns
        path = tmp_path / "point"
        path.write_text("1 0\n")
        expr = f"simplify(graphic({path}))"
        rc, out, err = run_cli("matroid-build", expr)
        assert rc == 0 and out.startswith("0 0")
        assert err.splitlines() == ["rank 0, 0 elements, lift present"]
        rc, out, err = run_cli("cogirth", expr)
        assert (rc, out) == (1, "")
        assert err.splitlines() == ["error: cogirth of a rank-0 matroid"]

    def test_verify_tables(self):
        rc, out, err = run_cli("verify-tables", "--max-b", "3")
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] and all(i["status"] == "ok" for i in data["items"])
        assert "[ok]" in err

    def test_verify_tables_rank_below_one(self):
        # a range that checks nothing is refused, not reported as ok
        rc, out, err = run_cli("verify-tables", "--max-b", "0")
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: --max-b must be between 1 and 9, got 0"]

    def test_usage_error_exit_2(self):
        rc, _, _ = run_cli("systole")
        assert rc == 2

    def test_computational_error_exit_1(self, tmp_path):
        gfile = tmp_path / "tree"
        gfile.write_text("2 1\n0 1\n")
        rc, _, err = run_cli("systole", str(gfile))
        assert rc == 1 and "error" in err

    def test_json_deterministic(self):
        rc1, out1, _ = run_cli("systole", "builtin:k4")
        rc2, out2, _ = run_cli("systole", "builtin:k4")
        assert out1 == out2

    def test_verify_tables_same_for_any_jobs(self):
        reports = []
        for jobs in ("1", "2"):
            rc, out, _ = run_cli("verify-tables", "--max-b", "6", "--exhaustive",
                                 "--jobs", jobs)
            assert rc == 0
            report = json.loads(out)
            del report["command"]["jobs"]
            for item in report["items"]:
                del item["seconds"]
            reports.append(report)
        assert reports[0] == reports[1]


class TestMalformedInput:
    """Malformed input gives one `error:` line and exit code 2."""

    @pytest.mark.parametrize("command", [
        ["systole", "builtin:k4", "--weights"],
        ["c-rep", "graphic(builtin:k4)", "--mult"],
        ["involutions6", "graphic(builtin:k4)", "--mult"],
    ])
    def test_negative_weight(self, tmp_path, command):
        wfile = tmp_path / "w"
        wfile.write_text("\n".join(["1/2", "-1/2"] + ["1/4"] * 4))
        rc, out, err = run_cli(*command, str(wfile))
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: negative entry in weight file {wfile}"]

    @pytest.mark.parametrize("root", ["3", "7", "-1"])
    def test_graphic_root_out_of_range(self, root):
        rc, out, err = run_cli("cogirth", f"graphic(builtin:k3,{root})")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [
            f"error: graphic root must be a vertex number, got {root!r}"]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, jobs):
        rc, out, err = run_cli("verify-tables", "--max-b", "3", "--jobs", jobs)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: --jobs must be at least 1, got {jobs}"]

    @pytest.mark.parametrize("max_b", ["10", "-1"])
    def test_max_b_out_of_range(self, max_b):
        rc, out, err = run_cli("verify-tables", "--max-b", max_b)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: --max-b must be between 1 and 9, got {max_b}"]

    @pytest.mark.parametrize("n", ["5", "2", "-4"])
    def test_gen_cubic_bad_vertex_count(self, n):
        rc, out, err = run_cli("gen-cubic", "--n", n)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: --n must be an even number of at least 4, got {n}"]

    def test_gen_cubic_above_guard(self):
        # a well-formed n past the enumeration guard is a computational
        # refusal, not a usage error
        rc, out, err = run_cli("gen-cubic", "--n", "18")
        assert (rc, out) == (1, "")
        assert err.startswith("error: generate_cubic: size 18 exceeds guard 16")

    def test_graph_file_bad_token(self, tmp_path):
        gfile = tmp_path / "g"
        gfile.write_text("2 1\n0 x\n")
        rc, _, err = run_cli("systole", str(gfile))
        assert rc == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_graph_file_with_extra_edge_line(self, tmp_path):
        # the third edge must not be dropped, leaving a forest
        gfile = tmp_path / "g"
        gfile.write_text("3 2\n0 1\n1 2\n2 0\n")
        rc, out, err = run_cli("systole", str(gfile))
        assert (rc, out) == (2, "")
        assert err.splitlines() == ["error: malformed graph file: header '3 2' "
                                    "with 3 edge lines"]

    @pytest.mark.parametrize("command,message", [
        (["systole", "builtin:nosuch"], "unknown catalog name 'nosuch'"),
        (["systole", "builtin:k1"], "k<n> needs n >= 2"),
        (["systole", "builtin:moebius_ladder1"], "moebius ladder needs at least 2 rungs"),
        (["cogirth", "sum2(r10@zz, r10@e1)"], "no ground element labeled 'zz'"),
        (["cogirth", "sum3(graphic(builtin:k5)@{e0,e4,e1}, graphic(builtin:k5)@{e0,zz,e1})"],
         "no ground element labeled 'zz'"),
    ], ids=["catalog-name", "k1", "moebius-ladder1", "sum2-label", "sum3-label"])
    def test_unknown_name(self, command, message):
        rc, out, err = run_cli(*command)
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("first,message", [
        ("e0,e0,e1", "3-sum needs three distinct elements"),
        ("e0,e1,e2", "3-sum triple must sum to zero over F2"),
    ], ids=["repeated", "nonzero-sum"])
    def test_malformed_sum3_selection(self, first, message):
        rc, out, err = run_cli(
            "cogirth", f"sum3(graphic(builtin:k5)@{{{first}}}, graphic(builtin:k5)@{{e0,e4,e1}})")
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command,size", [
        (["systole", "builtin:k4", "--weights"], 6),
        (["c-rep", "r10", "--mult"], 10),
        (["involutions6", "graphic(builtin:k4)", "--mult"], 6),
    ], ids=["systole-weights", "c-rep-mult", "involutions6-mult"])
    def test_zero_total_weight(self, tmp_path, command, size):
        wfile = tmp_path / "zeros.txt"
        wfile.write_text("0\n" * size)
        rc, out, err = run_cli(*command, str(wfile))
        assert (rc, out) == (2, "")
        assert err.splitlines() == [f"error: weight file {wfile} has total 0"]

    def test_deeply_nested_expression(self):
        rc, _, err = run_cli("cogirth", "dual(" * 1200 + "r10" + ")" * 1200)
        assert rc == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_deeply_nested_certificate(self, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("[" * 100_000)
        rc, _, err = run_cli("involutions6", "cographic(builtin:k4)",
                             "--check", str(cert))
        assert rc == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_certificate_without_weights(self, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"value": "1/3"}))
        rc, _, err = run_cli("systole", "builtin:petersen", "--check", str(cert))
        assert rc == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestInProcessMain:
    def test_main_returns_int(self, capsys):
        assert main(["systole", "builtin:theta"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["value"] == "2/3"

    @pytest.mark.parametrize("command", [
        ["systole", "builtin:petersen"],
        ["systole", "builtin:heawood", "--weights", "UNIFORM21"],
        ["cogirth", "r10"],
        ["c-rep", "r10"],
        ["embed", "builtin:k4", "--chi", "2", "--face", "0,1,3"],
        ["involutions6", "cographic(builtin:petersen)"],
        ["reduce", "builtin:g1"],
        ["matroid-build", "sum2(graphic(builtin:k4)@e0, r10@f3)"],
        ["verify-tables", "--max-b", "3"],
    ])
    def test_out_file_equals_stdout(self, tmp_path, capsys, command):
        wfile = tmp_path / "w"
        wfile.write_text("\n".join(["1/21"] * 21))
        command = [str(wfile) if a == "UNIFORM21" else a for a in command]
        assert main(command) == 0
        out, err = capsys.readouterr()
        path = tmp_path / "out"
        assert main([*command, "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", err)
        written = path.read_text(encoding="utf-8")
        if command[0] == "verify-tables":
            # the only field that differs between two runs
            out, written = (json.loads(text) for text in (out, written))
            for item in out["items"] + written["items"]:
                del item["seconds"]
        assert written == out


# Certificate-shaped JSON: the fields the loaders read, holding values of
# the right and the wrong kinds, nested at random.
_FIELDS = ["value", "weights", "tight_cycles", "dual", "witness", "vectors",
           "counts", "chi", "rotations", "signs", "faces"]
_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(),
    st.sampled_from(["0", "1", "1/3", "-1/2", "1/0", "x", "", "010",
                     "000001", "111111", "1000000"]))
_json = st.recursive(_leaf, lambda kids: st.one_of(
    st.lists(kids, max_size=7),
    st.dictionaries(st.sampled_from(_FIELDS), kids, max_size=7)),
    max_leaves=25)
_certificate_text = st.one_of(
    _json.map(json.dumps),
    _json.map(json.dumps).flatmap(
        lambda t: st.integers(0, len(t)).map(lambda k: t[:k])),
    st.text(max_size=40))


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.json"


@pytest.mark.parametrize("command", [
    ["systole", "builtin:k4"],
    ["cogirth", "graphic(builtin:k4)"],
    ["involutions6", "cographic(builtin:k4)"],
    ["embed", "builtin:k4", "--chi", "2"],
])
@given(text=_certificate_text)
@settings(max_examples=100, deadline=None)
def test_check_fuzz_fails_cleanly(cert_path, command, text):
    cert_path.write_text(text, encoding="utf-8")
    assert main([*command, "--check", str(cert_path)]) in (1, 2)


_expression = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(
        ["graphic(", "cographic(", "dual(", "simplify(", "sum1(", "sum2(",
         "sum3(", "r10", "builtin:k4", "builtin:theta", "builtin:nonesuch",
         "(", ")", ",", "@", "e0", "e1", "{", "}", " ", "2", "-1"]),
        max_size=14).map("".join))


@given(expr=_expression)
@settings(max_examples=200, deadline=None)
def test_expression_fuzz_fails_cleanly(expr):
    try:
        parse_matroid_expr(expr)
        parsed = True
    except (RegmaError, OSError):
        parsed = False
    rc = main(["matroid-build", expr])
    assert rc == 0 if parsed else rc in (1, 2)
