import json
import os

import pytest

from macpoly.cli import main, run_verify
from macpoly.scalars import ExactScalar


class TestCompute:
    def test_intermediate_constant(self, capsys):
        rc = main(["compute", "--case", "AI2", "--family", "intermediate",
                   "--J", "1", "--lam", "0,0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip() == "(1)*e^[0, 0]"

    def test_nonsym_json(self, capsys):
        rc = main(["compute", "--case", "DII:n=2", "--family", "nonsym",
                   "--lam", "1", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [{"coeff": "1", "exponent": [1]}]

    def test_sym_matches_oracle(self, capsys):
        from macpoly.cases import build_case
        from macpoly.families import aw_oracle
        from macpoly.galg import ga_from_json

        rc = main(["compute", "--case", "BII:n=2,s=1", "--family", "sym",
                   "--lam", "2", "--format", "json"])
        assert rc == 0
        case = build_case("BII:n=2,s=1")
        got = ga_from_json(json.loads(capsys.readouterr().out), case.lattice)
        assert got == aw_oracle(case.aw, 2, case.lattice)

    def test_series_json_roundtrip(self, capsys):
        from macpoly.cases import build_case
        from macpoly.galg import ga_from_json
        from macpoly.scalars import SeriesScalar

        rc = main(["compute", "--case", "AI2", "--family", "sym",
                   "--lam", "1,1", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        got = ga_from_json(data, build_case("AI2").lattice)
        assert any(isinstance(c, SeriesScalar) for c in got.terms.values())
        assert got.to_json() == data

    def test_series_text_render(self, capsys):
        rc = main(["compute", "--case", "AI2", "--family", "sym",
                   "--lam", "1,1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "O(v^" in out and "SeriesScalar" not in out

    def test_bad_case_exit_code(self, capsys):
        rc = main(["compute", "--case", "XII", "--family", "sym", "--lam", "1"])
        assert rc == 2

    def test_bad_rank_exit_code(self, capsys):
        rc = main(["compute", "--case", "AI2", "--family", "sym", "--lam", "1"])
        assert rc == 2

    def test_non_integer_lam_exit_code(self, capsys):
        rc = main(["compute", "--case", "AI2", "--lam", "1,x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_dominant_lam_exit_code(self, capsys):
        rc = main(["compute", "--case", "A2G", "--family", "sym", "--lam=-1,0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_range_J_exit_code(self, capsys):
        rc = main(["compute", "--case", "A2G", "--family", "intermediate",
                   "--lam", "1,0", "--J", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("family", ["sym", "nonsym", "matrix"])
    @pytest.mark.parametrize("J", ["0,x", "5", "0"])
    def test_J_outside_intermediate_exit_code(self, family, J, monkeypatch,
                                              capsys):
        # only the intermediate family reads --J; the others refuse it
        # before any work
        import macpoly.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before --J was refused")

        monkeypatch.setattr(cli, "build_case", no_work)
        rc = main(["compute", "--case", "A2G", "--family", family,
                   "--lam", "1,0", "--J", J])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --J") and err.count("\n") == 1

    def test_label_with_negative_lead_coordinate(self, capsys):
        # argparse takes -1,2 for an option; the label still reaches --lam,
        # under either spelling of the flag, as --lam=-1,2 does
        argv = ["compute", "--case", "A2G", "--family", "intermediate"]
        assert main(argv + ["--lam=-1,2"]) == 0
        want = capsys.readouterr()
        assert want.out.startswith("(1)*e^[-1, 2] + ") and want.err == ""
        for flag in ("--lam", "--lambda"):
            assert main(argv + [flag, "-1,2"]) == 0
            assert capsys.readouterr() == want

    @pytest.mark.parametrize("cid, J", [("A2G", "0,1,1"), ("AI2", "1,0,1")])
    def test_repeated_J_index_exit_code(self, cid, J, capsys):
        # a repeated index would rebuild a family under a second key
        rc = main(["compute", "--case", cid, "--family", "intermediate",
                   "--J", J, "--lam", "1,1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --J repeats") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--case", "BII:n=2,s=1", "--family", "nonsym"],
        ["--case", "CII:n=3,s=1", "--family", "nonsym"],
        ["--case", "BII:n=2,s=1", "--family", "intermediate", "--J", ","]])
    def test_non_invariant_family_of_aw_case_exit_code(self, argv, capsys):
        # the one-variable cases pair W-invariants only
        rc = main(["compute"] + argv + ["--lam", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("J", [",", ""])
    def test_empty_J_is_the_rank_one_family(self, J, capsys):
        # J = () is the non-symmetric family, however it is spelled
        argv = ["compute", "--case", "A2G", "--family", "intermediate",
                "--J", J, "--lam", "1,0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: non-symmetric family is rank-1 only\n"
        assert main(["compute", "--case", "DII:n=2", "--family", "nonsym",
                     "--lam", "-1"]) == 0
        want = capsys.readouterr().out
        assert main(["compute", "--case", "DII:n=2", "--family",
                     "intermediate", "--J", J, "--lam", "-1"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv, method", [
        (["compute", "--case", "DII:n=2", "--lam", "1"], "family_spec"),
        (["render", "--case", "DII:n=2", "--what", "M"], "matrix_weight")])
    def test_output_under_a_file_exit_code(self, argv, method, monkeypatch,
                                           tmp_path, capsys):
        # the output path is checked before any work
        from macpoly.cases import ExampleCase

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output was checked")

        monkeypatch.setattr(ExampleCase, method, property(no_work))
        (tmp_path / "f").write_text("")
        rc = main(argv + ["--output", str(tmp_path / "f" / "out.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        argv = ["compute", "--case", "DII:n=2", "--family", "nonsym",
                "--lam", "-1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--output", str(tmp_path / "o.txt")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "o.txt").read_text() == out


class TestRender:
    def test_latex_matrix(self, capsys):
        rc = main(["render", "--case", "DII:n=2", "--what", "M",
                   "--format", "latex"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("\\begin{pmatrix}")

    def test_non_integer_lam_exit_code(self, capsys):
        rc = main(["render", "--case", "DII:n=2", "--what", "Q", "--lam", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["1,x", "0", ""])
    def test_lam_with_weight_matrix_exit_code(self, lam, monkeypatch,
                                              capsys):
        # the weight matrix takes no label: an explicit --lam is refused
        # before any work
        import macpoly.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before --lam was refused")

        monkeypatch.setattr(cli, "build_case", no_work)
        rc = main(["render", "--case", "A2G", "--what", "M", "--lam", lam])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lam") and err.count("\n") == 1

    def test_member_label_defaults_to_zero(self, capsys):
        assert main(["render", "--case", "DII:n=2", "--what", "Q"]) == 0
        default = capsys.readouterr().out
        assert main(["render", "--case", "DII:n=2", "--what", "Q",
                     "--lam", "0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("lam", ["--lam=1", "--lam=-1,0"])
    def test_bad_label_exit_code(self, lam, capsys):
        # a label of the wrong length, and one that is not dominant
        rc = main(["render", "--case", "A2G", "--what", "Q", lam])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --lam") and err.count("\n") == 1

    def test_json_matrix(self, capsys):
        rc = main(["render", "--case", "A2G", "--what", "M",
                   "--format", "json"])
        assert rc == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv, case_id, series", [
        (["render", "--case", "A2G", "--what", "M"], "A2G", False),
        (["compute", "--case", "AI2", "--family", "matrix", "--lam", "1,1"],
         "AI2", True)], ids=["exact", "series"])
    def test_json_matrix_cells_round_trip(self, capsys, argv, case_id,
                                          series):
        # each cell is its element's `to_json` list, decoded once
        from macpoly.cases import build_case
        from macpoly.galg import ga_from_json
        from macpoly.scalars import SeriesScalar

        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        lattice = build_case(case_id).lattice
        cells = [ga_from_json(cell, lattice) for row in rows for cell in row]
        assert [c.to_json() for c in cells] == [cell for row in rows
                                                for cell in row]
        assert series == any(isinstance(x, SeriesScalar) for c in cells
                             for x in c.terms.values())


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestGoldenReports:
    """`verify` reports and stderr, and `compute` and `render` outputs,
    byte for byte, against tests/golden.

    The files pin what the program writes; a change that keeps the
    reports as they are leaves them as they are."""

    @pytest.mark.parametrize("case, height, name", [
        ("A2G", 1, "A2G-h1"),
        ("A2G", 2, "A2G-h2"),
        ("DII:n=2", 2, "DII-n2-h2"),
        ("BII:n=2,s=1", 2, "BII-n2-s1-h2"),
        ("BII:n=2,s=2", 2, "BII-n2-s2-h2"),
        ("CII:n=3,s=2", 2, "CII-n3-s2-h2"),
        ("AI2", 1, "AI2-h1"),
        ("AI2", 2, "AI2-h2"),
        ("AII5", 2, "AII5-h2"),
    ])
    def test_report_and_stderr(self, tmp_path, case, height, name):
        import subprocess
        import sys

        import macpoly

        src = os.path.dirname(os.path.dirname(macpoly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        report = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "-m", "macpoly.cli", "verify", "--case", case,
             "--lambda-height", str(height), "--report", str(report)],
            env=env, cwd=tmp_path, capture_output=True)
        assert done.returncode == 0
        assert done.stdout == b""
        base = os.path.join(GOLDEN, "verify-" + name)
        with open(base + ".stderr", "rb") as fh:
            assert done.stderr == fh.read()
        with open(base + ".json", "rb") as fh:
            assert report.read_bytes() == fh.read()


    @pytest.mark.parametrize("argv, name", [
        (["compute", "--case", "AI2", "--family", "matrix", "--lam", "1,1",
          "--format", "json"], "compute-AI2-matrix-1-1.json"),
        (["compute", "--case", "AI2", "--family", "sym", "--lam", "3,0",
          "--order", "40", "--format", "latex"], "compute-AI2-sym-3-0-o40.tex"),
        (["render", "--case", "AI2", "--what", "Q", "--lam", "2,0",
          "--format", "text", "--basis", "ambient"],
         "render-AI2-Q-2-0-ambient.txt"),
    ])
    def test_compute_and_render(self, argv, name, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert out.encode() == fh.read()


class TestVerify:
    def test_report_roundtrip(self, tmp_path, capsys):
        rc = main(["verify", "--case", "DII:n=2", "--lambda-height", "1",
                   "--report", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["case"] == "DII:n=2"
        assert all(c["status"] == "pass" for c in data["checks"])

    def test_failure_exit_code(self, monkeypatch, capsys):
        # a deliberately broken golden matrix must fail the weight check
        import dataclasses

        import macpoly.cases as cases_mod
        from macpoly.scalars import ExactScalar

        case = cases_mod.build_case("DII:n=2")
        orig = case.golden_matrix_fn

        def broken(c):
            M = orig(c)
            M[0][0] = M[0][0].scale(ExactScalar.q_power(1))
            return M

        case = dataclasses.replace(case, golden_matrix_fn=broken)
        assert case.matrix_weight_check()["status"] == "fail"

    def test_raising_check_is_recorded(self, monkeypatch, tmp_path, capsys):
        # a check that raises becomes an error entry; the later checks still
        # run and the report is still written
        from macpoly.cases import ExampleCase
        from macpoly.weights import TruncationError

        def boom(self, mu):
            raise TruncationError("coefficient orders consume 9 of the 8-order margin")

        monkeypatch.setattr(ExampleCase, "identify", boom)
        path = tmp_path / "r.json"
        rc = main(["verify", "--case", "DII:n=2", "--lambda-height", "1",
                   "--report", str(path)])
        assert rc == 1
        checks = json.loads(path.read_text())["checks"]
        names = [c["name"] for c in checks]
        entry = checks[names.index("identification")]
        assert entry == {"name": "identification", "status": "error",
                         "detail": "TruncationError: coefficient orders consume 9 of the 8-order margin"}
        later = names[names.index("identification") + 1:]
        assert later == ["q_inversion", "recurrence"]
        assert all(c["status"] == "pass" for c in checks if c is not entry)
        assert "identification         error" in capsys.readouterr().err

    def test_raising_grid_setup_is_recorded(self, monkeypatch, tmp_path):
        # planning the grid reads the matrix weight; when that raises, the
        # grid checks are skipped, the others run and the report is written
        from macpoly.cases import ExampleCase

        def boom(self):
            raise ArithmeticError("no weight")

        monkeypatch.setattr(ExampleCase, "matrix_weight", property(boom))
        path = tmp_path / "r.json"
        rc = main(["verify", "--case", "BII:n=2,s=1", "--lambda-height", "1",
                   "--report", str(path)])
        assert rc == 1
        checks = json.loads(path.read_text())["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            ("bottom_normalisation", "pass"), ("matrix_weight", "error"),
            ("weight_symmetry", "error"), ("grid_setup", "error"),
            ("kravchuk_eigen", "pass"), ("difference_operator", "pass")]
        assert checks[3]["detail"] == "ArithmeticError: no weight"

    def test_q_inversion_failure_keeps_detail(self, monkeypatch):
        # no coefficient reconstructs: every label with a series entry is a
        # shortfall at the working order, with its entries and no broken
        # identity; Q_0 is the identity, exact, so its label still passes
        import macpoly.cases as cases_mod

        monkeypatch.setattr(cases_mod, "rational_reconstruct",
                            lambda series: None)
        report, status = run_verify("AI2", height=1)
        assert status == 1
        entry = next(c for c in report["checks"] if c["name"] == "q_inversion")
        assert entry["status"] == "shortfall"
        failed = entry["failed_labels"]
        assert sorted(f["lambda"] for f in failed) == [[0, 1], [1, 0]]
        for f in failed:
            assert f["status"] == "shortfall"
            assert f["entries"] and f["failures"] == []
            assert f["order"] == 100
        json.dumps(report)

    def test_q_inversion_broken_identity_keeps_both(self, monkeypatch):
        # recovered entries that break q -> 1/q are a failure, reported
        # next to the entries that did not reconstruct
        import macpoly.cases as cases_mod

        real = cases_mod.rational_reconstruct
        calls = []

        def flaky(series):
            # every other coefficient reconstructs, shifted by v: v * x is
            # not fixed by q -> 1/q unless x is zero
            calls.append(None)
            if len(calls) % 2:
                return None
            got = real(series)
            return got * ExactScalar.v_power(1)

        monkeypatch.setattr(cases_mod, "rational_reconstruct", flaky)
        report, status = run_verify("AI2", height=1)
        assert status == 1
        entry = next(c for c in report["checks"] if c["name"] == "q_inversion")
        assert entry["status"] == "fail"
        for f in entry["failed_labels"]:
            assert f["status"] == "fail"
            assert f["failures"] and f["entries"] and f["order"] == 100
        json.dumps(report)

    def test_q_inversion_pass_is_bare(self):
        report, status = run_verify("DII:n=2", height=1)
        assert status == 0
        entry = next(c for c in report["checks"] if c["name"] == "q_inversion")
        assert entry == {"name": "q_inversion", "status": "pass"}

    @pytest.mark.parametrize("cid,certified", [("AI2", 100), ("A2G", "exact")])
    def test_certified_order(self, cid, certified, capsys):
        report, status = run_verify(cid, height=1)
        assert status == 0
        ortho = next(c for c in report["checks"] if c["name"] == "orthogonality")
        assert ortho["certified_order"] == certified
        # raising AI2's order to 100 is said once on stderr
        notes = capsys.readouterr().err.count("note: AI2 runs at order 100")
        assert notes == (cid == "AI2")

    def test_config_error_exit_code(self, capsys):
        rc = main(["verify", "--case", "nope"])
        assert rc == 2

    @pytest.mark.parametrize("cid", ["AI2:n=5", "BII:n=2,n=3",
                                     "BII:n=2,s=0,t=1", "DII:n=2,s=1"])
    def test_bad_case_parameters_exit_code(self, cid, capsys):
        # a parameter the case does not take, or one given twice
        rc = main(["verify", "--case", cid, "--lambda-height", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: case ") and err.count("\n") == 1

    @pytest.mark.parametrize("cid, missing", [("CII", "n, s"),
                                              ("BII:n=2", "s"),
                                              ("DII", "n")])
    def test_missing_case_parameter_exit_code(self, cid, missing, capsys):
        # no default stands in for a parameter nobody typed: the message
        # names what is missing, and no check runs
        rc = main(["verify", "--case", cid])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: case %s: missing parameter %s\n" % (
            cid.partition(":")[0], missing)

    @pytest.mark.parametrize("cid, value", [("BII:n=2,s=-1", "-1"),
                                            ("BII:n=2,s=x", "x")])
    def test_bad_case_parameter_value_exit_code(self, cid, value, capsys):
        # the message names the parameter and the value given
        rc = main(["verify", "--case", cid, "--lambda-height", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: case BII: s must be an integer >= 0, got %r\n"
                       % value)

    def test_negative_height_exit_code(self, capsys):
        rc = main(["verify", "--case", "DII:n=2", "--lambda-height", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: height must be >= 0, got -1\n"

    def test_cache_dir_naming_a_file_exit_code(self, tmp_path, capsys):
        import macpoly.weights as wm

        path = tmp_path / "f"
        path.write_text("")
        rc = main(["verify", "--case", "DII:n=2", "--lambda-height", "0",
                   "--cache-dir", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert wm._cache_dir != str(path)

    def test_report_under_a_file_exit_code(self, monkeypatch, tmp_path,
                                           capsys):
        # the report path is checked before any check runs
        import macpoly.cli as cli_mod

        def no_checks(*args, **kwargs):
            raise AssertionError("checks ran before the report was checked")

        monkeypatch.setattr(cli_mod, "run_verify", no_checks)
        (tmp_path / "f").write_text("")
        rc = main(["verify", "--case", "DII:n=2",
                   "--report", str(tmp_path / "f" / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("order", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--case", "DII:n=2", "--lam", "1"],
        ["verify", "--case", "DII:n=2", "--lambda-height", "0"],
        ["verify", "--case", "AI2", "--lambda-height", "0"]])
    def test_nonpositive_order_exit_code(self, argv, order, capsys):
        # build_case refuses the plan; AI2's raised order does not hide it
        rc = main(argv + ["--order", order])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: order must be > 0, got %s\n" % order

    def test_cache_reproducibility(self, monkeypatch, tmp_path):
        cache = str(tmp_path / "cache")
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        wm.set_cache_dir(cache)
        # AI2 is the case whose verify expands a series weight, the only
        # thing the cache holds
        r1, s1 = run_verify("AI2", height=0)
        r2, s2 = run_verify("AI2", height=0)
        assert s1 == s2 == 0
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert os.listdir(cache)

    def test_corrupt_cache_file_is_a_miss(self, monkeypatch, tmp_path):
        # unreadable or malformed cache files are rebuilt and overwritten,
        # and the report equals the one from an empty cache
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        argv = ["verify", "--case", "AI2", "--lambda-height", "0",
                "--cache-dir", str(cache)]
        assert main(argv + ["--report", str(tmp_path / "cold.json")]) == 0
        files = sorted(cache.iterdir())
        assert len(files) == 2
        good = [f.read_bytes() for f in files]
        files[0].write_bytes(good[0][:len(good[0]) // 2])
        files[1].write_text('{"plus": []}')
        assert main(argv + ["--report", str(tmp_path / "warm.json")]) == 0
        assert sorted(cache.iterdir()) == files
        assert [f.read_bytes() for f in files] == good
        assert ((tmp_path / "warm.json").read_text()
                == (tmp_path / "cold.json").read_text())

    def test_swapped_cache_files_are_misses(self, monkeypatch, tmp_path):
        # each file holds its key: with the two files' contents swapped,
        # both are misses, rebuilt and rewritten, and the warm report equals
        # the cold one
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", str(tmp_path))
        cold, status = run_verify("AI2", height=1)
        assert status == 0
        files = sorted(tmp_path.iterdir())
        assert len(files) == 2
        good = [f.read_bytes() for f in files]
        files[0].write_bytes(good[1])
        files[1].write_bytes(good[0])
        warm, status = run_verify("AI2", height=1)
        assert status == 0
        assert json.dumps(warm) == json.dumps(cold)
        assert [f.read_bytes() for f in sorted(tmp_path.iterdir())] == good

    def test_edited_cache_numbers_are_misses(self, monkeypatch, tmp_path):
        # each file holds the digest of its table's text: with the lowest
        # coefficient of the [0, 0] row raised by the denominator in both
        # files, both are misses, rebuilt and rewritten, and the warm report
        # is byte-identical to the cold one
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        argv = ["verify", "--case", "AI2", "--lambda-height", "1",
                "--cache-dir", str(cache)]
        assert main(argv + ["--report", str(tmp_path / "cold.json")]) == 0
        files = sorted(cache.iterdir())
        assert len(files) == 2
        good = [f.read_bytes() for f in files]
        for f in files:
            data = json.loads(f.read_text())
            table = data["table"]
            row = next(num for e, num in table["terms"] if e == [0, 0])
            row[0][1] += table["den"]
            f.write_text(json.dumps(data))
        assert [f.read_bytes() for f in files] != good
        assert main(argv + ["--report", str(tmp_path / "warm.json")]) == 0
        assert sorted(cache.iterdir()) == files
        assert [f.read_bytes() for f in files] == good
        assert ((tmp_path / "warm.json").read_bytes()
                == (tmp_path / "cold.json").read_bytes())

    def test_cache_file_certifies_nothing(self, monkeypatch, tmp_path):
        # the plan and the certified order come from the case, never from a
        # file: files that claim a lower working order `work` and table
        # order `prec`, or a higher `guaranteed` order (keys older builds
        # wrote), are read as before, and the warm report equals the cold
        # one
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        argv = ["verify", "--case", "AI2", "--lambda-height", "1",
                "--cache-dir", str(cache)]
        assert main(argv + ["--report", str(tmp_path / "cold.json")]) == 0
        files = sorted(cache.iterdir())
        assert len(files) == 2
        edit = {"work": 40, "prec": 40, "guaranteed": 400}
        for f in files:
            data = json.loads(f.read_text())
            assert not edit.keys() & data.keys()
            data.update(edit)
            f.write_text(json.dumps(data))
        assert main(argv + ["--report", str(tmp_path / "warm.json")]) == 0
        # a hit: nothing was rebuilt or rewritten
        assert sorted(cache.iterdir()) == files
        assert all(json.loads(f.read_text()).items() >= edit.items()
                   for f in files)
        warm = (tmp_path / "warm.json").read_text()
        assert warm == (tmp_path / "cold.json").read_text()
        ortho = next(c for c in json.loads(warm)["checks"]
                     if c["name"] == "orthogonality")
        assert ortho["certified_order"] == 100

    def test_unwritable_cache_file_is_a_miss(self, monkeypatch, tmp_path):
        # a cache path that cannot be written (here a directory) costs only
        # the store: every check passes, the report equals the one without
        # a cache, and no temporary file is left behind
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        argv = ["verify", "--case", "AI2", "--lambda-height", "0"]
        assert main(argv + ["--report", str(tmp_path / "plain.json")]) == 0
        argv += ["--cache-dir", str(cache)]
        assert main(argv + ["--report", str(tmp_path / "cold.json")]) == 0
        names = sorted(os.listdir(cache))
        assert len(names) == 2
        for name in names:
            (cache / name).unlink()
            (cache / name).mkdir()
        assert main(argv + ["--report", str(tmp_path / "blocked.json")]) == 0
        assert sorted(os.listdir(cache)) == names
        assert all((cache / name).is_dir() for name in names)
        assert ((tmp_path / "blocked.json").read_text()
                == (tmp_path / "plain.json").read_text())

    def test_cache_dir_is_a_flag_only(self, monkeypatch, tmp_path):
        # the environment names no cache directory: a verify without
        # --cache-dir writes no file, wherever MACPOLY_CACHE points
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        monkeypatch.setenv("MACPOLY_CACHE", str(cache))
        assert main(["verify", "--case", "AI2", "--lambda-height", "0",
                     "--report", str(tmp_path / "r.json")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["r.json"]
        assert wm._cache_dir is None

    def test_verify_without_cache_dir_uses_no_cache(self, monkeypatch,
                                                     tmp_path):
        # a verify without --cache-dir neither reads
        # nor writes the directory an earlier verify in the process used
        import macpoly.weights as wm

        monkeypatch.setattr(wm, "_cache_dir", None)
        cache = tmp_path / "cache"
        argv = ["verify", "--case", "AI2", "--lambda-height", "0",
                "--report", str(tmp_path / "r.json")]
        assert main(argv + ["--cache-dir", str(cache)]) == 0
        assert len(os.listdir(cache)) == 2
        for name in os.listdir(cache):
            (cache / name).unlink()
        assert main(argv) == 0
        assert os.listdir(cache) == []

    def test_cache_files_and_no_crypto_library(self, tmp_path):
        # AI2 at h0, cold then warm on one directory, each in a fresh
        # process: the cold run writes the two files that every build of
        # format version 6 names, the warm run reads them and writes none,
        # and neither run loads OpenSSL's libcrypto (hashlib's _hashlib)
        import subprocess
        import sys

        import macpoly

        src = os.path.dirname(os.path.dirname(macpoly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        cache = tmp_path / "cache"
        script = (
            "import json, sys\n"
            "from macpoly.cli import main\n"
            "rc = main(['verify', '--case', 'AI2', '--lambda-height', '0',\n"
            "           '--cache-dir', sys.argv[1], '--report', sys.argv[2]])\n"
            "try:\n"
            "    import _sha1\n"
            "except ImportError:\n"
            "    _sha1 = None\n"
            "print(json.dumps([rc, _sha1 is not None,\n"
            "                  '_hashlib' in sys.modules]))\n")

        def run(name):
            done = subprocess.run(
                [sys.executable, "-c", script, str(cache),
                 str(tmp_path / name)],
                env=env, cwd=tmp_path, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        def files():
            return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns,
                             p.read_bytes()) for p in cache.iterdir()}

        cold = run("cold.json")
        written = files()
        assert sorted(written) == [
            "e500421174b16f52a2fb33aee04dfb6650accee2.json",
            "f45f8202e4eacab3cb2cc48cbd3b43c25601983d.json"]
        warm = run("warm.json")
        assert files() == written
        assert ((tmp_path / "warm.json").read_bytes()
                == (tmp_path / "cold.json").read_bytes())
        assert cold[0] == warm[0] == 0
        if not cold[1]:
            pytest.skip("this interpreter has no built-in _sha1 module")
        assert not cold[2] and not warm[2]
