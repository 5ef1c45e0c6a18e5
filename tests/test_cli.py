import json
import os

from macpoly.cli import main, run_verify


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

    def test_json_matrix(self, capsys):
        rc = main(["render", "--case", "A2G", "--what", "M",
                   "--format", "json"])
        assert rc == 0
        json.loads(capsys.readouterr().out)


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
        import macpoly.cases as cases_mod

        case = cases_mod.build_case("DII:n=2")
        orig = case.golden_matrix_fn

        def broken(c):
            M = orig(c)
            M.rows[0][0] = M.rows[0][0].scale(
                __import__("macpoly.scalars", fromlist=["ExactScalar"])
                .ExactScalar.q_power(1))
            return M

        case.golden_matrix_fn = broken
        assert case.matrix_weight_check()["status"] == "fail"

    def test_config_error_exit_code(self, capsys):
        rc = main(["verify", "--case", "nope"])
        assert rc == 2

    def test_negative_height_exit_code(self, capsys):
        rc = main(["verify", "--case", "DII:n=2", "--lambda-height", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_cache_reproducibility(self, tmp_path):
        env = os.environ.get("MACPOLY_CACHE")
        cache = str(tmp_path / "cache")
        r1, s1 = None, None
        import macpoly.weights as wm

        wm.set_cache_dir(cache)
        try:
            r1, s1 = run_verify("BII:n=2,s=1", height=1, order=40)
            r2, s2 = run_verify("BII:n=2,s=1", height=1, order=40)
        finally:
            wm.set_cache_dir(env)
        assert s1 == s2 == 0
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert os.listdir(cache)
