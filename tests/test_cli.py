import hashlib
import json

import pytest

from ckgeo import cli, oracle
from ckgeo.cli import main
from ckgeo.errors import BallBudgetError
from ckgeo.oracle import build_ball


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEvalLenStd:
    def test_eval(self, capsys):
        rc, out, _ = run(capsys, "eval", "abAb")
        assert (rc, out) == (0, "(1,0,0)\n")

    def test_eval_syllable_input(self, capsys):
        rc, out, _ = run(capsys, "eval", "b^-2 a b^-4 a^3")
        assert (rc, out) == (0, "(-4,2,4)\n")

    def test_len(self, capsys):
        rc, out, _ = run(capsys, "len", "(-4,2,4)")
        assert (rc, out) == (0, "10\n")

    def test_std(self, capsys):
        rc, out, _ = run(capsys, "std", "(-4,2,4)")
        assert (rc, out) == (0, "b^-2 a b^-4 a^3\n")

    def test_std_identity(self, capsys):
        rc, out, _ = run(capsys, "std", "(0,0,0)")
        assert (rc, out) == (0, "e\n")

    def test_continuations(self, capsys):
        rc, out, _ = run(capsys, "continuations", "(3,0,0)")
        assert (rc, out) == (0, "b\n")


class TestIsGeodesic:
    def test_true(self, capsys):
        rc, out, _ = run(capsys, "is-geodesic", "abAb")
        assert (rc, out) == (0, "true\n")

    def test_false(self, capsys):
        rc, out, _ = run(capsys, "is-geodesic", "aA")
        assert (rc, out) == (0, "false\n")


class TestOrbit:
    def test_text_output(self, capsys):
        rc, out, _ = run(capsys, "orbit", "abAb")
        assert rc == 0
        assert out.splitlines() == ["a b a^-1 b", "a^-1 b a b", "b a b a^-1", "b a^-1 b a"]

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "orbit", "--json", "bbb")
        assert rc == 0
        data = json.loads(out)
        assert data == {"word": "b^3", "element": "(0,3,0)", "size": 1, "words": ["b^3"]}

    def test_cap_exit_code(self, capsys):
        rc, _, err = run(capsys, "orbit", "aBaaBB", "--cap", "2")
        assert rc == 3
        assert "cap" in err


class TestTheorem2:
    def test_text_line(self, capsys):
        rc, out, _ = run(capsys, "check-theorem2", "(2,0,0)")
        assert rc == 0
        assert out == "element=(2,0,0) length=6 geodesics=6 orbit=6 connected=true\n"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "check-theorem2", "--json", "(1,0,0)")
        assert rc == 0
        data = json.loads(out)
        assert data["connected"] is True
        assert data["geodesic_count"] == 4

    def test_geodesic_cap_fails_before_any_ball(self, capsys, monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("build_ball called past the geodesic budget")

        monkeypatch.setattr(oracle, "build_ball", no_ball)
        rc, out, err = run(capsys, "check-theorem2", "(40,40,40)")
        assert rc == 3
        assert out == ""
        assert "geodesic_cap=100000" in err

    def test_huge_element_fails_fast_without_the_exact_count(self, capsys, monkeypatch):
        import math

        def fail(*args, **kwargs):
            raise AssertionError("expensive work started past the geodesic budget")

        monkeypatch.setattr(math, "comb", fail)
        monkeypatch.setattr(oracle, "build_ball", fail)
        rc, out, err = run(capsys, "check-theorem2", "(1000000,1000000,1000000)")
        assert rc == 3
        assert out == ""
        assert err == (
            "error: (1000000,1000000,1000000) has more geodesics than"
            " geodesic_cap=100000\n"
        )


class TestBall:
    def test_summary_line(self, capsys):
        rc, out, _ = run(capsys, "ball", "1")
        assert rc == 0
        line = out.strip()
        assert line == "model=ck radius=1 states=5 levels=1,4 backend=pure"

    def test_csv_export(self, capsys):
        rc, out, _ = run(capsys, "ball", "1", "--export", "csv")
        assert rc == 0
        assert out == "k,m,n,distance\n0,0,0,0\n0,-1,0,1\n0,0,-1,1\n0,0,1,1\n0,1,0,1\n"

    def test_jsonl_export(self, capsys):
        rc, out, _ = run(capsys, "ball", "1", "--export", "jsonl")
        assert rc == 0
        assert out.splitlines()[0] == '{"k":0,"m":0,"n":0,"distance":0}'

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ball.csv"
        rc, out, _ = run(capsys, "ball", "1", "--export", "csv", "--out", str(target))
        assert rc == 0
        assert target.read_text().startswith("k,m,n,distance\n")

    def test_other_models(self, capsys):
        rc, out, _ = run(capsys, "ball", "10", "--model", "klein")
        assert rc == 0
        assert "states=221" in out

    def test_max_states_exit(self, capsys):
        rc, _, err = run(capsys, "ball", "12", "--max-states", "100")
        assert rc == 3
        assert "budget" in err or "states" in err

    def test_max_states_error_reports_progress(self, capsys):
        with pytest.raises(BallBudgetError) as info:
            build_ball("ck", 12, max_states=100)
        rc, out, err = run(capsys, "ball", "12", "--max-states", "100")
        assert rc == 3
        assert out == ""
        assert f"reached {info.value.states} states" in err
        assert f"{info.value.levels_completed} levels completed" in err


class TestAudit:
    def test_ck_passes(self, capsys):
        rc, out, _ = run(capsys, "audit", "--model", "ck", "--radius", "6")
        assert rc == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["suites"]["standard_language"]["certified_verdict"] == "pass"
        assert data["suites"]["standard_language"]["unexpected_prefix_failures"] == []
        assert data["known_deviations"]["count"] == 18

    def test_quotients_pass(self, capsys):
        for model in ("z2", "klein"):
            rc, out, _ = run(capsys, "audit", "--model", model, "--radius", "8")
            assert rc == 0
            assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("model", ["ck", "klein", "z2"])
    def test_radius_zero_passes(self, capsys, model):
        # The ball is the identity alone; no terminal standard words are
        # expected below length 0.
        rc, out, err = run(capsys, "audit", "--model", model, "--radius", "0")
        assert (rc, err) == (0, "")
        assert json.loads(out)["verdict"] == "pass"

    def test_negative_control_fails(self, capsys):
        rc, out, _ = run(capsys, "audit", "--model", "ck", "--radius", "6", "--negative-control")
        assert rc == 5
        data = json.loads(out)
        assert data["verdict"] == "fail"

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run(capsys, "audit", "--model", "ck", "--radius", "6")
        rc2, out2, _ = run(capsys, "audit", "--model", "ck", "--radius", "6")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_klein_negative_control_rejected_before_any_ball(self, capsys, monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("build_ball called for an unsupported audit")

        monkeypatch.setattr(oracle, "build_ball", no_ball)
        monkeypatch.setattr(cli, "build_ball", no_ball)
        rc, out, err = run(capsys, "audit", "--model", "klein", "--negative-control")
        assert rc == 2
        assert out == ""
        assert "--negative-control" in err

    # SHA-256 of the audit's stdout and its exit code: r = 8 and 12 recorded
    # before the audit's closed-form layer was rewritten, r = 16 before the
    # per-state checks moved to tuple arithmetic; a change to any suite's
    # output shows here.
    @pytest.mark.parametrize(
        "model,radius,negative_control,code,digest",
        [
            ("ck", 8, False, 0, "db7247b0abf33c3c02d1163b693590fa40229e3705240b8f07fc1b12182ba30f"),
            ("ck", 8, True, 5, "14d28c497615f80389ca938cba97b3e52fbc6056c8ef21062a3fb6ac85f7df92"),
            ("klein", 8, False, 0, "0053e6d963e1722a6584b20e78f5de6e869d17e81c002b78c184454c0f257ccc"),
            ("z2", 8, False, 0, "1e66d9ba85825ad597e7969db5ddc6534687c00c33133d6d33f44f16d578457a"),
            ("z2", 8, True, 5, "4aeb94edd48d265eb6829f88ebe184788dfce70f8d361d0cb69848220790a0a7"),
            ("ck", 12, False, 0, "461dde03a3bb23868306b8b9cb3196f0816b1f1ae9353f9debdaab408fd730d4"),
            ("ck", 12, True, 5, "adf33d645d12fb3df2061680354094cc8aa09a7d7ae749b8785d7ab1cc12b5cc"),
            ("klein", 12, False, 0, "c7f3ff04aed066ada97dd1e64ff5dd76ed448da5b0d197fdd2e2c2022f09a2b9"),
            ("z2", 12, False, 0, "c6c72008604bae578e9b1fedbd325e401d3a32209e5f7a26a27949430745bbe5"),
            ("z2", 12, True, 5, "9e67c99c62e1c6e674f152f65837aeb1c087647424c4ae8af8f326751957761a"),
            ("ck", 16, False, 0, "5bbb8b3b4fcfe26ce160091d5097478da8c020c2beefc88ab40e7fed88eedc41"),
            ("ck", 16, True, 5, "5fefc3a875286dfb7e7e8f00a72d1de87d65fa09ef03ca0e53666469fe4bed18"),
            ("klein", 16, False, 0, "6730833435d06eb22e88f031d432df8da9ce664e91a3cb082c5185cac0e591bc"),
            ("z2", 16, False, 0, "b48c7d311250b6c5dd9b01ed367d386c3f4963b170ea07f2b7ce070c8b1bb8fc"),
            ("z2", 16, True, 5, "b70024623bc285303aec03c5ec650a3296121b5f1957e5bcee9276d5183262f3"),
        ],
    )
    def test_golden_output(self, capsys, model, radius, negative_control, code, digest):
        argv = ["audit", "--model", model, "--radius", str(radius)]
        if negative_control:
            argv.append("--negative-control")
        rc, out, _ = run(capsys, *argv)
        assert rc == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRender:
    def test_stdout_svg(self, capsys):
        rc, out, _ = run(capsys, "render", "abAb")
        assert rc == 0
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")

    def test_matches_golden(self, capsys, tmp_path):
        from pathlib import Path

        golden = (Path(__file__).parent / "golden" / "std_m4_2_4.svg").read_text()
        out_file = tmp_path / "x.svg"
        rc, _, _ = run(
            capsys,
            "render", "b^-2 a b^-4 a^3", "--cells", "--young", "--out", str(out_file),
        )
        assert rc == 0
        assert out_file.read_text() == golden

    def test_young_requires_normalized(self, capsys):
        rc, _, err = run(capsys, "render", "B", "--young")
        assert rc == 2
        assert "normalized" in err


class TestExitCodes:
    def test_parse_error(self, capsys):
        rc, _, err = run(capsys, "eval", "a^x")
        assert rc == 2
        assert "position" in err

    def test_bad_element(self, capsys):
        rc, _, err = run(capsys, "len", "(1,2)")
        assert rc == 2

    def test_io_error(self, capsys):
        rc, _, err = run(capsys, "ball", "2", "--export", "csv", "--out", "/nonexistent/x.csv")
        assert rc == 4

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
