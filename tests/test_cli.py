import inspect
import json

import numpy as np
import pytest

import centrokdv.backlund as bk
import centrokdv.cli as cli
import centrokdv.curve_core as cc
import centrokdv.kdv_flow as kf


def run(*argv):
    return cli.main([str(a) for a in argv])


def gen_circle(tmp_path, n=128):
    path = tmp_path / "circle.json"
    assert run("gen", "--preset", "circle", "--n", n, "--output", path) == 0
    return path


def gen_trig(tmp_path, seed=3, strength=0.3):
    path = tmp_path / f"trig{seed}.json"
    args = ("gen", "--preset", "trig", "--n", 128, "--seed", seed, "--strength", strength)
    assert run(*args, "--output", path) == 0
    return path


def test_gen_is_deterministic(tmp_path):
    a = gen_trig(tmp_path, seed=3)
    b = tmp_path / "again.json"
    run("gen", "--preset", "trig", "--n", 128, "--seed", 3, "--strength", 0.3, "--output", b)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "other.json"
    run("gen", "--preset", "trig", "--n", 128, "--seed", 4, "--strength", 0.3, "--output", c)
    assert a.read_bytes() != c.read_bytes()


def test_gen_records_provenance(tmp_path):
    doc = json.loads(gen_trig(tmp_path, seed=9).read_text())
    assert doc["kind"] == "projective"
    assert doc["meta"]["seed"] == 9 and doc["meta"]["preset"] == "trig"


def test_lift_project_roundtrip(tmp_path):
    src = gen_trig(tmp_path)
    plane, back = tmp_path / "plane.json", tmp_path / "back.json"
    assert run("lift", "--input", src, "--output", plane) == 0
    assert run("project", "--input", plane, "--output", back) == 0
    a = np.array(json.loads(src.read_text())["psi"])
    b = np.array(json.loads(back.read_text())["psi"])
    assert np.max(np.abs(a - b)) < 1e-12


def test_lift_rejects_plane_curve(tmp_path, capsys):
    src = gen_trig(tmp_path)
    plane = tmp_path / "plane.json"
    run("lift", "--input", src, "--output", plane)
    assert run("lift", "--input", plane, "--output", tmp_path / "x.json") == 2
    assert capsys.readouterr().err.startswith("ERROR ValueError:")


def test_lift_of_a_curve_too_rough_for_its_grid_exits_3(tmp_path, capsys):
    src = tmp_path / "rough.json"
    assert run("gen", "--preset", "trig", "--n", 64, "--seed", 7, "--output", src) == 0
    assert run("lift", "--input", src, "--output", tmp_path / "plane.json") == 3
    assert capsys.readouterr().err.startswith("ERROR OffUnity: lifted curve: Wronskian off unity by ")


def test_backlund_refuses_a_bad_constant_before_lifting(tmp_path, capsys):
    # the same rough curve: the constant is checked first, so the exit is 2, not the lift's 3
    src = tmp_path / "rough.json"
    assert run("gen", "--preset", "trig", "--n", 64, "--seed", 7, "--output", src) == 0
    assert run("backlund", "--input", src, "--output", tmp_path / "image.json", "--c", "1e300") == 2
    assert "affine parameter 1e+300" in capsys.readouterr().err


def test_scan_refuses_a_bad_constant_before_writing(tmp_path, capsys):
    # the constant is checked before the input's scan is integrated, so no --output is left behind
    src = tmp_path / "rough.json"
    assert run("gen", "--preset", "trig", "--n", 64, "--seed", 7, "--output", src) == 0
    out, delta = tmp_path / "scan.csv", tmp_path / "delta.csv"
    assert run("scan", "--input", src, "--output", out, "--c", -1, "--delta-output", delta) == 2
    assert capsys.readouterr().err.startswith("ERROR NegativeProjective:")
    assert not out.exists() and not delta.exists()


def test_scan_writes_nothing_when_the_transform_fails(tmp_path, capsys):
    # both scans and the transform run before either CSV is written
    circle = gen_circle(tmp_path, n=64)
    out, delta = tmp_path / "scan.csv", tmp_path / "delta.csv"
    assert run("scan", "--input", circle, "--output", out, "--c", 0.5, "--delta-output", delta) == 3
    assert capsys.readouterr().err.startswith("ERROR NoRealFixedPoints:")
    assert not out.exists() and not delta.exists()


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "projective"}, "'psi'"),
        ({"kind": "projective", "psi": None}, "'psi'"),
        ({"kind": "centro_affine", "gamma2": [0.0] * 16}, "'gamma1'"),
        ({"kind": "centro_affine", "gamma1": [0.0] * 16, "gamma2": None}, "'gamma2'"),
        ([0.0] * 16, "JSON object"),
    ],
    ids=["no_psi", "null_psi", "no_gamma1", "null_gamma2", "top_level_list"],
)
def test_malformed_curve_file_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    assert run("lift", "--input", src, "--output", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ValueError:") and field in err


def test_missing_input_exits_2(tmp_path, capsys):
    rc = run("lift", "--input", tmp_path / "nope.json", "--output", tmp_path / "x.json")
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR FileNotFoundError:")


def test_backlund_writes_image_and_report(tmp_path, capsys):
    circle = gen_circle(tmp_path)
    out = tmp_path / "image.json"
    rc = run("backlund", "--input", circle, "--c", 0.5, "--c-kind", "affine", "--output", out)
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c_pr"] == 4.0
    for key in ("H1", "H2", "I", "J", "K"):
        rel = abs(report["after"][key] - report["before"][key]) / max(1.0, abs(report["before"][key]))
        assert rel < 1e-8
    image = cc.load_curve(out)
    assert isinstance(image, cc.CentroAffineCurve)


def test_backlund_elliptic_parameter_exits_3(tmp_path, capsys):
    circle = gen_circle(tmp_path)
    rc = run("backlund", "--input", circle, "--c", 2, "--c-kind", "affine",
             "--output", tmp_path / "junk.json")
    assert rc == 3
    assert capsys.readouterr().err.startswith("ERROR NoRealFixedPoints:")


def test_backlund_image_off_unit_wronskian_exits_3(tmp_path, capsys, monkeypatch):
    # scaling the built image by 1 + 1e-9 moves its Wronskian about 2e-9 off unity
    build = bk.plane_map

    def off_unity(*args):
        g1, g2, pot = build(*args)
        return (1.0 + 1e-9) * g1, (1.0 + 1e-9) * g2, pot

    monkeypatch.setattr(bk, "plane_map", off_unity)
    src = gen_circle(tmp_path)
    assert run("backlund", "--input", src, "--c", 0.5, "--output", tmp_path / "img.json") == 3
    assert capsys.readouterr().err.startswith("ERROR OffUnity:")


def test_backlund_zero_parameter_exits_2(tmp_path, capsys):
    circle = gen_circle(tmp_path)
    rc = run("backlund", "--input", circle, "--c", 0, "--output", tmp_path / "junk.json")
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR ZeroParam:")


def test_scan_circle_matches_closed_form(tmp_path):
    circle = gen_circle(tmp_path)
    out = tmp_path / "scan.csv"
    rc = run("scan", "--input", circle, "--lambda-min", 0, "--lambda-max", 1,
             "--lambda-steps", 11, "--output", out)
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,tr2"
    assert len(lines) == 12
    table = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    closed = 4.0 * np.cos(np.pi * np.sqrt(1.0 - table[:, 0])) ** 2
    assert np.max(np.abs(table[:, 1] - closed)) < 1e-8

    # hyperbolic range: every written trace squared is positive and on the closed form
    rc = run("scan", "--input", circle, "--lambda-min", 90, "--lambda-max", 110,
             "--lambda-steps", 5, "--output", out)
    assert rc == 0
    table = np.array([[float(x) for x in row.split(",")] for row in out.read_text().strip().splitlines()[1:]])
    closed = 4.0 * np.cosh(np.pi * np.sqrt(table[:, 0] - 1.0)) ** 2
    assert np.all(table[:, 1] > 0.0)
    assert np.max(np.abs(table[:, 1] / closed - 1.0)) < 1e-6


def test_scan_with_transform_prints_deviation(tmp_path, capsys):
    trig = gen_trig(tmp_path)
    out, dout = tmp_path / "scan.csv", tmp_path / "scan_delta.csv"
    rc = run("scan", "--input", trig, "--c", 4.0, "--c-kind", "projective",
             "--output", out, "--delta-output", dout)
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("max deviation: ")
    assert float(line.split(": ")[1]) < 1e-6
    assert len(dout.read_text().strip().splitlines()) == 22


def test_scan_requires_delta_output(tmp_path, capsys):
    # --c and --delta-output go together; either one alone exits 2 before any integration
    trig = gen_trig(tmp_path)
    out, dout = tmp_path / "scan.csv", tmp_path / "scan_delta.csv"
    for half in (("--c", 4.0), ("--delta-output", dout)):
        assert run("scan", "--input", trig, *half, "--output", out) == 2
        assert capsys.readouterr().err.startswith("ERROR ValueError:")
        assert not out.exists() and not dout.exists()


def test_scan_is_deterministic(tmp_path):
    trig = gen_trig(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("scan", "--input", trig, "--output", a)
    run("scan", "--input", trig, "--output", b)
    assert a.read_bytes() == b.read_bytes()


def test_kdv_trace(tmp_path):
    trig = gen_trig(tmp_path)
    plane = tmp_path / "plane.json"
    run("lift", "--input", trig, "--output", plane)
    out = tmp_path / "trace.csv"
    rc = run("kdv", "--input", plane, "--s-end", 0.02, "--samples", 4, "--output", out)
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,H1,H2,I,J,K"
    assert len(lines) == 6
    table = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert abs(table[-1, 0] - 0.02) < 1e-15
    assert np.max(np.abs(table[:, 1] - table[0, 1])) < 1e-9


def test_kdv_accepts_projective_input(tmp_path):
    trig = gen_trig(tmp_path)
    out = tmp_path / "trace.csv"
    assert run("kdv", "--input", trig, "--s-end", 0.01, "--output", out) == 0


def test_permutability_report(tmp_path, capsys):
    trig = gen_trig(tmp_path)
    rc = run("permutability", "--input", trig, "--c", 5.0, "--c2", 3.0)
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["both_orders_distance"] < 1e-6
    assert abs(report["mu"] + 2.0 / 3.0) < 1e-15


def test_permutability_match_failure_exits_3_with_a_plain_number(tmp_path, capsys):
    trig = gen_trig(tmp_path)
    assert run("permutability", "--input", trig, "--c", 5.0, "--c2", 3.0, "--tol", 1e-20) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR MatchFailure: branch 'minus' starts ")
    assert 0.0 < float(err.split(" starts ")[1].split()[0]) < 1e-6


def test_flow_step_and_match_tolerance_defaults_have_one_home(monkeypatch):
    assert inspect.signature(kf.evolve_curve).parameters["ds"].default == kf.DEFAULT_DS
    assert inspect.signature(bk.permutability_square).parameters["match_tol"].default == bk.MATCH_TOL
    # the command reads both when it builds its parser
    monkeypatch.setattr(kf, "DEFAULT_DS", 2.5e-4)
    monkeypatch.setattr(bk, "MATCH_TOL", 3e-6)
    parser = cli._parser()
    assert parser.parse_args(["kdv", "--input", "x", "--s-end", "1", "--output", "y"]).ds == 2.5e-4
    assert parser.parse_args(["permutability", "--input", "x", "--c", "1", "--c2", "2"]).tol == 3e-6


def test_permutability_equal_constants_exit_2(tmp_path, capsys):
    trig = gen_trig(tmp_path)
    rc = run("permutability", "--input", trig, "--c", 4.0, "--c2", 4.0)
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERROR Degenerate:")


@pytest.mark.parametrize(
    "argv",
    [("scan",), ("permutability", "--c", 5.0, "--c2", 3.0)],
)
def test_zero_substeps_exits_2(tmp_path, capsys, argv):
    trig = gen_trig(tmp_path)
    assert run(*argv, "--input", trig, "--output", tmp_path / "out", "--substeps", 0) == 2
    assert capsys.readouterr().err.startswith("ERROR ValueError: substeps must be at least 1")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("permutability", "--c", 5.0, "--c2", 3.0, "--tol", "nan"), "match_tol"),
        (("permutability", "--c", 5.0, "--c2", 3.0, "--tol", -1), "match_tol"),
        (("backlund", "--c", "inf"), "affine parameter"),
        (("scan", "--lambda-max", "inf"), "--lambda-max"),
        (("scan", "--lambda-min", "nan"), "--lambda-min"),
        (("scan", "--lambda-steps", 0), "--lambda-steps"),
        (("kdv", "--s-end", 0.01, "--ds", "nan"), "ds must be"),
        (("kdv", "--s-end", "1e308", "--ds", "1e-10"), "s_end / ds must be"),
        (("backlund", "--c", "1e300"), "affine parameter 1e+300"),
        (("backlund", "--c", "1e-300"), "affine parameter 1e-300"),
    ],
)
def test_bad_numbers_exit_2_naming_the_argument(tmp_path, capsys, argv, name):
    trig = gen_trig(tmp_path)
    assert run(*argv, "--input", trig, "--output", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ValueError:") and name in err


@pytest.mark.parametrize("argv", [("--s-end", "1e300"), ("--s-end", 0.02, "--samples", 10**12)])
def test_kdv_refuses_a_flow_too_long_to_finish_before_writing(tmp_path, capsys, monkeypatch, argv):
    trig = gen_trig(tmp_path)
    monkeypatch.setattr(kf, "_advance_spectrum", lambda *a, **kw: pytest.fail("started the march"))
    out = tmp_path / "trace.csv"
    assert run("kdv", "--input", trig, *argv, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ValueError: s_end = ") and "takes over 10000000 steps" in err
    assert not out.exists()


def test_selfcheck_passes(capsys):
    assert run("selfcheck", "--n", 128, "--seed", 7) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert out.count("PASS") == 12
    assert "FAIL" not in out.replace("PASS", "")


def test_selfcheck_rejects_an_odd_sample_count(capsys):
    assert run("selfcheck", "--n", 63) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR ValueError: need an even sample count >= 16, got 63\n"


@pytest.mark.parametrize("n", [0, -4])
def test_selfcheck_names_a_sample_count_below_the_minimum(n, capsys):
    assert run("selfcheck", "--n", n) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR ValueError: need an even sample count >= 16, got {n}\n"


def test_selfcheck_reports_every_suite_when_one_misses_a_gate(capsys):
    # at n = 64 the strength-0.6 stream curve of symplectic_invariance misses
    # lift's unit-Wronskian gate, an OffUnity; the run still reports all twelve suites
    assert run("selfcheck", "--n", 64, "--seed", 7) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "selfcheck n=64 seed=7" and lines[-1] == "FAILURES PRESENT"
    suites = lines[1:-1]
    assert len(suites) == 12
    gate_miss = next(line for line in suites if line.startswith("symplectic_invariance "))
    assert gate_miss.split()[1:] == ["inf", "tol", "1.0e-06", "margin", "-inf", "FAIL", "OffUnity"]
    assert suites[0].startswith("spectral_calculus ") and suites[0].endswith("PASS")


def test_backlund_shoots_with_apply_tc_step_rule_and_takes_no_substeps(tmp_path, capsys):
    trig = gen_trig(tmp_path)
    out = tmp_path / "image.json"
    with pytest.raises(SystemExit) as exc:  # argparse refuses the unknown option
        run("backlund", "--input", trig, "--c", 0.5, "--output", out, "--substeps", 8)
    assert exc.value.code == 2 and not out.exists()
    assert "unrecognized arguments: --substeps 8" in capsys.readouterr().err
    assert run("backlund", "--input", trig, "--c", 0.5, "--output", out) == 0
    image, want = cc.load_curve(out), bk.apply_tc(cc.lift(cc.load_curve(trig)), 0.5, "minus").image
    assert np.array_equal(image.gamma1.samples, want.gamma1.samples)
    assert np.array_equal(image.gamma2.samples, want.gamma2.samples)


def test_scan_with_a_transform_beyond_double_range_exits_3(tmp_path, capsys):
    circle = gen_circle(tmp_path, n=64)
    out, delta = tmp_path / "scan.csv", tmp_path / "delta.csv"
    assert run("scan", "--input", circle, "--output", out, "--c", 3e4, "--delta-output", delta) == 3
    assert capsys.readouterr().err.startswith("ERROR StepUnstable:")


def test_scan_beyond_double_range_exits_3_and_writes_nothing(tmp_path, capsys):
    circle = gen_circle(tmp_path, n=64)
    out = tmp_path / "scan.csv"
    assert run("scan", "--input", circle, "--output", out, "--lambda-max", 1e6) == 3
    assert capsys.readouterr().err.startswith("ERROR StepUnstable: projective period map at lambda = ")
    assert not out.exists()


def test_backlund_at_a_constant_beyond_double_range_exits_3(tmp_path, capsys):
    src = tmp_path / "trig1.json"
    assert run("gen", "--preset", "trig", "--n", 128, "--seed", 1, "--output", src) == 0
    assert run("backlund", "--input", src, "--output", tmp_path / "image.json", "--c", 0.007) == 3
    assert capsys.readouterr().err.startswith("ERROR StepUnstable: plane shot at c = 0.007: ")
    assert not (tmp_path / "image.json").exists()
