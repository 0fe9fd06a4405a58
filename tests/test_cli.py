import argparse
import ast
import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from berger_cgc import cli, profile, sphere


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def test_csv_rows_match_per_value_formatting(tmp_path):
    # the column writer gives the same bytes as formatting each value on its
    # own: floats with :.17g (the special and extreme ones included),
    # integers in full and bools as true/false, whether the column is a
    # list or an array
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.5,
              0.1, 1 / 3, math.pi, math.inf, -math.inf, math.nan]
    ints = [2**62, -(2**62)] + list(range(len(values) - 2))
    flags = [v < 1 for v in values]
    path = tmp_path / "t.csv"
    cli._write_csv(path, {"a": values, "i": np.array(ints), "b": -np.array(values),
                          "e": np.array(flags), "f": flags})
    want = "a,i,b,e,f\n" + "".join(
        f"{a:.17g},{i},{-a:.17g},{str(e).lower()},{str(e).lower()}\n"
        for a, i, e in zip(values, ints, flags))
    assert path.read_text() == want


def test_csv_columns_of_unequal_length_are_refused(tmp_path):
    # no row is dropped to fit the shortest column
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        cli._write_csv(tmp_path / "t.csv", {"a": [1.0, 2.0, 3.0], "b": np.array([1, 2])})


def test_csv_with_no_rows_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    cli._write_csv(path, {"level": [], "seq": np.arange(0), "X": np.empty(0),
                          "embedded": np.zeros(0, bool)})
    assert path.read_text() == "level,seq,X,embedded\n"


def test_svg_points_match_per_point_formatting(tmp_path):
    # the array mapping gives the same bytes as mapping and formatting each
    # point on its own, including -0 and values that round at 2 decimals
    pts = [(0.0, -1.0), (-0.0, 1.0), (1 / 3, 0.123456), (1.0, -0.0),
           (5e-324, 0.5), (0.000008333, -0.99999), (0.0125, 0.00625)]
    for x_range, y_range, equal_aspect in (((0.0, 1.0), (-1.0, 1.0), False),
                                           ((-1.3, 1.3), (0.0, math.pi / 2), True)):
        path = tmp_path / "t.svg"
        cli._svg(path, [(pts, 1.5), (np.array(pts[2:]), 2.5)], x_range, y_range,
                 equal_aspect=equal_aspect)
        text = path.read_text()
        w, h = (int(v) for v in re.search(r'width="(\d+)" height="(\d+)"', text).groups())
        (x0, x1), (y0, y1) = x_range, y_range
        want = [
            " ".join(f"{(a - x0) / (x1 - x0) * w:.2f},{h - (b - y0) / (y1 - y0) * h:.2f}"
                     for a, b in points)
            for points in (pts, pts[2:])
        ]
        assert re.findall(r'points="([^"]*)"', text) == want


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_cli_reads_no_private_library_name():
    # the CLI formats what the library's public names return
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if node.module is None}
    assert {"phase", "sphere", "verify"} <= modules
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and _private(node.attr)]
    private += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if _private(alias.name)]
    assert private == []


#: the flags each subcommand reads besides --out and --config
COMMAND_FLAGS = {
    "thresholds": {"--tau", "--tau-range"},
    "phase": {"--tau", "--tau-range", "--k", "--k-range", "--grid", "--levels",
              "--format"},
    "sphere": {"--tau", "--tau-range", "--k", "--k-range", "--samples",
               "--mesh-rings", "--format"},
    "embed-region": {"--tau", "--tau-range", "--k", "--k-range", "--tol"},
    "verify": {"--tol"},
}


class TestFlags:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()
        }
        assert declared == {
            name: flags | {"--out", "--config"} for name, flags in COMMAND_FLAGS.items()
        }
        assert sum(len(flags) for flags in declared.values()) == 32

    def test_parser_is_built_once(self):
        # parsing leaves the parser as it was, so one serves every call
        assert cli._build_parser() is cli._build_parser()
        parser = cli._build_parser()
        first = parser.parse_args(["phase", "--tau", "0.5", "--k", "3"])
        second = parser.parse_args(["phase", "--k", "4"])
        assert (first.tau, first.k, second.tau, second.k) == ([0.5], [3.0], None, [4.0])

    def test_tol_default_per_command(self):
        parser = cli._build_parser()
        assert parser.parse_args(["verify"]).tol == 1e-10
        assert parser.parse_args(["embed-region"]).tol == 1e-8

    @pytest.mark.parametrize("argv", [
        ["sphere", "--tau", "0.5", "--k", "4", "--tol", "1e-3"],
        ["verify", "--tau", "2"],
        ["thresholds", "--tau", "1", "--k", "3"],
        ["embed-region", "--tau", "0.3", "--k", "5", "--format", "csv"],
        ["embed-region", "--tau", "0.3", "--k", "5", "--grid", "1"],
        ["phase", "--tau", "0.75", "--k", "3", "--workers", "2"],
        ["embed-region", "--tau", "0.3", "--k", "5", "--workers", "2"],
    ])
    def test_unread_flag_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["phase", "--tau", "0.75", "--k", "3", "--levels", "x"],
        ["phase", "--tau", "0.75", "--k", "3", "--format", "csv,obj"],
        ["sphere", "--tau", "0.5", "--k", "4", "--format", "pdf"],
        ["embed-region", "--tau", "0.3", "--k", "5", "--tol", "0"],
        ["sphere", "--tau", "0.5", "--k", "4", "--samples", "10"],
        ["phase", "--tau", "0.75", "--k", "3", "--grid", "abc"],
        ["sphere", "--tau", "0.5", "--k", "4", "--mesh-rings", "2", "--format", "csv,obj"],
        # found after --out was made: the empty directory is removed again
        ["phase", "--tau", "0.75", "--k", "nan", "--grid", "21"],
        # outside [1e-13, 0.1]: a traceback, a hang, an internal error, a raised rtol
        *(["verify", "--tol", tol] for tol in ("1e-300", "5e-324", "1", "1e-14")),
        # tau^2 overflows: lambda = -inf, or a traceback from the quadrature
        ["thresholds", "--tau", "1e300"],
        ["embed-region", "--tau", "1e300", "--k", "1"],
        # non-finite contour levels: a contours CSV with only its header
        ["phase", "--tau", "0.75", "--k", "3", "--grid", "3", "--levels", "nan,inf,-inf"],
        ["phase", "--tau", "0.75", "--k", "3", "--grid", "3", "--levels", "1,nan"],
        # the energy grid overflows to inf, or is nan
        ["phase", "--tau", "2", "--k", "1e308", "--grid", "5"],
        ["phase", "--tau", "1e100", "--k", "1", "--grid", "5"],
    ])
    def test_malformed_value_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        argv = ["phase", "--tau", "0.75", "--k", "nan", "--grid", "21", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("parent_exists", [False, True])
    def test_failed_run_removes_only_the_directories_it_made(
            self, parent_exists, tmp_path, capsys):
        nest = tmp_path / "nest"
        if parent_exists:
            nest.mkdir()
        argv = ["phase", "--tau", "0.75", "--k", "nan", "--grid", "21"]
        assert cli.main(argv + ["--out", str(nest / "D")]) == cli.EXIT_CONFIG
        assert nest.is_dir() == parent_exists
        assert not (nest / "D").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.touch()
        assert cli.main(["thresholds", "--tau", "1", "--out", str(out)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert out.read_bytes() == b""


class TestThresholds:
    def test_values_and_exit(self, tmp_path, capsys):
        rc = cli.main(["thresholds", "--tau", "0.75", "--tau", "2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2.3125" in out
        header, rows = read_csv(tmp_path / "thresholds.csv")
        assert header == ["tau", "lambda", "k0", "kP", "new_lo", "new_hi"]
        assert float(rows[0][2]) == 2.3125
        assert float(rows[1][2]) == 0.25 and float(rows[1][3]) == 4.0

    def test_range_parsing(self, capsys):
        rc = cli.main(["thresholds", "--tau-range", "0.5:1.0:3"])
        assert rc == 0
        assert "0.75" in capsys.readouterr().out

    def test_config_error(self, capsys):
        rc = cli.main(["thresholds", "--tau-range", "nonsense"])
        assert rc == cli.EXIT_CONFIG

    def test_missing_tau(self, capsys):
        assert cli.main(["thresholds"]) == cli.EXIT_CONFIG

    def test_every_tau_checked_before_printing(self, capsys):
        assert cli.main(["thresholds", "--tau", "0.5", "--tau", "nan"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_close_taus_print_distinct_rows(self, capsys):
        # both tau print as 0.25 under :g
        assert cli.main(["thresholds", "--tau", "0.2500001", "--tau", "0.2500002"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["0.2500001", "0.2500002"]


    def test_columns_line_up_under_the_header(self, capsys):
        # lambda and K0 of tau = 0.2500001 print in full, wider than 12 characters
        assert cli.main(["thresholds", "--tau", "0.2500001", "--tau", "0.75"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines[1].split()[1]) > 12
        ends = [[m.end() for m in re.finditer(r"\S+", line)][:4] for line in lines]
        assert all(e == ends[0] for e in ends[1:]), lines


class TestPhaseCommand:
    def test_portrait_files(self, tmp_path, capsys):
        rc = cli.main([
            "phase", "--tau", "0.75", "--k", "2", "--k", "3",
            "--grid", "81", "--out", str(tmp_path), "--format", "csv,svg",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "connects (closed form): no" in out
        assert "connects (closed form): yes" in out
        header, rows = read_csv(tmp_path / "phase_grid_tau0p75_K3.csv")
        assert header == ["X", "Y", "F"]
        assert len(rows) == 81 * 81
        header, rows = read_csv(tmp_path / "contours_tau0p75_K3.csv")
        assert header == ["level", "seq", "X", "Y"]
        levels = {float(r[0]) for r in rows}
        assert 1.0 in levels
        svg = (tmp_path / "phase_tau0p75_K3.svg").read_text()
        assert "polyline" in svg and 'stroke-width="2.5"' in svg

    def test_boundary_verdict(self, capsys):
        rc = cli.main(["phase", "--tau", "0.75", "--k", "2.3125", "--grid", "41"])
        assert rc == 0
        assert "boundary" in capsys.readouterr().out

    def test_half_tau_family(self, capsys):
        # tau = 1/2 has threshold 13/4; below/at/above give no/boundary/yes
        rc = cli.main([
            "phase", "--tau", "0.5", "--k", "3", "--k", "3.25", "--k", "3.5",
            "--grid", "41",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "K=3: K0=3.25, level-1 connects (closed form): no" in out
        assert "K=3.25" in out and "boundary" in out
        assert "K=3.5: K0=3.25, level-1 connects (closed form): yes" in out

    def test_grid_validation(self):
        assert cli.main(["phase", "--tau", "0.75", "--k", "3", "--grid", "1"]) == cli.EXIT_CONFIG

    def test_levels_that_trace_no_curve_are_reported(self, tmp_path, capsys):
        # one stderr line per (cell, level) with no curve; the run still
        # succeeds and writes the same files, the traced level included
        rc = cli.main(["phase", "--tau", "0.75", "--k", "3", "--k", "4", "--grid", "3",
                       "--levels", "1e308,1,-5", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"tau=0.75 K={K}: no curve traced at level {level} (F on the grid spans [0, {hi}])"
            for K, hi in (("3", "1.6875"), ("4", "2.25")) for level in ("1e+308", "-5")
        ]
        for K in ("3", "4"):
            _, rows = read_csv(tmp_path / f"contours_tau0p75_K{K}.csv")
            assert {float(r[0]) for r in rows} == {1.0}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{kind}_tau0p75_K{K}.csv" for kind in ("contours", "phase_grid") for K in ("3", "4")]

    def test_automatic_levels_print_as_plain_numbers(self, tmp_path, capsys, monkeypatch):
        # with no curve traced, every automatic level is named on stderr
        monkeypatch.setattr(cli.phase, "contours", lambda params, K, levels: [])
        assert cli.main(["phase", "--tau", "0.75", "--k", "3", "--grid", "21",
                         "--out", str(tmp_path)]) == cli.EXIT_OK
        err = capsys.readouterr().err
        levels = re.findall(r"no curve traced at level (\S+) \(", err)
        assert len(levels) == 12 and "1" in levels
        assert "np.float64" not in err
        assert all(re.fullmatch(r"-?[0-9.]+(e[-+][0-9]+)?", level) for level in levels), levels
        _, rows = read_csv(tmp_path / "contours_tau0p75_K3.csv")
        assert rows == []

    @pytest.mark.parametrize("tau,K", [("2", "1e308"), ("1e100", "1")])
    def test_non_finite_energy_grid_is_named_without_warnings(self, tau, K, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["phase", "--tau", tau, "--k", K, "--grid", "5",
                           "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"tau={float(tau):g} K={float(K):g}: the energy F is not finite" in err
        assert not (tmp_path / "out").exists()

    def test_level_one_polyline_connects_corners(self, tmp_path):
        cli.main([
            "phase", "--tau", "2", "--k", "0.3", "--grid", "41",
            "--levels", "1.0", "--out", str(tmp_path),
        ])
        _, rows = read_csv(tmp_path / "contours_tau2_K0p3.csv")
        pts = np.array([(float(r[2]), float(r[3])) for r in rows if float(r[0]) == 1.0])
        assert np.min(np.hypot(pts[:, 0] - 0, pts[:, 1] - 1)) <= 1e-6
        assert np.min(np.hypot(pts[:, 0] - 0, pts[:, 1] + 1)) <= 1e-6


class TestSphereCommand:
    def test_fig4_family(self, tmp_path, capsys):
        rc = cli.main([
            "sphere", "--k", "5",
            "--tau", "0.1", "--tau", "0.2", "--tau", "0.3", "--tau", "0.4", "--tau", "0.5",
            "--out", str(tmp_path), "--samples", "128",
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "spheres.csv")
        assert header == ["tau", "K", "r", "h", "embedded", "T"]
        flags = {float(r[0]): r[4] for r in rows}
        assert flags[0.1] == "false"
        assert all(flags[t] == "true" for t in (0.2, 0.3, 0.4, 0.5))

    def test_profile_energy_rechecked_at_write(self, tmp_path):
        cli.main([
            "sphere", "--tau", "0.75", "--k", "3", "--out", str(tmp_path),
            "--samples", "128",
        ])
        header, rows = read_csv(tmp_path / "profile_tau0p75_K3.csv")
        assert header == ["s", "x", "y", "alpha", "energy_drift"]
        drifts = [float(r[4]) for r in rows]
        assert max(drifts) <= 1e-8

    def test_no_sphere_exit_code(self, capsys):
        rc = cli.main(["sphere", "--tau", "0.75", "--k", "2"])
        assert rc == cli.EXIT_NO_SPHERE
        assert "2.3125" in capsys.readouterr().err

    @pytest.mark.parametrize("tau,K", [("2", "0.2500025"), ("1", "1.00001")])
    def test_existing_sphere_just_above_threshold(self, tau, K, tmp_path, capsys):
        # K > k0: the sphere exists, whatever a level-curve trace from the
        # corner (0, 1) of phase space makes of it
        rc = cli.main(["sphere", "--tau", tau, "--k", K, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "spheres.csv")
        assert math.isfinite(float(rows[0][3]))

    def test_k_below_k0_anywhere_in_a_sweep_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sphere", "--tau", "0.75", "--k", "3", "--k", "2", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_NO_SPHERE
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_accuracy_failure_anywhere_in_a_sweep_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        build = sphere.build_sphere

        def failing_at_k4(params, K, **kw):
            if K == 4.0:
                raise cli.AccuracyError("quadrature stalled", achieved=1e-3)
            return build(params, K, **kw)

        monkeypatch.setattr(sphere, "build_sphere", failing_at_k4)
        out = tmp_path / "out"
        argv = ["sphere", "--tau", "0.5", "--k", "3.5", "--k", "4", "--format", "csv,svg,obj",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_ACCURACY
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau=0.5 K=4: accuracy failure: quadrature stalled" in captured.err

    def test_pole_touching_threshold_reported(self, tmp_path, capsys):
        rc = cli.main(["sphere", "--tau", "2", "--k", "0.25", "--out", str(tmp_path)])
        assert rc == 0
        assert "pole-touching" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "spheres.csv")
        assert float(rows[0][2]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(rows[0][3]) == math.inf
        assert rows[0][4] == "false"

    def test_close_k_values_get_distinct_files(self, tmp_path, capsys):
        # both K print as 0.25 under :g; tags and report lines keep them apart
        rc = cli.main([
            "sphere", "--tau", "2", "--k", "0.2500001", "--k", "0.2500002",
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("profile_*.csv")) == [
            "profile_tau2_K0p2500001.csv", "profile_tau2_K0p2500002.csv",
        ]
        out = capsys.readouterr().out
        assert "tau=2 K=0.2500001:" in out and "tau=2 K=0.2500002:" in out

    def test_obj_output(self, tmp_path):
        cli.main([
            "sphere", "--tau", "1", "--k", "2", "--out", str(tmp_path),
            "--format", "csv,obj", "--samples", "128", "--mesh-rings", "16",
        ])
        obj = (tmp_path / "sphere_tau1_K2.obj").read_text().splitlines()
        assert obj[0].startswith("#")
        assert any(line.startswith("v ") for line in obj)
        assert any(line.startswith("f ") for line in obj)

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            cli.main([
                "sphere", "--tau", "0.5", "--k", "4", "--out", str(d),
                "--samples", "128", "--format", "csv,svg",
            ])
        for name in ("profile_tau0p5_K4.csv", "spheres.csv", "profile_tau0p5_K4.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEmbedRegionCommand:
    def test_region_and_boundary(self, tmp_path, capsys):
        rc = cli.main([
            "embed-region", "--k", "5", "--tau-range", "0.05:0.5:10",
            "--out", str(tmp_path), "--tol", "1e-8",
        ])
        assert rc == 0
        header, rows = read_csv(tmp_path / "region.csv")
        assert header == ["tau", "K", "h", "embedded"]
        assert all(float(r[1]) == 5.0 for r in rows)
        header, rows = read_csv(tmp_path / "boundary.csv")
        assert header == ["K", "tau_star"]
        tau_star = float(rows[0][1])
        assert 0.1 < tau_star < 0.2
        from berger_cgc import make_params, vertical_radius

        assert abs(vertical_radius(make_params(tau_star), 5.0) - math.pi) <= 1e-8

    def test_fully_embedded_slice(self, tmp_path, capsys):
        rc = cli.main([
            "embed-region", "--k", "2", "--tau-range", "0.5:0.9:5",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "fully embedded" in capsys.readouterr().out
        assert not (tmp_path / "boundary.csv").exists()

    def test_slice_with_no_cell_at_or_above_k0(self, tmp_path, capsys):
        # K = 1 lies below k0 at tau = 0.1: the slice is not "fully embedded"
        rc = cli.main(["embed-region", "--tau", "0.1", "--k", "1", "--out", str(tmp_path)])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out == "K=1: no cell at or above K0 over the tau grid\n"
        assert (tmp_path / "region.csv").read_text() == "tau,K,h,embedded\n"
        assert not (tmp_path / "boundary.csv").exists()

    def test_unconverged_quadrature_is_an_accuracy_failure(self, tmp_path, capsys):
        # tanh-sinh does not converge at tau = 2 this close to k0, but h is
        # finite: the cell must not be written as a divergent h = inf
        rc = cli.main([
            "embed-region", "--tau", "2", "--tau", "2.5", "--k", "0.2500000025",
            "--out", str(tmp_path),
        ])
        assert rc == cli.EXIT_ACCURACY
        assert not (tmp_path / "region.csv").exists()
        # the message names the cell, the level reached and the error estimate
        err = capsys.readouterr().err
        found = re.search(r"at tau=2\.0, K=0\.2500000025: level 12, error estimate (\S+)", err)
        assert found, err
        assert float(found.group(1)) > 1e-10

    @pytest.mark.parametrize("argv", [
        ["embed-region", "--tau", "2", "--k", "1e308"],
        ["sphere", "--tau", "2", "--k", "1e308"],
        # found before the first cell writes its files
        ["sphere", "--tau", "0.5", "--k", "4", "--k", "1e308"],
    ])
    def test_k_past_the_float_range_is_a_configuration_error(self, argv, tmp_path, capsys):
        # K (1 + sqrt(1 - 4 lam / K)) overflows, so r would be 0
        rc = cli.main(argv + ["--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "K=1e+308 is past the float range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _failed_suites(out):
    suites = json.loads(out.strip().splitlines()[-1])["suites"]
    return [name for name, record in suites.items() if not record["pass"]]


class TestVerifyCommand:
    def test_default_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["pass"] is True
        assert set(summary["suites"]) == {
            "boundary_identities",
            "energy_conservation",
            "frobenius",
            "symmetry",
            "route_equivalence",
        }
        assert json.loads((tmp_path / "verify.json").read_text()) == summary
        # each record holds exactly the fields the benchmark reads (bench/checks.py)
        text = (Path(__file__).parents[1] / "bench" / "checks.py").read_text()
        fields = ast.literal_eval(re.search(r"^SUITE_FIELDS = (\{.*?^\})", text, re.S | re.M)[1])
        assert {name: set(record) for name, record in summary["suites"].items()} == {
            name: {"pass", value, bound} for name, (value, bound) in fields.items()}

    def test_explicit_tol_is_used(self, capsys):
        # --tol 1e-8 is the common default of the other commands; given
        # explicitly to verify it must set the energy budget (100 x tol)
        rc = cli.main(["verify", "--tol", "1e-8"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["suites"]["energy_conservation"]["budget"] == 1e-06

    def test_relaxed_tolerance_still_passes_energy(self, capsys):
        # the energy budget scales with the requested tolerance
        rc = cli.main(["verify", "--tol", "1e-2"])
        assert rc == 0

    @pytest.mark.parametrize("tol", ["1e-13", "0.1"])
    def test_tol_bounds_pass(self, tol, capsys):
        assert cli.main(["verify", "--tol", tol]) == 0

    def test_corrupted_energy_detected(self, capsys, monkeypatch):
        # sign-flip the energy function: the boundary-identity suite must fail
        orig = cli.phase.energy_values

        def flipped(params, K, X, Y):
            return -orig(params, K, X, Y)

        monkeypatch.setattr(cli.phase, "energy_values", flipped)
        rc = cli.main(["verify"])
        assert rc == cli.EXIT_ACCURACY
        out = capsys.readouterr().out
        assert "boundary_identities: FAIL" in out
        assert _failed_suites(out) == ["boundary_identities"]

    @pytest.mark.parametrize("suite, module, name, corrupt", [
        # the integrator ignores the rtol it is given and runs at 1e-6
        ("energy_conservation", profile, "integrate",
         lambda f: lambda *a, **kw: f(*a, **{**kw, "rtol": 1e-6})),
        # the profile is sampled 100x coarser than asked
        ("frobenius", sphere, "build_sphere", lambda f: lambda *a, spacing=None, **kw: f(
            *a, spacing=spacing and 100 * spacing, **kw)),
        # reflect forgets to negate alpha
        ("symmetry", profile, "apply_symmetry", lambda f: lambda t, sym, **kw: f(t, sym, **kw)
         if sym != "reflect" else profile.Trajectory(
             t.params, t.K, t.s, t.x, 2 * kw["y0"] - t.y, t.alpha, t.termination)),
        # the quadrature h is 1e-6 off
        ("route_equivalence", sphere, "vertical_radius", lambda f: lambda *a: f(*a) + 1e-6),
    ])
    def test_corruption_fails_exactly_its_suite(self, suite, module, name, corrupt,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        assert cli.main(["verify"]) == cli.EXIT_ACCURACY
        assert _failed_suites(capsys.readouterr().out) == [suite]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=0.75\nk=3\nsamples=128\n")
        rc = cli.main(["sphere", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "profile_tau0p75_K3.csv").exists()
        # flag overrides the config tau
        rc = cli.main(["sphere", "--config", str(cfg), "--tau", "0.5", "--k", "4"])
        assert rc == 0
        assert "tau=0.5" in capsys.readouterr().out

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau 0.75\n")
        rc = cli.main(["sphere", "--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG

    def test_config_value_checked_like_the_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        for line in ("grid=abc", "grid=1", "levels=x", "format=pdf"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"tau=0.75\nk=3\n{line}\n")
            rc = cli.main(["phase", "--config", str(cfg), "--out", str(out)])
            assert rc == cli.EXIT_CONFIG, line
            assert not out.exists()
            assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["thresholds", "--tau", "1", "--config", str(tmp_path / "none.cfg")])
        assert rc == cli.EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        # a typo, and a key no command declares
        for command, key in (("sphere", "smaples=70"), ("embed-region", "workers=2")):
            cfg.write_text(f"tau=0.75\nk=3\n{key}\n")
            assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
            assert f"{key.split('=')[0]!r}" in capsys.readouterr().err

    def test_one_config_serves_phase_and_sphere(self, tmp_path, capsys):
        # samples is a sphere key and grid a phase key: each command skips
        # the other's
        cfg = tmp_path / "both.cfg"
        cfg.write_text("tau=0.75\nk=3\nsamples=129\ngrid=41\n")
        assert cli.main(["phase", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "phase_grid_tau0p75_K3.csv")
        assert len(rows) == 41 * 41
        assert cli.main(["sphere", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "profile_tau0p75_K3.csv")
        assert len(rows) == 129

    def test_flag_wins_over_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=0.75\nk=3\ngrid=41\n")
        assert cli.main(["phase", "--config", str(cfg), "--grid", "21", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "phase_grid_tau0p75_K3.csv")
        assert len(rows) == 21 * 21
