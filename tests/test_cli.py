import csv
import json
import math

import numpy as np
import pytest

from berger_cgc import cli


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one %-format per row gives the same bytes as formatting each value
    # with :.17g, including the special and extreme floats
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1.5,
              0.1, 1 / 3, math.pi, math.inf, -math.inf, math.nan]
    rows = [(v, i, -v) for i, v in enumerate(values)]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ("a", "i", "b"), rows, "%.17g,%d,%.17g")
    want = "a,i,b\n" + "".join(f"{a:.17g},{i},{b:.17g}\n" for a, i, b in rows)
    assert path.read_text() == want


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

    def test_pole_touching_threshold_reported(self, tmp_path, capsys):
        rc = cli.main(["sphere", "--tau", "2", "--k", "0.25", "--out", str(tmp_path)])
        assert rc == 0
        assert "pole-touching" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "spheres.csv")
        assert float(rows[0][2]) == pytest.approx(math.pi / 2, abs=1e-12)
        assert float(rows[0][3]) == math.inf
        assert rows[0][4] == "false"

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

    def test_unconverged_quadrature_is_an_accuracy_failure(self, tmp_path, capsys):
        # tanh-sinh does not converge at tau = 2 this close to k0, but h is
        # finite: the cell must not be written as a divergent h = inf
        rc = cli.main([
            "embed-region", "--tau", "2", "--tau", "2.5", "--k", "0.2500000025",
            "--out", str(tmp_path),
        ])
        assert rc == cli.EXIT_ACCURACY
        assert not (tmp_path / "region.csv").exists()

    def test_workers_match_serial(self, tmp_path):
        a = tmp_path / "serial"
        b = tmp_path / "pool"
        base = ["embed-region", "--k", "5", "--tau-range", "0.05:0.5:6"]
        cli.main(base + ["--out", str(a)])
        cli.main(base + ["--out", str(b), "--workers", "2"])
        assert (a / "region.csv").read_bytes() == (b / "region.csv").read_bytes()


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        rc = cli.main(["verify"])
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
