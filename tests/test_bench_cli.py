import numpy as np
import pytest

from h2vie import arith, bench, build, kernel
from h2vie.bench import BenchRecord, emit_csv, parse_csv
from h2vie.cli import main
from h2vie.config import ExperimentConfig, load_config
from h2vie.linalg import CompressionParams

from conftest import apply_rtol


# two-body SVD settings that no study can run, and the key each one names
_RANK_STUDY_SETTINGS = [
    ("svd_dim=5", "svd_dim"), ("svd_dim=-1", "svd_dim"), ("svd_sizes=-1", "svd_sizes"),
    ("svd_sizes=0.5,0", "svd_sizes"), ("svd_sizes=nan", "svd_sizes"),
    ("svd_sizes=1,inf", "svd_sizes"),
]
# solver settings that no solve can run, and the key each one names
_SOLVER_SETTINGS = [("max_iter=0", "max_iter"), ("seed=-1", "seed")]


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.solver == "both"
        assert bench.K0 == 2 * np.pi  # extents are in wavelengths

    def test_file_and_overrides(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# comment\n"
            "shape = slab\n"
            "extent = 2.0, 2.0\n"
            "eps_r = 2.54-0.1j\n"
            "tol = 1e-4  # trailing comment\n"
        )
        cfg = load_config(p, overrides=["tol=1e-2", "n_min=24"])
        assert cfg.shape == "slab"
        assert cfg.extent == [2.0, 2.0]
        assert cfg.eps_r == complex(2.54, -0.1)
        assert cfg.tol == 1e-2  # override wins
        assert cfg.n_min == 24

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            load_config(None, overrides=["bogus=1"])

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, overrides=["tol=2.0"])
        with pytest.raises(ValueError):
            load_config(None, overrides=["solver=magic"])

    @pytest.mark.parametrize("setting,key", _RANK_STUDY_SETTINGS)
    def test_bad_rank_study_settings_named(self, setting, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            load_config(None, overrides=[setting])

    @pytest.mark.parametrize("setting,key", _SOLVER_SETTINGS)
    def test_bad_solver_settings_named(self, setting, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            load_config(None, overrides=[setting])


class TestCsv:
    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        # README.md's header, spelled out: CSV_COLUMNS is derived from
        # BenchRecord's fields, so comparing against it would check nothing
        assert lines == [
            "experiment,N,lambda,level,max_rank,csp,rep_error,inv_residual,"
            "iterations,build_s,matvec_s,inverse_s,solve_s,peak_mem"
        ]

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([BenchRecord("x", N=5)], path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip(self, tmp_path):
        recs = [
            BenchRecord("a", N=164, lam=16.4, level=3, max_rank=6, csp=3,
                        rep_error=1.2e-6, inv_residual=None, iterations=2,
                        build_s=0.01, matvec_s=None, inverse_s=0.1,
                        solve_s=0.001, peak_mem=170528),
            BenchRecord("slopes", matvec_s=1.03, peak_mem=1.1),
        ]
        path = tmp_path / "rt.csv"
        emit_csv(recs, path)
        back = parse_csv(path)
        assert back == recs

    def test_line_endings_and_decimal_point(self, tmp_path):
        path = tmp_path / "fmt.csv"
        emit_csv([BenchRecord("x", rep_error=0.5)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.5" in raw
        # integer columns carry no decimal point, peak_mem included
        emit_csv([BenchRecord("a", N=164, peak_mem=170528)], path)
        assert path.read_text().splitlines()[1] == "a,164,,,,,,,,,,,,170528"


class TestTiming:
    def test_median_time_positive_for_fast_fn(self):
        t = bench.median_time(lambda: None)
        assert t > 0

    def test_median_time_reflects_sleep(self):
        import time

        t = bench.median_time(lambda: time.sleep(0.002))
        assert 0.001 < t < 0.1


class TestTwoBodyStudy:
    def test_pair_geometry_is_separated_by_two(self):
        geom, k0, rows, cols = bench.two_body_pair(3, 0.5, 8)
        assert rows.size == cols.size == 4**3
        gap = geom.centers[cols, 0].min() - geom.centers[rows, 0].max()
        # centers sit half a voxel inside each body: gap = 2 m + one voxel
        assert gap == pytest.approx(2.0 + 1.0 / 4)

    def test_eps_rank_matches_brute_force(self, rng):
        a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        b = rng.standard_normal((30, 6)) + 1j * rng.standard_normal((30, 6))
        m = a @ b.T
        assert bench.svd_eps_rank(m, 1e-8) == 6
        assert bench.svd_eps_rank(np.zeros((4, 4)), 1e-5) == 0


class TestInverseResidualEstimate:
    def test_block_apply_matches_column_probes(self):
        geom = kernel.generate_geometry("rod", [16.4], 10, 2.0 * np.pi)
        h2 = build.build_h2(geom, kernel.KernelParams(k0=2.0 * np.pi),
                            CompressionParams(1e-4, 1e-4), n_min=16)
        inv = arith.h2_invert(h2)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal(h2.n) + 1j * rng.standard_normal(h2.n)
            v /= np.linalg.norm(v)
            w = arith.matvec(h2, arith.matvec(inv, v))
            worst = max(worst, np.linalg.norm(v - w))
        est = bench.inverse_residual_estimate(h2, inv, np.random.default_rng(7))
        # the probes have unit norm, so the applies' relative bound is an
        # absolute one on these residual norms
        assert est == pytest.approx(worst, rel=1e-12, abs=apply_rtol(h2, 0.0))


class TestRunners:
    def test_rank_study_rejects_empty_sweep(self, tmp_path):
        cfg = ExperimentConfig(sweep=[], out=str(tmp_path / "r.csv"))
        with pytest.raises(ValueError):
            bench.run_rank_study(cfg)

    def test_scaling_study_needs_three_sizes(self, tmp_path):
        cfg = ExperimentConfig(sweep=[16.4], out=str(tmp_path / "s.csv"))
        with pytest.raises(ValueError):
            bench.run_scaling_study(cfg)

    def test_scaling_study_needs_three_distinct_sizes(self, tmp_path):
        cfg = ExperimentConfig(sweep=[4.0, 4.0, 4.0], out=str(tmp_path / "s.csv"))
        with pytest.raises(ValueError, match="at least 3 sizes"):
            bench.run_scaling_study(cfg)

    def test_no_slope_without_spread_in_n(self):
        assert bench._fit_slope([40, 40, 40], [1.0, 2.0, 3.0]) is None
        # the zero timing is dropped first, which leaves one N
        assert bench._fit_slope([40, 80, 80], [0.0, 2.0, 3.0]) is None

    def test_rank_study_rows_match_geometry(self, tmp_path):
        cfg = ExperimentConfig(
            sweep=[1.0, 2.0], vpw=10, n_min=8, svd_dim=0,
            out=str(tmp_path / "r.csv"),
        )
        records = bench.run_rank_study(cfg)
        ns = {r.N for r in records}
        assert ns == {10, 20}
        assert all(r.rep_error is not None for r in records)

    def test_rank_study_svd_rows_and_cap_warning(self, tmp_path):
        cfg = ExperimentConfig(
            sweep=[1.0], vpw=8, n_min=8, svd_dim=1,
            svd_sizes=[1.0, 2.0], dense_cap=12,
            out=str(tmp_path / "r.csv"),
        )
        records = bench.run_rank_study(cfg)
        kinds = {r.experiment for r in records}
        assert "svd_study" in kinds  # size 1.0 fits (8 voxels per body)
        assert "svd_study_skipped" in kinds  # size 2.0 exceeds cap 12

    def test_solve_zero_contrast_returns_excitation(self, tmp_path):
        cfg = ExperimentConfig(
            shape="rod", extent=[3.2], vpw=10, n_min=8, eps_r=1.0,
            solver="iterative",
            out=str(tmp_path / "s.csv"),
            solution_out=str(tmp_path / "sol.txt"),
        )
        record, summary = bench.run_solve(cfg)
        assert summary["converged"]
        geom = kernel.generate_geometry("rod", [3.2], 10, bench.K0)
        expected = kernel.plane_wave_rhs(geom, bench.K0, [0, -1, 0])
        written = bench.read_solution(cfg.solution_out)
        assert np.allclose(written, expected, atol=1e-15)
        assert record.N == geom.n

    def test_solve_uses_whole_extent(self, tmp_path):
        cfg = ExperimentConfig(
            shape="cube_array", extent=[2.0, 1.0, 1.0], n_min=16,
            solver="iterative",
            out=str(tmp_path / "s.csv"),
            solution_out=str(tmp_path / "sol.txt"),
        )
        record, summary = bench.run_solve(cfg)
        assert summary["N"] == record.N == 2 * 27
        assert bench.read_solution(cfg.solution_out).size == 54
        assert parse_csv(cfg.out)[0].lam == 2.0

    def test_solve_builds_at_the_one_accuracy(self, tmp_path, monkeypatch):
        seen = []
        build_h2 = build.build_h2

        def spy(geom, kparams, cparams, **kwargs):
            seen.append(cparams)
            return build_h2(geom, kparams, cparams, **kwargs)

        monkeypatch.setattr(build, "build_h2", spy)
        cfg = ExperimentConfig(
            shape="rod", extent=[3.2], n_min=8, eps_acc=1e-3, solver="iterative",
            out=str(tmp_path / "s.csv"), solution_out=str(tmp_path / "sol.txt"),
        )
        bench.run_solve(cfg)
        assert seen == [CompressionParams(cfg.eps_acc, cfg.eps_acc)]

    def test_solve_both_reports_discrepancy(self, tmp_path):
        cfg = ExperimentConfig(
            shape="rod", extent=[16.4], vpw=10, n_min=16, solver="both",
            out=str(tmp_path / "s.csv"),
            solution_out=str(tmp_path / "sol.txt"),
        )
        record, summary = bench.run_solve(cfg)
        assert summary["direct_vs_iterative"] <= max(10 * cfg.tol, 10 * cfg.eps_acc)
        assert record.iterations is not None and record.inv_residual is not None

    def test_solution_file_round_trip(self, tmp_path, rng):
        x = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        path = tmp_path / "sol.txt"
        bench.write_solution(path, x)
        assert np.array_equal(bench.read_solution(path), x)
        first = path.read_text().splitlines()[0]
        assert first.count(",") == 1

    def test_scaling_study_slope_row(self, tmp_path):
        cfg = ExperimentConfig(
            sweep=[16.4, 32.8, 65.6], solver="iterative", n_min=16,
            dense_cap=0,  # skip dense oracles for speed
            out=str(tmp_path / "s.csv"),
        )
        records = bench.run_scaling_study(cfg)
        # one record per swept size: the warm-up pass writes none
        assert [r.lam for r in records[:-1]] == cfg.sweep
        assert records[-1].experiment == "slopes"
        assert records[-1].matvec_s is not None
        parsed = parse_csv(cfg.out)
        assert len(parsed) == len(records)

    def test_determinism_of_non_timing_columns(self, tmp_path):
        def run(path):
            cfg = ExperimentConfig(
                sweep=[1.0, 2.0], vpw=10, n_min=8, svd_dim=1,
                svd_sizes=[0.5], out=str(path), seed=7,
            )
            bench.run_rank_study(cfg)
            rows = []
            for rec in parse_csv(path):
                rows.append((rec.experiment, rec.N, rec.lam, rec.level,
                             rec.max_rank, rec.csp, rec.rep_error, rec.peak_mem))
            return rows

        assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


class TestCli:
    def test_verify_exits_zero(self, capsys):
        rc = main(["verify", "--set", "extent=8.2", "--set", "n_min=16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_solve_nonconvergence_exit_code(self, tmp_path, capsys):
        rc = main([
            "solve",
            "--set", "extent=16.4",
            "--set", "solver=iterative",
            "--set", "tol=1e-12",
            "--set", "max_iter=1",
            "--set", f"out={tmp_path/'s.csv'}",
            "--set", f"solution_out={tmp_path/'sol.txt'}",
        ])
        assert rc == 2

    @pytest.mark.parametrize("error", [build.ClusterCompressionError,
                                       arith.SingularLeafError])
    def test_named_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch,
                                               error):
        def fail(cfg):
            raise error("cluster 7: it failed", 7)

        monkeypatch.setattr(bench, "run_solve", fail)
        rc = main(["solve", "--set", f"out={tmp_path/'s.csv'}",
                   "--set", f"solution_out={tmp_path/'sol.txt'}"])
        assert rc == 2
        assert f"error: {error.__name__}: cluster 7: it failed" in capsys.readouterr().err

    def test_bad_config_exit_code(self, capsys):
        for key in ("bogus", "lambda0"):  # lengths are in wavelengths: no lambda0
            assert main(["solve", "--set", f"{key}=1"]) == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_second_accuracy_key_refused(self, tmp_path, capsys):
        # eps_acc is the one compression accuracy: eps_aca is an unknown key
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps_aca = 1e-4\n")
        for args in (["--config", str(cfg)], ["--set", "eps_aca=1e-4"]):
            assert main(["solve", *args]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert "unknown config key 'eps_aca'" in err and "eps_acc" in err

    def test_nmin_below_two_exit_code(self, tmp_path, capsys):
        rc = main([
            "solve",
            "--set", "n_min=1",
            "--set", f"out={tmp_path/'s.csv'}",
            "--set", f"solution_out={tmp_path/'sol.txt'}",
        ])
        assert rc == 1
        assert "n_min must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("settings,message", [
        ("eta=nan", "eta must be positive and finite"),
        ("eta=inf", "eta must be positive and finite"),
        ("extent=", "extents must be non-empty and finite"),
        ("extent=inf", "extents must be non-empty and finite"),
        ("shape=rod extent=2,5", "rod needs an extent of length 1, got [2.0, 5.0]"),
    ], ids=["eta-nan", "eta-inf", "extent-empty", "extent-inf", "extent-rod-long"])
    def test_malformed_setting_exit_code(self, tmp_path, capsys, settings, message):
        rc = main([
            "solve",
            "--set", "shape=slab", "--set", "extent=2,2", "--set", "n_min=16",
            "--set", "solver=iterative",
            *[arg for setting in settings.split() for arg in ("--set", setting)],
            "--set", f"out={tmp_path/'s.csv'}",
            "--set", f"solution_out={tmp_path/'sol.txt'}",
        ])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_repeated_sweep_size_exit_code(self, tmp_path, capsys):
        rc = main([
            "scaling-study", "--set", "sweep=4,4,4", "--set", "n_min=8",
            "--set", "dense_cap=0", "--set", f"out={tmp_path/'s.csv'}",
        ])
        assert rc == 1
        assert "error: scaling study needs at least 3 sizes" in capsys.readouterr().err

    def test_sweep_of_one_n_prints_no_slopes(self, tmp_path, capsys):
        # 4, 4.02 and 4.04 wavelengths all round to N = 40 voxels
        rc = main([
            "scaling-study", "--set", "sweep=4,4.02,4.04", "--set", "n_min=8",
            "--set", "dense_cap=0", "--set", f"out={tmp_path/'s.csv'}",
        ])
        assert rc == 0
        assert ("slopes: build=n/a matvec=n/a inverse=n/a solve=n/a memory=n/a"
                in capsys.readouterr().out)

    def test_empty_sweep_exit_code(self, tmp_path, capsys):
        rc = main([
            "rank-study", "--set", "sweep=", "--set", f"out={tmp_path/'r.csv'}",
        ])
        assert rc == 1

    @pytest.mark.parametrize("setting,key", _RANK_STUDY_SETTINGS)
    def test_bad_rank_study_settings_fail_before_any_build(self, tmp_path, capsys,
                                                            monkeypatch, setting, key):
        def no_build(*args):
            raise AssertionError("built before the settings were checked")

        monkeypatch.setattr(bench, "_build", no_build)
        rc = main(["rank-study", "--set", "sweep=1,2", "--set", "n_min=8",
                   "--set", setting, "--set", f"out={tmp_path/'r.csv'}"])
        assert rc == 1
        assert f"config error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "scaling-study"])
    @pytest.mark.parametrize("setting,key", _SOLVER_SETTINGS)
    def test_bad_solver_settings_fail_before_any_build(self, tmp_path, capsys,
                                                       monkeypatch, command, setting, key):
        def no_build(*args):
            raise AssertionError("built before the settings were checked")

        monkeypatch.setattr(bench, "_build", no_build)
        rc = main([command, "--set", "sweep=4,8,16", "--set", "n_min=8",
                   "--set", setting, "--set", f"out={tmp_path/'s.csv'}",
                   "--set", f"solution_out={tmp_path/'sol.txt'}"])
        assert rc == 1
        assert f"config error: {key} must be >= " in capsys.readouterr().err

    def test_rank_study_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main([
            "rank-study",
            "--set", "sweep=1.0",
            "--set", "svd_dim=0",
            "--set", "n_min=8",
            "--set", f"out={out}",
        ])
        assert rc == 0
        assert out.exists()
        assert parse_csv(out)
