import numpy as np
import pytest

from h2vie import bench, kernel
from h2vie.bench import BenchRecord, emit_csv, parse_csv
from h2vie.cli import main
from h2vie.config import ExperimentConfig, load_config


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
        t = bench.median_time(lambda: None, repeats=3)
        assert t > 0

    def test_median_time_reflects_sleep(self):
        import time

        t = bench.median_time(lambda: time.sleep(0.002), repeats=3)
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


class TestRunners:
    def test_rank_study_rejects_empty_sweep(self, tmp_path):
        cfg = ExperimentConfig(sweep=[], out=str(tmp_path / "r.csv"))
        with pytest.raises(ValueError):
            bench.run_rank_study(cfg)

    def test_scaling_study_needs_three_sizes(self, tmp_path):
        cfg = ExperimentConfig(sweep=[16.4], out=str(tmp_path / "s.csv"))
        with pytest.raises(ValueError):
            bench.run_scaling_study(cfg)

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

    def test_bad_config_exit_code(self, capsys):
        for key in ("bogus", "lambda0"):  # lengths are in wavelengths: no lambda0
            assert main(["solve", "--set", f"{key}=1"]) == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_nmin_below_two_exit_code(self, tmp_path, capsys):
        rc = main([
            "solve",
            "--set", "n_min=1",
            "--set", f"out={tmp_path/'s.csv'}",
            "--set", f"solution_out={tmp_path/'sol.txt'}",
        ])
        assert rc == 1
        assert "n_min must be >= 2" in capsys.readouterr().err

    def test_empty_sweep_exit_code(self, tmp_path, capsys):
        rc = main([
            "rank-study", "--set", "sweep=", "--set", f"out={tmp_path/'r.csv'}",
        ])
        assert rc == 1

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
