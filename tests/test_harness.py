"""Sweep orchestration, seeding, exports, config parsing, and the CLI."""

import json
import math

import numpy as np
import pytest

from ris_crlb import channel as ch
from ris_crlb import cli
from ris_crlb import estimator as est
from ris_crlb import harness as hn
from ris_crlb.errors import ConfigError


def small_config(**overrides):
    base = dict(k_values=(8, 20), snr_db_values=(20.0, 30.0), trials=25)
    base.update(overrides)
    return hn.default_config(**base)


class TestExperimentConfig:
    def test_warns_when_k_not_above_n_d(self):
        with pytest.warns(UserWarning):
            hn.default_config(k_values=(4,))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            hn.default_config(mode="diagonal")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ConfigError, match="estimator"):
            hn.default_config(estimator="oracle")

    def test_rejects_empty_sweep_axes(self):
        with pytest.raises(ConfigError, match="k_values"):
            hn.default_config(k_values=())
        with pytest.raises(ConfigError, match="snr_db_values"):
            hn.default_config(snr_db_values=())


class TestTrialSeed:
    def test_deterministic(self):
        assert hn.trial_seed(1, 8, 20.0, 3) == hn.trial_seed(1, 8, 20.0, 3)

    def test_distinct_across_grid(self):
        seeds = {
            hn.trial_seed(7, k, snr, t)
            for k in (8, 12)
            for snr in (20.0, 30.0)
            for t in range(50)
        }
        assert len(seeds) == 2 * 2 * 50

    def test_sensitive_to_master_seed(self):
        assert hn.trial_seed(1, 8, 20.0, 0) != hn.trial_seed(2, 8, 20.0, 0)


class TestRunTrial:
    def test_repeatable(self):
        cfg = small_config()
        a = hn.run_trial(cfg, 20, 30.0, 5)
        b = hn.run_trial(cfg, 20, 30.0, 5)
        assert a == b

    def test_genie_never_fails(self):
        cfg = small_config(estimator="genie")
        for t in range(50):
            rec = hn.run_trial(cfg, 8, 20.0, t)
            assert not rec.failed
            assert rec.squared_error >= 0
            assert rec.crlb_value > 0

    def test_jt_near_noiseless_recovery(self):
        # at 60 dB the search should find the true support essentially always
        cfg = hn.default_config(k_values=(20,), snr_db_values=(60.0,))
        good = 0
        trials = 1000
        for t in range(trials):
            rec = hn.run_trial(cfg, 20, 60.0, t)
            if not rec.failed and rec.squared_error < 1e-4:
                good += 1
        assert good >= 0.99 * trials

    def test_physical_on_grid_mode(self):
        cfg = small_config(mode="physical_on_grid", trials=5)
        rec = hn.run_trial(cfg, 20, 30.0, 0)
        assert rec.squared_error >= 0
        assert rec.crlb_value > 0

    def test_physical_off_grid_mode(self):
        cfg = small_config(mode="physical_off_grid", trials=5)
        rec = hn.run_trial(cfg, 20, 30.0, 0)
        assert rec.squared_error >= 0


class TestRunSweep:
    def test_single_point_single_trial(self):
        cfg = hn.default_config(k_values=(12,), snr_db_values=(25.0,), trials=1)
        res = hn.run_sweep(cfg)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert (row.k, row.snr_db, row.trials) == (12, 25.0, 1)

    def test_mean_crlb_inverse_moment(self):
        # sigma^2 = 1 via snr 0 dB and ||upsilon||^2 = n_s, so the mean
        # per-trial CRLB estimates 1/(K-1)
        cfg = hn.default_config(
            k_values=(20,), snr_db_values=(0.0,), trials=1000,
            estimator="genie", magnitude=math.sqrt(5.0),
        )
        res = hn.run_sweep(cfg, threads=4)
        assert abs(res.rows[0].crlb / (1.0 / 19.0) - 1.0) < 0.05

    def test_genie_attains_crlb(self):
        cfg = hn.default_config(k_values=(20,), snr_db_values=(20.0,), trials=1000,
                                estimator="genie")
        res = hn.run_sweep(cfg, threads=4)
        row = res.rows[0]
        assert abs(row.mse / row.crlb - 1.0) < 0.1

    def test_thread_count_does_not_change_rows(self):
        cfg = small_config()
        lines1 = hn.sweep_csv_lines(hn.run_sweep(cfg, threads=1))
        lines8 = hn.sweep_csv_lines(hn.run_sweep(cfg, threads=8))
        assert lines1 == lines8

    def test_aggregates_recomputable_from_trial_records(self):
        cfg = small_config()
        res = hn.run_sweep(cfg, keep_trials=True)
        for row in res.rows:
            recs = [
                r for r in res.trial_records
                if r.k == row.k and r.snr_db == row.snr_db
            ]
            assert len(recs) == row.trials
            assert sum(r.squared_error for r in recs) / len(recs) == row.mse
            assert sum(r.crlb_value for r in recs) / len(recs) == row.crlb
            assert sum(1 for r in recs if r.failed) / len(recs) == row.fail_rate


class TestConvergenceCurveShape:
    def test_curves(self, default_sweep):
        """Monotone-in-K and ordered-in-SNR curve shape.

        Means here exclude the rare no-typical-set fallbacks: a single
        zero-output event adds ||upsilon||^2/trials ~ 1e-3 to a ~1e-6 cell
        mean and would scramble the comparison; the fallback rate itself is
        asserted to stay negligible.
        """
        cfg, res = default_sweep
        cond = {}
        for row in res.rows:
            recs = [
                r for r in res.trial_records
                if r.k == row.k and r.snr_db == row.snr_db and not r.failed
            ]
            assert row.fail_rate <= 0.005
            cond[(row.k, row.snr_db)] = sum(r.squared_error for r in recs) / len(recs)
        ks = cfg.k_values
        for snr in cfg.snr_db_values:
            assert cond[(max(ks), snr)] < cond[(min(ks), snr)]
        for k in ks:
            assert cond[(k, 40.0)] < cond[(k, 30.0)] < cond[(k, 20.0)]


class TestAngularMapExport:
    def test_rejects_synthetic(self):
        with pytest.raises(ConfigError):
            hn.export_angular_map(small_config(), seed=0)

    def test_single_path_one_dominant_cell(self):
        cfg = small_config(mode="physical_on_grid")
        amap = hn.export_angular_map(cfg, seed=3)
        peak = np.max(amap.magnitudes)
        assert int(np.sum(amap.magnitudes > 0.01 * peak)) == 1
        assert len(amap.dominant_cells) == 1

    def test_off_grid_argmax_is_predicted_cell(self):
        cfg = small_config(mode="physical_off_grid")
        for seed in range(5):
            amap = hn.export_angular_map(cfg, seed=seed)
            flat = int(np.argmax(amap.magnitudes))
            cell = (flat // amap.magnitudes.shape[1], flat % amap.magnitudes.shape[1])
            assert cell in amap.dominant_cells


class TestConfigParsing:
    def test_defaults_from_empty(self):
        cfg = hn.parse_config_text("")
        assert cfg == hn.default_config()

    def test_full_roundtrip(self):
        text = """
        # experiment
        n_s = 4
        n_d = 3
        n_r_h = 2
        n_r_w = 3
        mode = physical_on_grid
        k_values = 6, 10
        snr_db_values = 15 25
        trials = 7
        master_seed = 99
        estimator = omp
        sparsity = 2
        delta = 0.125
        search_order = best_statistic
        max_subsets = 500
        magnitude = 2.0
        paths_bs_ris = 2
        paths_ris_ms = 1
        """
        cfg = hn.parse_config_text(text)
        assert cfg.geometry == ch.Geometry(4, 3, 2, 3)
        assert cfg.mode == "physical_on_grid"
        assert cfg.k_values == (6, 10)
        assert cfg.snr_db_values == (15.0, 25.0)
        assert cfg.trials == 7
        assert cfg.master_seed == 99
        assert cfg.estimator == "omp"
        assert cfg.typicality == est.TypicalityConfig(
            delta=0.125, sparsity=2, search_order="best_statistic", max_subsets=500
        )
        assert cfg.magnitude == 2.0
        assert cfg.hop_bs_ris.n_paths == 2

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus_field"):
            hn.parse_config_text("bogus_field = 3")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="trials"):
            hn.parse_config_text("trials = many")

    def test_duplicate_field_named_with_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate field 'trials'.*line 1"):
            hn.parse_config_text("trials = 2\nk_values = 8\ntrials = 3\n")

    def test_bad_mode_named(self):
        with pytest.raises(ConfigError, match="mode"):
            hn.parse_config_text("mode = sideways")

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError, match="no/such/file.cfg"):
            hn.load_config("no/such/file.cfg")


class TestWriters:
    def test_csv_header_and_float_format(self, tmp_path):
        cfg = hn.default_config(k_values=(8,), snr_db_values=(20.0,), trials=3)
        res = hn.run_sweep(cfg)
        out = tmp_path / "rows.csv"
        hn.write_sweep_csv(res, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,snr_db,mse,crlb,upper_bound,fail_rate,trials"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "8"
        # 17 significant digits round-trip the float exactly
        assert float(fields[2]) == res.rows[0].mse

    def test_json_mirror(self, tmp_path):
        cfg = hn.default_config(k_values=(8,), snr_db_values=(20.0,), trials=3)
        res = hn.run_sweep(cfg)
        out = tmp_path / "rows.json"
        hn.write_sweep_json(res, cfg, out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["master_seed"] == cfg.master_seed
        assert payload["config"]["trials"] == 3
        assert payload["rows"][0]["k"] == 8
        assert "snr_definition" in payload


class TestCli:
    def _write_cfg(self, tmp_path, **kv):
        base = {"k_values": "8", "snr_db_values": "20", "trials": "5"}
        base.update({k: str(v) for k, v in kv.items()})
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        return str(path)

    def test_sweep_happy_path(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "res.json").exists()

    def test_sweep_per_trial(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out), "--per-trial"])
        assert rc == 0
        trials = (tmp_path / "res_trials.csv").read_text().splitlines()
        assert trials[0] == hn.TRIALS_CSV_HEADER
        assert len(trials) == 1 + 5

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = cli.main(
            ["sweep", "--config", "/nope/missing.cfg", "--out", str(tmp_path / "x.csv")]
        )
        assert rc != 0
        assert "/nope/missing.cfg" in capsys.readouterr().err

    def test_bad_field_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("estimator = psychic\n")
        rc = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc != 0
        assert "psychic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, cfg_delta",
        [(["--delta", "nan"], None), (["--delta", "-1"], None), ([], "nan")],
    )
    def test_bad_delta_rejected_before_any_trial(self, tmp_path, capsys, flags, cfg_delta):
        kv = {} if cfg_delta is None else {"delta": cfg_delta}
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out), *flags])
        assert rc == 2
        assert "delta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kv, field",
        [
            ({"k_values": "8, 0"}, "k_values"),
            ({"snr_db_values": "nan"}, "snr_db_values"),
            ({"mode": "physical_on_grid", "paths_bs_ris": 6}, "paths_bs_ris"),
            ({"mode": "physical_on_grid", "spacing_ratio": 0.3}, "spacing_ratio"),
            ({"n_s": 0}, "n_s"),
        ],
    )
    def test_bad_grid_rejected_before_any_trial(self, tmp_path, capsys, kv, field):
        cfg = self._write_cfg(tmp_path, **kv)
        out = tmp_path / "res.csv"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [("0", None), (None, "0")])
    def test_zero_threads_rejected(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("RIS_CRLB_THREADS", env)
        out = tmp_path / "res.csv"
        argv = ["sweep", "--config", self._write_cfg(tmp_path), "--out", str(out)]
        rc = cli.main(argv + (["--threads", flag] if flag is not None else []))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: threads must be >= 1")
        assert not out.exists()

    def test_seed_determinism(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RIS_CRLB_THREADS", "2")
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "env.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    def test_angular_map_subcommand(self, tmp_path):
        cfg = self._write_cfg(tmp_path, mode="physical_on_grid")
        out = tmp_path / "map.csv"
        rc = cli.main(["angular-map", "--config", cfg, "--out", str(out), "--seed", "1"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("ms_bin,")
        assert len(lines) == 1 + 5  # header plus one row per MS bin

    def test_angular_map_rejects_synthetic(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)  # synthetic by default
        rc = cli.main(["angular-map", "--config", cfg, "--out", str(tmp_path / "m.csv")])
        assert rc != 0

    def test_crlb_table(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, k_values="8 20", snr_db_values="20 30")
        rc = cli.main(["crlb", "--config", cfg])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("k,snr_db,")
        assert len(lines) == 1 + 4

    # at (3, 0.3) the equal-share template's energy is 0.2700000000000001,
    # not l * magnitude**2 = 0.27; both consumers use the latter
    @pytest.mark.parametrize("l, magnitude", [(2, 1.0), (3, 0.3)])
    def test_crlb_table_terms_match_sweep_bound(self, tmp_path, capsys, l, magnitude):
        # the sweep's upper_bound is its mean CRLB plus the same two penalty
        # terms the table prints for that (k, snr_db) cell, bit for bit
        cfg = self._write_cfg(
            tmp_path, k_values="8 20", snr_db_values="20 40", sparsity=l,
            magnitude=magnitude, trials=3,
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["crlb", "--config", cfg]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0] == (
            "k,snr_db,noise_var,delta,crlb,missed_term,wrong_support_term,upper_bound"
        )
        sweep = out.read_text().splitlines()[1:]
        assert len(sweep) == len(table) - 1 == 4
        n_s, energy = 5, l * magnitude**2
        for srow, trow in zip(sweep, table[1:]):
            k, snr_db, _mse, crlb, upper, _fail, _n = srow.split(",")
            tk, tsnr, noise_var, delta, _crlb, missed, wrong, _upper = trow.split(",")
            assert (k, snr_db) == (tk, tsnr)
            k, snr_db = int(k), float(snr_db)
            kns = k * n_s
            assert float(noise_var) == (energy / n_s) * 10.0 ** (-snr_db / 10.0)
            assert float(delta) == 4.0 * float(noise_var) * math.sqrt(kns - l) / kns
            assert float(upper) == float(crlb) + float(missed) + float(wrong)

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
