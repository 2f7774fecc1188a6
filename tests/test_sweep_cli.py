import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwm import cli
from fwm.sweep import (CSV_HEADER, GtGrid, InputSpec, OracleSpec, ParamsSpec,
                       RunConfig, UsageError, apply_overrides,
                       default_compare_config, presets, rows_to_csv,
                       run_compare, run_sweep)


def tiny_config(**kw):
    base = dict(
        params=ParamsSpec(g=1.0, delta_omega1=-1000.0),
        input=InputSpec(alpha_abs=5.0, phi=(0.0, math.pi / 2), beta=4.0, gamma=2.0),
        gt_grid=GtGrid(start=0.0, stop=0.05, count=21),
        witnesses=("HZ1:ab", "HZ1:bc"),
    )
    base.update(kw)
    return RunConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = presets()["fig3"]
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_round_trip_with_oracle(self):
        cfg = tiny_config(oracle=OracleSpec(enabled=True, cutoffs=(8, 6, 6)))
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_shorthand_expands_to_synthetic(self):
        p = ParamsSpec(g=2.0, delta_omega1=-8.0).to_model()
        assert (p.omega_a, p.omega_b, p.omega_c) == (-4.0, 0.0, 0.0)

    def test_overrides_dotted_paths(self):
        d = tiny_config().to_dict()
        d2 = apply_overrides(d, {"input.alpha_abs": 3.0, "gt_grid.count": 5,
                                 "input.phi": 1.0})
        cfg = RunConfig.from_dict(d2)
        assert cfg.input.alpha_abs == 3.0
        assert cfg.gt_grid.count == 5
        assert cfg.input.phi == (1.0,)

    def test_bad_grid_rejected(self):
        with pytest.raises(UsageError):
            GtGrid(start=0.1, stop=0.1, count=10)
        with pytest.raises(UsageError):
            GtGrid(start=0.0, stop=0.1, count=1)

    def test_phi_range_enforced(self):
        with pytest.raises(UsageError):
            InputSpec(alpha_abs=1.0, phi=(7.0,), beta=0.0, gamma=0.0)


class TestPresets:
    def test_exactly_four(self):
        assert sorted(presets()) == ["fig2", "fig3", "fig4", "fig5"]

    def test_caption_parameters(self):
        for name, cfg in presets().items():
            model = cfg.params.to_model()
            assert model.delta_omega1 == pytest.approx(-0.27e13, rel=1e-12)
            assert model.g == pytest.approx(2.7e9, rel=1e-12)
            assert cfg.input.alpha_abs == 5.0
            assert cfg.input.beta == 4.0 and cfg.input.gamma == 2.0
            assert cfg.input.phi == (0.0, math.pi / 2, math.pi)

    def test_fig3_orders(self):
        orders = set()
        for w in presets()["fig3"].witnesses:
            from fwm.witnesses import WitnessId
            wid = WitnessId.parse(w)
            orders.add((wid.m, wid.n))
        assert orders == {(1, 1), (2, 1), (3, 1)}

    def test_fig5_cuts(self):
        assert set(presets()["fig5"].witnesses) == \
            {"TRI_HZ1:abc", "TRI_HZ1:bca", "TRI_HZ1:acb", "TRI_SYM"}


class TestRunSweep:
    def test_empty_witness_list(self):
        cfg = tiny_config(witnesses=())
        rows, summary = run_sweep(cfg)
        assert rows == [] and summary == {}

    def test_row_order_and_count(self):
        cfg = tiny_config()
        rows, summary = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 21
        labels = [(r.criterion, r.modes, r.phi) for r in rows]
        assert labels == sorted(labels, key=lambda x: (x[0] != "HZ1", x[1], x[2]))
        gts = [r.gt for r in rows[:21]]
        assert gts == sorted(gts)

    def test_onset_interpolation_and_consistency(self):
        cfg = tiny_config()
        rows, summary = run_sweep(cfg)
        for (label, phi), onset in summary.items():
            series = [r for r in rows
                      if f"{r.criterion}:{r.modes}" == label and r.phi == phi
                      and r.source == "perturbative"]
            has_negative = any(r.value < 0 for r in series)
            assert (onset is not None) == has_negative
            if onset is not None:
                assert cfg.gt_grid.start <= onset <= cfg.gt_grid.stop

    def test_determinism_byte_identical(self):
        cfg = presets()["fig2"]
        a = rows_to_csv(run_sweep(cfg)[0])
        b = rows_to_csv(run_sweep(cfg)[0])
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER

    def test_oracle_rows_appended(self):
        cfg = tiny_config(
            params=ParamsSpec(g=0.05, delta_omega1=-5.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0,), beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.0, stop=0.04, count=3),
            witnesses=("HZ1:ab",),
            oracle=OracleSpec(enabled=True))
        rows, _ = run_sweep(cfg)
        sources = {r.source for r in rows}
        assert sources == {"perturbative", "oracle"}
        orc = [r for r in rows if r.source == "oracle"]
        prt = [r for r in rows if r.source == "perturbative"]
        assert len(orc) == len(prt) == 3
        # oracle and closed form agree to the g³ budget at these settings
        for o, p in zip(orc, prt):
            assert o.value == pytest.approx(p.value, abs=2e-4 + 5e-2 * abs(p.value))

    def test_g_zero_sweep_rejected(self):
        cfg = tiny_config(params=ParamsSpec(g=0.0, delta_omega1=-1.0))
        with pytest.raises(UsageError):
            run_sweep(cfg)

    def test_parallel_workers_identical_rows(self):
        base = dict(
            params=ParamsSpec(g=0.05, delta_omega1=-5.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0, math.pi / 2),
                            beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.0, stop=0.04, count=3),
            witnesses=("HZ1:ab", "HZ1:bc"),
            oracle=OracleSpec(enabled=True))
        serial, _ = run_sweep(RunConfig(workers=1, **base))
        parallel, _ = run_sweep(RunConfig(workers=2, **base))
        assert serial == parallel


class TestRunCompare:
    def test_requires_oracle(self):
        cfg = tiny_config()
        with pytest.raises(UsageError, match="compare requires oracle"):
            run_compare(cfg)

    def test_requires_three_rungs(self):
        cfg = tiny_config(oracle=OracleSpec(enabled=True, ladder_rungs=1))
        with pytest.raises(UsageError, match="ladder needs >= 3 rungs"):
            run_compare(cfg)

    def test_small_certification_run(self):
        cfg = RunConfig(
            params=ParamsSpec(g=0.3, delta_omega1=-3.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0,), beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.15, stop=0.3, count=2),
            witnesses=("HZ1:ab", "HZ1:bc", "DUAN:ab"),
            oracle=OracleSpec(enabled=True))
        report = run_compare(cfg)
        for label, s in report["witnesses"].items():
            assert s["exponent_min"] is None or s["exponent_min"] >= 2.3, (label, s)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fwm.cli", *args],
                          capture_output=True, text=True)


class TestCli:
    def test_presets_listing(self):
        out = run_cli("presets")
        assert out.returncode == 0
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert name in out.stdout

    def test_unknown_preset_usage_error(self):
        out = run_cli("sweep", "--preset", "fig9")
        assert out.returncode == 1
        assert "usage error" in out.stderr

    def test_compare_without_oracle_usage_error(self):
        out = run_cli("compare", "--preset", "fig2")
        assert out.returncode == 1
        assert "compare requires oracle" in out.stderr

    def test_single_rung_ladder_usage_error(self):
        out = run_cli("compare", "--preset", "fig2", "--oracle.enabled", "true",
                      "--oracle.ladder_rungs", "1")
        assert out.returncode == 1
        assert "ladder needs >= 3 rungs" in out.stderr

    def test_sweep_csv_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a1 = run_cli("sweep", "--preset", "fig5", "--out", str(f1),
                     "--gt_grid.count", "50")
        a2 = run_cli("sweep", "--preset", "fig5", "--out", str(f2),
                     "--gt_grid.count", "50")
        assert a1.returncode == a2.returncode == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_sweep_json_format(self, tmp_path):
        f = tmp_path / "rows.json"
        out = run_cli("sweep", "--preset", "fig2", "--format", "json",
                      "--out", str(f), "--gt_grid.count", "10")
        assert out.returncode == 0
        payload = json.loads(f.read_text())
        assert set(payload) == {"rows", "summary"}
        assert payload["rows"][0].keys() == {
            "gt", "phi", "criterion", "modes", "m", "n", "value",
            "entangled", "source"}

    def test_dotted_override_applies(self, tmp_path):
        f = tmp_path / "r.csv"
        out = run_cli("sweep", "--preset", "fig2", "--out", str(f),
                      "--gt_grid.count", "7", "--input.phi", "0.5")
        assert out.returncode == 0
        lines = f.read_text().splitlines()
        assert len(lines) == 1 + 9 * 7   # header + witnesses x grid
        assert all(line.split(",")[1] == "0.5" for line in lines[1:])

    def test_check_subcommand_passes(self):
        out = run_cli("check", "--preset", "fig2", "--seed", "11",
                      "--cutoffs", "8,6,6")
        assert out.returncode == 0
        assert "check: PASS" in out.stdout

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        f = tmp_path / "w.csv"
        out = subprocess.run(
            [sys.executable, "-m", "fwm.cli", "sweep", "--preset", "fig5",
             "--out", str(f), "--gt_grid.count", "5"],
            capture_output=True, text=True,
            env={**__import__("os").environ, "FWM_WORKERS": "2"})
        assert out.returncode == 0
        assert f.exists()


def main_in_process(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_line_usage_error(code, err, *needles):
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("usage error: "), err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


SWEEP = ("sweep", "--preset", "fig5", "--gt_grid.count", "2")

# Values a user may type after --input.phi that are not a phase in [0, 2pi):
# out-of-range and non-finite floats (repr gives 'nan', 'inf', '1e+300'),
# bare words (strings, or the JSON literals true/false/null).
BAD_PHASES = st.one_of(
    st.floats().filter(lambda x: not 0.0 <= x < 2 * math.pi).map(repr),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
)

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)

# (dotted field, raw value) pairs that are not a valid value of the field:
# non-integer counts and rungs, words and lists as amplitudes, cutoff lists
# of the wrong length.
BAD_FIELDS = st.one_of(
    st.tuples(st.sampled_from(["gt_grid.count", "oracle.ladder_rungs"]),
              st.floats().filter(lambda x: not x.is_integer()).map(repr)),
    st.tuples(st.sampled_from(["input.alpha_abs", "input.beta", "input.gamma"]),
              st.one_of(WORDS, st.lists(st.integers(), max_size=3).map(json.dumps))),
    st.tuples(st.just("oracle.cutoffs"),
              st.lists(st.integers(0, 9), max_size=5)
              .filter(lambda c: len(c) != 3).map(json.dumps)),
)

# Values of the config field ``witnesses`` that are not a list of valid
# labels: a bare string, lists holding a non-string, and lists holding a
# label that does not parse (unknown criterion, invalid mode pair, Duan
# at higher order).
BAD_WITNESSES = st.one_of(
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.none(), st.booleans(), st.floats()), min_size=1),
    st.lists(st.one_of(
        WORDS,
        st.builds("{}:{}".format, st.sampled_from(["HZ1", "HZ2", "DUAN"]),
                  st.sampled_from(["aa", "ba", "cb", "ca", "abc", "x"])),
        st.builds("DUAN:{}:{},1".format, st.sampled_from(["ab", "bc", "ac"]),
                  st.integers(2, 5))), min_size=1),
)


class TestCliBoundary:
    @settings(max_examples=60, deadline=None)
    @given(BAD_FIELDS)
    @example(("gt_grid.count", "3.5"))
    @example(("input.alpha_abs", "abc"))
    @example(("input.beta", "[1]"))
    @example(("oracle.cutoffs", "[3,2]"))
    def test_bad_field_is_one_line_usage_error(self, case):
        field, raw = case
        code, out, err = main_in_process(*SWEEP, "--oracle", f"--{field}", raw)
        assert_one_line_usage_error(code, err, field)
        assert out == ""

    @settings(max_examples=40, deadline=None)
    @given(BAD_WITNESSES)
    @example(["HZ1:aa"])
    @example(["DUAN:ab:2,1"])
    @example([5])
    @example("HZ1:ab")
    def test_bad_witnesses_are_one_line_usage_error(self, witnesses):
        cfg = presets()["fig5"].to_dict()
        cfg["witnesses"] = witnesses
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            for command in ("sweep", "compare"):
                code, out, err = main_in_process(command, "--config", str(path))
                assert_one_line_usage_error(code, err, "witnesses")
                assert out == ""

    def test_overflowing_phase_is_one_line_usage_error(self):
        code, out, err = main_in_process("sweep", "--preset", "fig5", "--gt_grid.stop",
                                         "1e308", "--gt_grid.count", "3")
        assert_one_line_usage_error(code, err, "finite")
        assert out == ""

    def test_oversized_check_cutoffs_is_one_line_usage_error(self):
        code, out, err = main_in_process("check", "--cutoffs", "100,100,100")
        assert_one_line_usage_error(code, err, "2048")
        assert out == ""

    @settings(max_examples=60, deadline=None)
    @given(BAD_PHASES)
    def test_bad_phase_is_one_line_usage_error(self, raw):
        code, out, err = main_in_process(*SWEEP, "--input.phi", raw)
        assert_one_line_usage_error(code, err, "input.phi")
        assert out == ""

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True))
    def test_good_phase_runs(self, phi):
        code, out, err = main_in_process(*SWEEP, "--input.phi", repr(phi))
        assert code == 0, err
        assert out.startswith(CSV_HEADER)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(max_value=0))
    def test_nonpositive_workers_is_one_line_usage_error(self, workers):
        code, _, err = main_in_process(*SWEEP, f"--workers={workers}")
        assert_one_line_usage_error(code, err, "workers")

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", "true"])
    def test_bad_workers_env_is_one_line_usage_error(self, raw, monkeypatch):
        monkeypatch.setenv("FWM_WORKERS", raw)
        code, _, err = main_in_process(*SWEEP)
        assert_one_line_usage_error(code, err, "workers")

    @pytest.mark.parametrize("field, value", [("tolerance", 1e-10), ("method", "rk4")])
    def test_removed_oracle_fields_rejected(self, field, value, tmp_path):
        code, _, err = main_in_process("compare", f"--oracle.{field}", json.dumps(value))
        assert_one_line_usage_error(code, err, field)
        cfg = default_compare_config().to_dict()
        cfg["oracle"][field] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        code, _, err = main_in_process("compare", "--config", str(path))
        assert_one_line_usage_error(code, err, field)

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_config_is_one_line_usage_error(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, _, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, "cannot read config")

    def test_failed_oracle_rows_are_strict_json(self, tmp_path):
        """Rows the oracle cannot produce (cutoffs too small for the input)
        carry value null in JSON and nan in CSV, and the run exits 2."""
        args = (*SWEEP, "--oracle", "--oracle.cutoffs", "[3,2,2]",
                "--input.phi", "0")
        js, csv = tmp_path / "rows.json", tmp_path / "rows.csv"
        assert main_in_process(*args, "--format", "json", "--out", str(js))[0] == 2
        code, _, err = main_in_process(*args, "--out", str(csv))
        assert code == 2
        assert err.splitlines()[-1] == ("numerical failure: 8 oracle_failed rows, "
                                        "oracle.cutoffs (3, 2, 2) too small for the "
                                        "coherent input")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        payload = json.loads(js.read_text(), parse_constant=reject)
        failed = [r for r in payload["rows"] if r["source"] == "oracle_failed"]
        assert len(failed) == 4 * 2
        assert all(r["value"] is None and r["entangled"] is False for r in failed)
        csv_failed = [line for line in csv.read_text().splitlines()
                      if line.endswith(",oracle_failed")]
        assert len(csv_failed) == 4 * 2
        assert all(line.split(",")[6] == "nan" for line in csv_failed)
