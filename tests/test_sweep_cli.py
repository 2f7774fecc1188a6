import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fwm import cli
from fwm.fockspace import FockBasis, coherent_state, cutoffs_for
from fwm.model import ModelParams
from fwm.oracle import witness_grid
from fwm.sweep import (CSV_HEADER, GtGrid, InputSpec, ParamsSpec,
                       RunConfig, Series, UsageError, _onset, apply_overrides,
                       default_compare_config, presets, rows_to_csv,
                       rows_to_json, run_compare, run_sweep)
from fwm.witnesses import WitnessId


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
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

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
        series, summary = run_sweep(cfg)
        assert series == [] and summary == {}

    def test_row_order_and_count(self):
        cfg = tiny_config()
        series, summary = run_sweep(cfg)
        assert [(s.witness.label(), s.phi, s.source) for s in series] == [
            (label, phi, "perturbative") for label in cfg.witnesses
            for phi in cfg.input.phi]
        assert all(s.gt.shape == s.value.shape == (21,) for s in series)
        assert (np.diff(series[0].gt) > 0).all()
        assert len(rows_to_csv(series).splitlines()) == 1 + 2 * 2 * 21

    def test_onset_interpolation_and_consistency(self):
        cfg = tiny_config()
        series, summary = run_sweep(cfg)
        assert len(summary) == len(series)
        for s in series:
            onset = summary[(s.witness.label(), s.phi)]
            assert (onset is not None) == bool((s.value < 0).any())
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
            witnesses=("HZ1:ab",))
        series, _ = run_sweep(cfg, oracle=True)
        prt, orc = series
        assert (prt.source, orc.source) == ("perturbative", "oracle")
        assert orc.value.shape == prt.value.shape == (3,)
        # oracle and closed form agree to the g³ budget at these settings
        for o, p in zip(orc.value, prt.value):
            assert o == pytest.approx(p, abs=2e-4 + 5e-2 * abs(p))

    @pytest.mark.parametrize("phases", [(0.0,), (0.0, 1.0)])
    def test_phases_start_no_process_pool(self, phases, monkeypatch):
        """Pump phases run one after another in this process: no phase
        count starts a process pool."""
        class RefusedPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RefusedPool)
        cfg = tiny_config(
            params=ParamsSpec(g=0.05, delta_omega1=-5.0),
            input=InputSpec(alpha_abs=0.8, phi=phases, beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.0, stop=0.04, count=3),
            witnesses=("HZ1:ab",))
        series, _ = run_sweep(cfg, oracle=True)
        assert [(s.source, s.phi) for s in series] == \
            [("perturbative", p) for p in phases] + [("oracle", p) for p in phases]

    @pytest.mark.parametrize("count", [3, 40])
    def test_multi_phase_rows_match_single_phase_runs(self, count, monkeypatch):
        """A two-phase oracle sweep writes, for each phase, the bytes of a
        sweep of that phase alone.  At 40 grid times on two CPUs every phase
        spreads three time chunks over two threads."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        base = dict(
            params=ParamsSpec(g=0.05, delta_omega1=-5.0),
            gt_grid=GtGrid(start=0.0, stop=0.04, count=count),
            witnesses=("HZ1:ab", "HZ1:bc"))

        def sweep(phases):
            inp = InputSpec(alpha_abs=0.8, phi=phases, beta=0.6, gamma=0.5)
            return run_sweep(RunConfig(input=inp, **base), oracle=True)[0]

        phases = (0.0, math.pi / 2)
        alone = {(s.source, s.witness.label(), s.phi): s
                 for phi in phases for s in sweep((phi,))}
        together = sweep(phases)
        assert len(together) == len(alone) == 2 * 2 * 2
        for s in together:
            assert rows_to_csv([s]) == rows_to_csv(
                [alone[(s.source, s.witness.label(), s.phi)]])

    def test_g_zero_sweep_rejected(self):
        cfg = tiny_config(params=ParamsSpec(g=0.0, delta_omega1=-1.0))
        with pytest.raises(UsageError):
            run_sweep(cfg)

    def test_oracle_at_gt_zero_is_never_entangled(self):
        """ψ(0) is a product state: every gt = 0 oracle value is >= 0 and
        flagged false, and the unclamped witness there is roundoff only."""
        cfg = RunConfig.from_dict(apply_overrides(default_compare_config().to_dict(), {
            "input.phi": [0.0, 1.0, 2.0], "gt_grid.start": 0.0,
            "gt_grid.count": 3}))
        series, _ = run_sweep(cfg, oracle=True)
        oracle = [s for s in series if s.source == "oracle"]
        assert len(oracle) == 31 * 3 and all(s.gt[0] == 0.0 for s in oracle)
        assert all(s.value[0] >= 0.0 for s in oracle)
        flags = [line.split(",") for line in rows_to_csv(oracle).splitlines()[1:]]
        assert all(f[7] == "false" for f in flags if f[0] == "0")
        params = ModelParams.from_detuning(-100.0, 1.0)
        for phi in cfg.input.phi:
            inp = cfg.input.coherent(phi)
            psi0 = coherent_state(FockBasis(cutoffs_for(inp)), inp)
            raw, _ = witness_grid(cfg.witness_ids(), [psi0], params, [0.0])
            for wid, value in zip(cfg.witness_ids(), raw[:, 0]):
                assert abs(value) <= 1e-11, wid.label()

    def test_csv_and_json_rows_agree(self):
        """Both writers give the same rows in the same order, and
        entangled == (value < 0) in both."""
        cfg = tiny_config(
            params=ParamsSpec(g=0.05, delta_omega1=-5.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0,), beta=0.6, gamma=0.5),
            witnesses=("HZ1:ab", "DUAN:ab"))
        series, summary = run_sweep(cfg, oracle=True)
        assert [s.source for s in series] == ["perturbative"] * 2 + ["oracle"] * 2
        header, *lines = rows_to_csv(series).splitlines()
        rows = json.loads(rows_to_json(series, summary))["rows"]
        assert len(lines) == len(rows) == 4 * 21
        for line, row in zip(lines, rows):
            fields = dict(zip(header.split(","), line.split(",")))
            assert fields.keys() == row.keys()
            value = float(fields["value"])
            assert row["value"] == value
            entangled = value < 0.0
            assert fields["entangled"] == ("true" if entangled else "false")
            assert row["entangled"] is entangled
            assert [float(fields["gt"]), float(fields["phi"]), fields["criterion"],
                    fields["modes"], int(fields["m"]), int(fields["n"]), fields["source"]] \
                == [row[k] for k in ("gt", "phi", "criterion", "modes", "m", "n", "source")]
        assert any(row["entangled"] for row in rows)
        assert not all(row["entangled"] for row in rows)


def reference_json(series, summary) -> str:
    """The row-dict writer `rows_to_json` replaced; its bytes are the contract."""
    rows = []
    for s in series:
        w = s.witness
        fixed = {"phi": s.phi, "criterion": w.criterion.value, "modes": w.mode_string,
                 "m": w.m, "n": w.n, "source": s.source}
        rows.extend({**fixed, "gt": gt, "value": v, "entangled": v < 0.0}
                    for gt, v in zip(s.gt.tolist(), s.value.tolist()))
    payload = {
        "rows": rows,
        "summary": [
            {"witness": label, "phi": phi, "onset_gt": onset}
            for (label, phi), onset in summary.items()],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def reference_csv(series) -> str:
    """The per-value writer `rows_to_csv` replaced; its bytes are the contract."""
    def fmt(x):
        if x == 0.0:
            x = 0.0   # normalize -0.0
        return f"{x:.17g}"

    lines = [CSV_HEADER]
    for s in series:
        w = s.witness
        mid = f"{fmt(s.phi)},{w.criterion.value},{w.mode_string},{w.m},{w.n}"
        lines.extend(f"{fmt(gt)},{mid},{fmt(v)},{'true' if v < 0.0 else 'false'},"
                     f"{s.source}" for gt, v in zip(s.gt.tolist(), s.value.tolist()))
    return "\n".join(lines) + "\n"


def assert_same_bytes(text: str, ref: str) -> str:
    """Byte identity, reported at the first difference (pytest's diff of
    megabyte payloads would take minutes)."""
    if text != ref:
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", ref + "\1")) if a != b)
        lo = max(at - 60, 0)
        pytest.fail(f"differs at byte {at}: {text[lo:at + 60]!r} != {ref[lo:at + 60]!r}")
    return text


def assert_json_matches_reference(series, summary) -> str:
    return assert_same_bytes(rows_to_json(series, summary), reference_json(series, summary))


def assert_csv_matches_reference(series) -> str:
    return assert_same_bytes(rows_to_csv(series), reference_csv(series))


def one_series(value, phi=0.0):
    wid = WitnessId.parse("HZ1:ab:2,1")
    return [Series(wid, phi, "perturbative", np.linspace(0.0, 0.1, len(value)),
                   np.array(value, dtype=float))]


def small_oracle_config():
    """Two pump phases of three witnesses, at amplitudes the oracle takes."""
    return tiny_config(
        params=ParamsSpec(g=0.05, delta_omega1=-5.0),
        input=InputSpec(alpha_abs=0.8, phi=(0.0, 1.0), beta=0.6, gamma=0.5),
        gt_grid=GtGrid(start=0.0, stop=0.04, count=5),
        witnesses=("HZ1:ab", "DUAN:bc", "TRI_SYM"))


def small_oracle_sweep():
    """Two pump phases of three witnesses, closed form and oracle."""
    series, summary = run_sweep(small_oracle_config(), oracle=True)
    assert {s.source for s in series} == {"perturbative", "oracle"}
    return series, summary


class TestJsonWriter:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_presets_byte_identical(self, name):
        assert_json_matches_reference(*run_sweep(presets()[name]))

    def test_oracle_sweep_byte_identical(self):
        assert_json_matches_reference(*small_oracle_sweep())

    def test_empty_witnesses_byte_identical(self):
        text = assert_json_matches_reference(*run_sweep(tiny_config(witnesses=())))
        assert text == '{\n  "rows": [],\n  "summary": []\n}'

    def test_integer_phi_from_config_byte_identical(self):
        """A phase typed 1 is stored, and written, as 1.0."""
        d = tiny_config().to_dict()
        d["input"]["phi"] = [0, 1]
        series, summary = run_sweep(RunConfig.from_dict(d))
        assert [type(s.phi) for s in series] == [float] * 4
        text = assert_json_matches_reference(series, summary)
        assert '"phi": 1.0,' in text and '"phi": 1,' not in text

    def test_none_onsets_and_negative_zero_byte_identical(self):
        series = one_series([-0.0, 0.0, 2.5e-300, -1e-17])
        texts = [assert_json_matches_reference(series, summary) for summary in
                 ({}, {("HZ1:ab:2,1", 0.0): None}, {("HZ1:ab:2,1", 0.0): 0.05})]
        assert all('"value": -0.0\n' in text for text in texts)
        assert '"onset_gt": null' in texts[1] and '"onset_gt": 0.05' in texts[2]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises(self, bad):
        series = one_series([0.5, bad])
        for writer in (rows_to_json, reference_json):
            with pytest.raises(ValueError, match="JSON compliant"):
                writer(series, {})


class TestCsvWriter:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_presets_byte_identical(self, name):
        assert_csv_matches_reference(run_sweep(presets()[name])[0])

    def test_oracle_sweep_byte_identical(self):
        assert_csv_matches_reference(small_oracle_sweep()[0])

    def test_negative_zero_and_tiny_values_byte_identical(self):
        text = assert_csv_matches_reference(one_series([-0.0, 0.0, 2.5e-300, -1e-17]))
        values = [line.split(",")[6:8] for line in text.splitlines()[1:]]
        assert values[:2] == [["0", "false"]] * 2       # -0.0 is written as 0
        assert [flag for _, flag in values[2:]] == ["false", "true"]

    def test_integer_phi_from_config_byte_identical(self):
        d = tiny_config().to_dict()
        d["input"]["phi"] = [0, 1]
        series, _ = run_sweep(RunConfig.from_dict(d))
        assert [type(s.phi) for s in series] == [float] * 4
        text = assert_csv_matches_reference(series)
        assert ",1,HZ1,ab,1,1," in text

    def test_non_finite_values_byte_identical(self):
        text = assert_csv_matches_reference(one_series([math.nan, math.inf, -math.inf, 0.5]))
        assert [line.split(",")[6:8] for line in text.splitlines()[1:4]] == [
            ["nan", "false"], ["inf", "false"], ["-inf", "true"]]

    def test_empty_witnesses_byte_identical(self):
        series, _ = run_sweep(tiny_config(witnesses=()))
        assert assert_csv_matches_reference(series) == CSV_HEADER + "\n"

    def test_series_on_different_grids_byte_identical(self, monkeypatch):
        """Each series keeps its own gt column when two grids (and an
        empty one, also last) share a call; JSON too.  A grid that starts
        at -0.0 shares the +0.0 grid's column in CSV, which writes both
        as 0, and has its own in JSON, which writes -0.0."""
        coarse, = one_series([0.5, -0.25, 1.0])
        signed = coarse._replace(gt=np.array([-0.0, 0.05, 0.1]))
        fine = coarse._replace(gt=np.linspace(0.0, 0.1, 5), value=np.linspace(1.0, -1.0, 5),
                               source="oracle")
        empty = coarse._replace(gt=np.empty(0), value=np.empty(0))
        series = [coarse, signed, fine, empty, coarse, fine, empty]
        from fwm import sweep as sweep_mod
        rendered, render = [], sweep_mod._column

        def column(fmt, values):
            rendered.append(repr(values.tolist()))   # repr keeps the sign of -0.0
            return render(fmt, values)

        monkeypatch.setattr(sweep_mod, "_column", column)
        text = assert_csv_matches_reference(series)
        assert len(text.splitlines()) == 1 + 3 * 3 + 2 * 5
        assert text.splitlines()[4:7] == text.splitlines()[1:4]   # -0.0 is written as 0
        assert (rendered.count("[0.0, 0.05, 0.1]"), rendered.count("[-0.0, 0.05, 0.1]")) \
            == (1, 0)
        rendered.clear()
        text = assert_json_matches_reference(series, {})
        assert '"gt": -0.0,' in text and '"gt": 0.0,' in text
        assert (rendered.count("[0.0, 0.05, 0.1]"), rendered.count("[-0.0, 0.05, 0.1]")) \
            == (1, 1)


def reference_onset(gts, values):
    """The per-value loop `_onset` replaced; its floats are the contract."""
    for i, v in enumerate(values):
        if v < 0.0:
            if i == 0:
                return float(gts[0])
            v_prev = values[i - 1]
            frac = v_prev / (v_prev - v)
            return float(gts[i - 1] + frac * (gts[i] - gts[i - 1]))
    return None


class TestOnset:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_presets_match_per_value_loop(self, name):
        series, summary = run_sweep(presets()[name])
        assert any(onset is not None for onset in summary.values())
        for s in series:
            assert summary[(s.witness.label(), s.phi)] == reference_onset(s.gt, s.value)

    def test_first_point(self):
        assert _onset(np.array([0.1, 0.2]), np.array([-1.0, 2.0])) == 0.1

    def test_interpolated_crossing(self):
        gts, values = np.array([0.0, 0.1, 0.2, 0.3]), np.array([3.0, 1.0, -3.0, -1.0])
        assert _onset(gts, values) == 0.1 + 0.25 * (0.2 - 0.1)

    @pytest.mark.parametrize("values", [[1.0, 0.0, -0.0, 2.0], [math.nan, 1.0, 0.5, 0.25]])
    def test_no_onset(self, values):
        assert _onset(np.linspace(0.0, 0.3, 4), np.array(values)) is None


class TestRunCompare:
    def test_requires_oracle(self):
        """compare always runs the oracle, with no switch to turn it on: a
        config naming no oracle setting propagates every phase, and the
        settings it echoes have none."""
        report = run_compare(RunConfig(
            params=ParamsSpec(g=0.3, delta_omega1=-3.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0, 1.0), beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.15, stop=0.3, count=2),
            witnesses=("HZ1:ab", "DUAN:ab")))
        assert "oracle" not in report["settings"]
        assert sorted(report["witnesses"]) == ["DUAN:ab", "HZ1:ab"]
        assert [per["diagnostics"]["dimension"] > 0 for per in report["per_phi"].values()] \
            == [True, True]

    def test_requires_three_rungs(self, monkeypatch):
        """Each phase is certified over the three rungs g, g/2, g/4 of the
        configured coupling, at the configured detuning."""
        from fwm import oracle as oracle_mod
        seen, run = [], oracle_mod.run

        def recorded(wids, params, *args):
            seen.append((params.g, params.delta_omega1))
            return run(wids, params, *args)
        monkeypatch.setattr(oracle_mod, "run", recorded)
        run_compare(RunConfig(
            params=ParamsSpec(g=0.3, delta_omega1=-3.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0, 1.0), beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.15, stop=0.3, count=2),
            witnesses=("HZ1:ab",)))
        assert seen == [(0.3, -3.0), (0.15, -3.0), (0.075, -3.0)] * 2

    def test_small_certification_run(self):
        cfg = RunConfig(
            params=ParamsSpec(g=0.3, delta_omega1=-3.0),
            input=InputSpec(alpha_abs=0.8, phi=(0.0,), beta=0.6, gamma=0.5),
            gt_grid=GtGrid(start=0.15, stop=0.3, count=2),
            witnesses=("HZ1:ab", "HZ1:bc", "DUAN:ab"))
        report = run_compare(cfg)
        for label, s in report["witnesses"].items():
            assert s["exponent_min"] is None or s["exponent_min"] >= 2.3, (label, s)


# child interpreters import the fwm these tests import, installed or not
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fwm.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV)


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
        """compare runs the oracle from any config, a figure preset's too,
        so an input too large for any oracle basis ends it with one line."""
        out = run_cli("compare", "--preset", "fig2", "--input.alpha_abs", "1e40")
        assert out.returncode == 1
        assert out.stderr.strip().splitlines() == [
            "usage error: no cutoff below 10000 reaches tail 1e-12"]

    def test_single_rung_ladder_usage_error(self):
        """The ladder is fixed at three rungs: a config has no oracle
        section to ask for one, which is reported in one line."""
        out = run_cli("compare", "--preset", "fig2", "--oracle.ladder_rungs", "1")
        assert out.returncode == 1
        assert out.stderr.splitlines() == ["usage error: unknown key oracle"]

    def test_high_witness_order_runs(self):
        """A closed form of order 1200 compiles in a fresh process: the
        operator powers are built upward, not by 1200-deep recursion.  At
        |α| = 1 its amplitude powers stay finite and so do its values."""
        out = run_cli("sweep", "--preset", "fig2", "--witnesses", '["HZ1:ab:1200,1"]',
                      "--input.alpha_abs", "1", "--gt_grid.count", "3",
                      "--input.phi", "[0]")
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        rows = [line.split(",") for line in out.stdout.splitlines()[1:]]
        assert [float(r[6]) for r in rows] == pytest.approx([0.0, 411.6403087, 1617.718445])

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
        out = run_cli("check", "--preset", "fig2", "--seed", "11")
        assert out.returncode == 0
        assert "check: PASS" in out.stdout

    def test_check_writes_report_to_out(self, tmp_path):
        f = tmp_path / "check.txt"
        out = run_cli("check", "--preset", "fig2", "--seed", "11", "--out", str(f))
        assert out.returncode == 0
        assert out.stdout == ""
        assert f.read_text().splitlines()[-1] == "check: PASS"

    def test_check_reads_only_detuning_and_seed(self):
        """check validates the whole run config but its report depends on
        params.delta_omega1 and seed alone: the other keys, params.g
        included, leave it byte-identical."""
        plain = main_in_process("check")
        assert plain[0] == 0
        ignored = ("--input.alpha_abs", "99", "--gt_grid.count", "7",
                   "--witnesses", "[]", "--input.beta", "3", "--params.g", "0.5")
        assert main_in_process("check", *ignored) == plain
        for read in (("--seed", "7"), ("--params.delta_omega1", "-5")):
            assert main_in_process("check", *read)[1] != plain[1], read

    def test_subcommand_help_names_overrides(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--<dotted.key> VALUE", "--input.phi 1.5", "--seed N"):
            assert flag in out
        assert "--workers" not in out

    def test_cli_paths_import_no_scipy(self, tmp_path):
        """The closed-form sweeps, check, the oracle sweep and compare run on
        numpy alone: none of them imports scipy.  Neither the start-up nor
        these single-chunk oracle jobs (3 times each) import
        ``concurrent.futures``: it is the cost of more than one worker.  A
        two-phase oracle sweep of three time chunks per phase, on two CPUs,
        runs its phases in this process: chunk threads import
        ``concurrent.futures.thread``, and nothing imports
        ``multiprocessing`` or ``concurrent.futures.process``."""
        runs = [["sweep", "--preset", "fig5", "--out", str(tmp_path / "fig5.csv")],
                ["check", "--preset", "fig2"],
                ["sweep", "--preset", "fig5", "--oracle", "--input.phi", "[0.0]",
                 "--input.alpha_abs", "0.8", "--input.beta", "0.6",
                 "--input.gamma", "0.5", "--gt_grid.count", "3",
                 "--out", str(tmp_path / "oracle.csv")],
                ["compare", "--gt_grid.count", "3", "--out", str(tmp_path / "compare.json")]]
        threaded = ["sweep", "--preset", "fig2", "--oracle", "--input.phi", "[0.0, 1.5]",
                    "--input.alpha_abs", "0.8", "--input.beta", "0.6",
                    "--input.gamma", "0.5", "--gt_grid.count", "40",
                    "--out", str(tmp_path / "threaded.csv")]
        script = ("import contextlib, io, os, sys\n"
                  "import fwm\n"
                  "import fwm.cli\n"
                  "print('concurrent.futures' in sys.modules)\n"
                  "def run(argv):\n"
                  "    with contextlib.redirect_stdout(io.StringIO()), "
                  "contextlib.redirect_stderr(io.StringIO()):\n"
                  "        assert fwm.cli.main(argv) == 0, argv\n"
                  f"for argv in {runs!r}:\n"
                  "    run(argv)\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                  "print('concurrent.futures' in sys.modules)\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  f"run({threaded!r})\n"
                  "print([m in sys.modules for m in ('concurrent.futures.thread', "
                  "'concurrent.futures.process', 'multiprocessing')])\n")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=CHILD_ENV)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["False", "[]", "False", "[True, False, False]"]


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
RESONANT = ("--params.delta_omega1", "0")
# check's coefficient trials take g = 0.05·|Δω₁| at t = 1/|Δω₁|: here g·g
# underflows, gt does not
TINY_COUPLING = ("--params.delta_omega1", "1e-300", "--params.g", "1")

# Values a user may type after --input.phi that are not a phase in [0, 2pi):
# out-of-range and non-finite floats (repr gives 'nan', 'inf', '1e+300'),
# bare words (strings, or the JSON literals true/false/null).
BAD_PHASES = st.one_of(
    st.floats().filter(lambda x: not 0.0 <= x < 2 * math.pi).map(repr),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
)

WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)

# (dotted field, raw value) pairs that are not a valid value of the field:
# non-integer counts, words and lists as amplitudes.
BAD_FIELDS = st.one_of(
    st.tuples(st.just("gt_grid.count"),
              st.floats().filter(lambda x: not x.is_integer()).map(repr)),
    st.tuples(st.sampled_from(["input.alpha_abs", "input.beta", "input.gamma"]),
              st.one_of(WORDS, st.lists(st.integers(), max_size=3).map(json.dumps))),
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
    @example(("input.bta", "3"))
    @example(("params.foo", "1"))
    @example(("gt_grid.stepz", "3"))
    @example(("oracle.cutof", "3"))
    @example(("output.fmt", "json"))
    def test_bad_field_is_one_line_usage_error(self, case):
        field, raw = case
        code, out, err = main_in_process(*SWEEP, "--oracle", f"--{field}", raw)
        # no config section is named output or oracle, so its first key is unknown
        section = field.split(".")[0]
        needle = f"unknown key {section}" if section in ("output", "oracle") else field
        assert_one_line_usage_error(code, err, needle)
        assert out == ""

    @settings(max_examples=40, deadline=None)
    @given(BAD_WITNESSES)
    @example(["HZ1:aa"])
    @example(["DUAN:ab:2,1"])
    @example(["HZ1:ab:2,1:junk"])
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

    @pytest.mark.parametrize("preset, stop, needle", [
        ("fig5", "1e200", "coefficients"),     # 4g²t² overflows
        ("fig2", "1e153", "HZ1:ab values"),    # coefficients finite, |f2|²·|α|⁶ is not
    ])
    def test_overflowing_values_are_one_line_usage_error(self, preset, stop, needle):
        code, out, err = main_in_process("sweep", "--preset", preset,
                                         "--params.delta_omega1", "0", "--params.g", "1", "--gt_grid.stop", stop,
                                         "--gt_grid.count", "3")
        assert_one_line_usage_error(code, err, needle, "finite")
        assert out == ""

    @pytest.mark.parametrize("argv, needle", [
        (("compare", "--params.g", "1e308"), "Hamiltonian weights overflow"),
        (("compare", "--params.delta_omega1", "-5.5e-154", "--gt_grid.stop", "5.8e153",
          "--input.alpha_abs", "2", "--witnesses", '["HZ1:ab:2,1"]'),
         "delta_omega1 = -5.5e-154"),
        (("compare", "--params.g", "1e-323", "--gt_grid.start", "1e-17",
          "--gt_grid.stop", "1e-16"), "g > 0"),
    ])
    def test_overflowing_compare_or_check_is_one_line_usage_error(self, argv, needle,
                                                                  tmp_path):
        """An H weight g·√n overflows, the agreement floor 4(2g/Δω₁)² of a
        grid reaching |Δω₁|·t ≥ π overflows, or the smallest ladder rung g/4
        underflows to 0: one line, no output written."""
        f = tmp_path / "out.json"
        code, out, err = main_in_process(*argv, "--input.phi", "0", "--gt_grid.count",
                                         "2", "--out", str(f))
        assert_one_line_usage_error(code, err, needle)
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("argv", [
        ("sweep", "--preset", "fig2"),
        ("sweep", "--preset", "fig2", "--oracle", "--input.phi", "0"),
        ("compare",),
    ])
    def test_overflowing_times_are_one_line_usage_error(self, argv, tmp_path):
        """On the default grids gt/g overflows at g = 1e-323: one line, no
        overflow warning, no output written."""
        f = tmp_path / "out"
        code, out, err = main_in_process(*argv, "--params.g", "1e-323", "--out", str(f))
        assert_one_line_usage_error(code, err, "gt/g must be finite", "1e-323")
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("preset, flag, value, needle", [
        ("fig3", "--input.alpha_abs", "1e40", "HZ1:ab:2,1 values"),
        ("fig2", "--input.alpha_abs", "1e80", "HZ1:ab values"),
        ("fig2", "--input.beta", "1e150", "HZ1:ab values"),
    ])
    def test_overflowing_amplitude_is_one_line_usage_error(self, preset, flag, value,
                                                           needle, fmt, tmp_path):
        """A Python float power of a huge amplitude overflows inside a closed
        form; the sweep ends with one line and writes nothing."""
        f = tmp_path / f"rows.{fmt}"
        code, out, err = main_in_process("sweep", "--preset", preset, flag, value,
                                         "--format", fmt, "--out", str(f))
        assert_one_line_usage_error(code, err, needle, "finite")
        assert out == "" and not f.exists()

    def test_underflow_hiding_a_negative_value_is_one_line_usage_error(self):
        """|β|^800 = 0.1^800 underflows a Python float to an exact 0, and at
        gt = 0.01 the exact value is −4.3e-795: the sweep ends with one line
        instead of reporting 0 and ``entangled`` false."""
        code, out, err = main_in_process("sweep", "--preset", "fig2", "--witnesses",
                                         '["HZ2:bc:400,1"]', "--input.beta", "0.1",
                                         "--gt_grid.count", "11", "--input.phi", "[0]")
        assert_one_line_usage_error(code, err, "HZ2:bc:400,1 values underflow to 0",
                                    "5, 0.1, 2")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("compare",),
        ("sweep", "--preset", "fig2", "--oracle"),
    ])
    def test_amplitude_beyond_cutoff_bound_is_one_line_usage_error(self, argv, tmp_path):
        """|α|² = 1e80 starts the cutoff search past its bound: it is refused
        before any coherent amplitudes are allocated."""
        f = tmp_path / "out.json"
        code, out, err = main_in_process(*argv, "--input.alpha_abs", "1e40",
                                         "--out", str(f))
        assert_one_line_usage_error(code, err, "no cutoff below 10000 reaches tail")
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("cutoffs", ["100,100,100", "10,8", "10,8,8,8"])
    def test_check_cutoffs_is_one_line_usage_error(self, cutoffs):
        """check measures its residuals on the fixed box (10, 8, 8); a
        --cutoffs flag, of any size or length, is an unknown key."""
        code, out, err = main_in_process("check", "--cutoffs", cutoffs)
        assert_one_line_usage_error(code, err, "unknown key cutoffs")
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
    @given(workers=st.integers(max_value=0))
    @example(workers=2)
    def test_nonpositive_workers_is_one_line_usage_error(self, workers, tmp_path_factory):
        """A worker count other than 1, as a flag or as a config field:
        pump phases run in one process."""
        code, _, err = main_in_process(*SWEEP, f"--workers={workers}")
        assert_one_line_usage_error(code, err, "workers")
        path = tmp_path_factory.mktemp("workers") / "cfg.json"
        path.write_text(json.dumps({**presets()["fig5"].to_dict(), "workers": workers}))
        code, _, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, "workers")

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", "true"])
    def test_bad_workers_env_is_one_line_usage_error(self, raw, tmp_path):
        """A bad worker count, as a flag or as a config field."""
        code, _, err = main_in_process(*SWEEP, f"--workers={raw}")
        assert_one_line_usage_error(code, err, "workers")
        cfg = presets()["fig5"].to_dict()
        cfg["workers"] = cli._parse_value(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, "workers")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_check_format_is_one_line_usage_error(self, fmt):
        """check has one format and no --format flag: the flag falls through
        to the overrides as the unknown key format."""
        code, out, err = main_in_process("check", "--format", fmt)
        assert_one_line_usage_error(code, err, "unknown key format")
        assert out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("source", ["--output.format", "--config"])
    def test_check_format_from_config_is_one_line_usage_error(self, source, fmt,
                                                              tmp_path):
        """A config has no output section: a format from a dotted override or
        a --config file is the unknown key output, before anything is
        written."""
        argv = (source, fmt)
        if source == "--config":
            cfg = {**presets()["fig2"].to_dict(), "output": {"format": fmt}}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            argv = (source, str(path))
        f = tmp_path / "check.txt"
        code, out, err = main_in_process("check", *argv, "--out", str(f))
        assert_one_line_usage_error(code, err, "unknown key output")
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("field, value", [("tolerance", 1e-10), ("method", "rk4")])
    def test_removed_oracle_fields_rejected(self, field, value, tmp_path):
        """A config has no oracle section, so any former oracle field, as a
        dotted flag or in a config file, is the unknown key oracle."""
        code, _, err = main_in_process("compare", f"--oracle.{field}", json.dumps(value))
        assert_one_line_usage_error(code, err, "unknown key oracle")
        cfg = {**default_compare_config().to_dict(), "oracle": {field: value}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(cfg))
        code, _, err = main_in_process("compare", "--config", str(path))
        assert_one_line_usage_error(code, err, "unknown key oracle")

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_config_is_one_line_usage_error(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, _, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, "cannot read config")

    @pytest.mark.parametrize("seed", [-3, 2.7, True, "abc"])
    def test_bad_config_seed_is_one_line_usage_error(self, seed, tmp_path):
        cfg = presets()["fig2"].to_dict()
        cfg["seed"] = seed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_in_process("check", "--config", str(path))
        assert_one_line_usage_error(code, err, "seed")
        assert out == ""

    @pytest.mark.parametrize("raw", ["-3", "abc"])
    def test_bad_seed_flag_is_one_line_usage_error(self, raw):
        code, out, err = main_in_process("check", "--preset", "fig2", "--seed", raw)
        assert_one_line_usage_error(code, err, "seed")
        assert out == ""

    def test_compare_without_witnesses_reports_none(self, tmp_path):
        cfg = default_compare_config().to_dict()
        cfg["witnesses"] = []
        path, report = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        code, _, err = main_in_process("compare", "--config", str(path),
                                       "--out", str(report))
        assert code == 0, err
        payload = json.loads(report.read_text())
        assert payload["witnesses"] == {}
        assert all(per["witnesses"] == {} for per in payload["per_phi"].values())

    @pytest.mark.parametrize("section, value", [
        ("oracle", "abc"), ("params", 5), ("gt_grid", [1, 2]), ("config", [1, 2])])
    def test_non_object_config_section_is_one_line_usage_error(self, section, value,
                                                               tmp_path):
        """A section that is no JSON object, or the former section oracle
        with any value, is refused in one line."""
        cfg = value if section == "config" else {**presets()["fig5"].to_dict(),
                                                 section: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_in_process("sweep", "--config", str(path))
        needle = ("unknown key oracle" if section == "oracle"
                  else f"{section} must be a JSON object")
        assert_one_line_usage_error(code, err, needle)
        assert out == ""

    @pytest.mark.parametrize("extra", [("--out", "x.csv"), ("--seed", "7")])
    def test_non_object_config_with_overrides_is_one_line_usage_error(
            self, extra, tmp_path, monkeypatch):
        """A config that is no JSON object is refused with one line before
        any override or flag is applied to it."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        code, out, err = main_in_process("sweep", "--config", str(path), *extra)
        assert_one_line_usage_error(code, err, "config must be a JSON object")
        assert out == "" and not (tmp_path / "x.csv").exists()

    def test_compare_zero_coupling_is_one_line_usage_error(self, tmp_path):
        """g = 0 gives no ladder to certify: one line, no report written."""
        f = tmp_path / "report.json"
        code, out, err = main_in_process("compare", "--params.g", "0", "--out", str(f))
        assert_one_line_usage_error(code, err, "g > 0")
        assert out == "" and not f.exists()

    def test_unknown_top_level_config_key_is_one_line_usage_error(self, tmp_path):
        cfg = presets()["fig5"].to_dict()
        cfg["wrokers"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, "wrokers")
        assert out == ""

    @pytest.mark.parametrize("dotted", ["params.g", "input.beta", "input.phi",
                                        "gt_grid.count", "gt_grid", "witnesses"])
    def test_missing_config_key_is_one_line_usage_error(self, dotted, tmp_path):
        cfg = presets()["fig5"].to_dict()
        *sections, key = dotted.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        del node[key]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_in_process("sweep", "--config", str(path))
        assert_one_line_usage_error(code, err, f"missing key {dotted}")
        assert out == ""

    @pytest.mark.parametrize("key, value, needle", [
        ("params", {"omega_a": 2.4238e15}, "unknown key params.omega_a"),
        ("params", {"omega_b": None, "omega_c": None}, "unknown key params.omega_b"),
        ("oracle", {"cutoffs": [10, 8, 8]}, "unknown key oracle"),
        ("oracle", {}, "unknown key oracle"),
    ])
    def test_removed_config_keys_are_one_line_usage_error(self, key, value, needle,
                                                          tmp_path):
        """params holds g and delta_omega1 alone and the oracle sizes its own
        basis: a config file with a mode frequency or an oracle section is
        refused in one line, before anything is written."""
        cfg = presets()["fig5"].to_dict()
        cfg[key] = {**cfg.get(key, {}), **value}
        path, f = tmp_path / "old.json", tmp_path / "rows.csv"
        path.write_text(json.dumps(cfg))
        for command in ("sweep", "compare", "check"):
            code, out, err = main_in_process(command, "--config", str(path), "--out", str(f))
            assert_one_line_usage_error(code, err, needle)
            assert out == "" and not f.exists()

    @pytest.mark.parametrize("raw", ["-5", "-1e-300", "-inf"])
    def test_negative_pump_modulus_is_one_line_usage_error(self, raw, tmp_path):
        """input.alpha_abs is the modulus |α|; the pump phase is input.phi's.
        A negative value would write rows labelled with a phase off by π."""
        f = tmp_path / "rows.csv"
        code, out, err = main_in_process("sweep", "--preset", "fig2", "--input.phi", "0",
                                         "--input.alpha_abs", raw, "--out", str(f))
        assert_one_line_usage_error(code, err, "input.alpha_abs")
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("argv, needle", [
        (("sweep", "--preset", "fig5", "--fo", "json"), "unknown key fo"),
        (("sweep", "--preset", "fig5", "--ora", "true"), "unknown key ora"),
        (("compare", "--pre", "fig5"), "unknown key pre"),
        (("check", "--pre", "fig2"), "unknown key pre"),
    ])
    def test_flag_prefix_is_one_line_usage_error(self, argv, needle, tmp_path):
        """Each flag has one spelling: a prefix of --format, --oracle or
        --preset is an override of an unknown key, not the flag."""
        f = tmp_path / "out"
        code, out, err = main_in_process(*argv, "--out", str(f))
        assert_one_line_usage_error(code, err, needle)
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("argv, needle", [
        (("compare",), "no cutoff below 10000 reaches tail"),
        (("sweep", "--preset", "fig2", "--oracle"), "input amplitudes"),
    ])
    def test_huge_amplitude_with_oracle_is_one_line_usage_error(self, argv, needle,
                                                                tmp_path):
        """|α|² overflows a float at 1e160: compare stops at the cutoffs, and
        a sweep already at its closed forms, before the oracle."""
        f = tmp_path / "out.json"
        code, out, err = main_in_process(*argv, "--input.alpha_abs", "1e160",
                                         "--out", str(f))
        assert_one_line_usage_error(code, err, needle)
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("field", ["input.alpha_abs", "gt_grid.stop", "params.g"])
    def test_integer_beyond_float_range_is_one_line_usage_error(self, field):
        code, out, err = main_in_process(*SWEEP, f"--{field}", str(10 ** 400))
        assert_one_line_usage_error(code, err, field, "finite")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        SWEEP,
        ("compare", "--witnesses", '["HZ1:ab"]', "--input.phi", "0.0",
         "--input.alpha_abs", "0.8", "--input.beta", "0.6", "--input.gamma", "0.5",
         "--gt_grid.count", "2"),
        ("check",),
    ])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_one_line_usage_error(self, argv, where, tmp_path):
        """An --out in a directory that does not exist, or naming a
        directory, ends the run with one line once the result is ready."""
        path = tmp_path / "no" / "such" / "x" if where == "missing_dir" else tmp_path
        code, out, err = main_in_process(*argv, "--out", str(path))
        assert_one_line_usage_error(code, err, "cannot write", str(path))
        assert out == ""

    @pytest.mark.parametrize("flag, needle", [("--format", "unknown key format"),
                                              ("--output.format", "unknown key output")])
    def test_compare_csv_format_is_one_line_usage_error(self, flag, needle, tmp_path):
        """compare writes only a JSON report and takes no format: a CSV
        request is an unknown key, refused before anything runs or is
        written."""
        f = tmp_path / "report.csv"
        code, out, err = main_in_process("compare", flag, "csv", "--out", str(f))
        assert_one_line_usage_error(code, err, needle)
        assert out == "" and not f.exists()

    @pytest.mark.parametrize("fmt", ["csv", None])
    def test_compare_config_file_format(self, fmt, tmp_path):
        """A format written in a --config file is the unknown key output; a
        config file that names none, as compare's own settings do, gets the
        JSON report."""
        d = default_compare_config().to_dict()
        assert "output" not in d
        d["input"]["phi"] = [0.0]
        d["gt_grid"]["count"] = 2
        if fmt is not None:
            d["output"] = {"format": fmt}
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps(d))
        f = tmp_path / "y.csv"
        code, out, err = main_in_process("compare", "--config", str(cfg), "--out", str(f))
        if fmt == "csv":
            assert_one_line_usage_error(code, err, "unknown key output")
            assert out == "" and not f.exists()
        else:
            assert code == 0 and out == ""
            assert set(json.loads(f.read_text())) >= {"witnesses"}

    def test_compare_preset_settings_name_no_format(self, tmp_path):
        """--out, --format and --oracle are not config keys, so the settings
        of a compare report name neither the output nor an oracle switch."""
        f = tmp_path / "report.json"
        code, out, err = main_in_process(
            "compare", "--preset", "fig5", "--input.alpha_abs", "0.8", "--input.beta",
            "0.6", "--input.gamma", "0.5", "--input.phi", "0.0", "--gt_grid.start",
            "0.01", "--gt_grid.count", "2", "--out", str(f))
        assert code == 0 and out == "", err
        settings = json.loads(f.read_text())["settings"]
        assert sorted(settings) == ["gt_grid", "input", "params", "seed", "witnesses",
                                    "workers"]

    def test_sweep_config_without_output_writes_csv(self, tmp_path):
        cfg = presets()["fig5"].to_dict()
        assert "output" not in cfg
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = main_in_process("sweep", "--config", str(path),
                                         "--gt_grid.count", "2")
        assert code == 0, err
        assert out.startswith(CSV_HEADER + "\n")

    @pytest.mark.parametrize("argv, config, needle", [
        (("sweep", "--preset", "fig5", "--output.path", "x.csv"), None,
         "unknown key output"),
        (("sweep", "--preset", "fig5", "--output.format", "json"), None,
         "unknown key output"),
        (("sweep", "--preset", "fig5", "--oracle.enabled", "true"), None,
         "unknown key oracle"),
        (("sweep",), {"output": {"format": "json"}}, "unknown key output"),
        (("compare",), {"output": {"path": "x.json"}}, "unknown key output"),
        (("sweep",), {"oracle": {"enabled": True}}, "unknown key oracle"),
        (("check",), {"oracle": {"enabled": False}}, "unknown key oracle"),
        (("compare", "--format", "json"), None, "unknown key format"),
        (("compare", "--format", "csv"), None, "unknown key format"),
        (("check", "--format", "json"), None, "unknown key format"),
        (("check", "--format", "csv"), None, "unknown key format"),
    ])
    def test_removed_spelling_is_one_line_usage_error(self, argv, config, needle,
                                                      tmp_path, monkeypatch):
        """The output path and format and the oracle switch are flags only:
        --out for every command, --format and --oracle for sweep.  Their
        former config keys, as dotted flags or in a --config file, and a
        --format given to compare or check, are unknown keys, refused
        before anything is written."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("cfg.json").write_text(json.dumps({**presets()["fig5"].to_dict(), **config}))
            argv += ("--config", "cfg.json")
        code, out, err = main_in_process(*argv, "--out", "out")
        assert_one_line_usage_error(code, err, needle)
        assert out == ""
        assert sorted(os.listdir()) == ([] if config is None else ["cfg.json"])

    @pytest.mark.parametrize("argv, needle", [
        (("sweep", "--preset", "fig2", "--input.phi", "[0.0, 0.0]", "--gt_grid.count",
          "5", "--format", "json"), "input.phi: phase 0.0 is listed twice"),
        (("compare", "--input.phi", "[0.5, 1, 1.0]"), "input.phi: phase 1.0 is listed twice"),
        (("sweep", "--preset", "fig5", "--input.phi", "[0, 0.0]"),
         "input.phi: phase 0.0 is listed twice"),
        (("compare", "--input.phi", "[0.0]", "--witnesses", '["HZ1:ab", "HZ1:ab:1,1"]'),
         "witnesses: 'HZ1:ab' and 'HZ1:ab:1,1' name the same witness"),
        (("sweep", "--preset", "fig5", "--witnesses", '["TRI_SYM", "DUAN:ab", "TRI_SYM"]'),
         "witnesses: 'TRI_SYM' and 'TRI_SYM' name the same witness"),
    ])
    def test_duplicate_phase_or_witness_is_one_line_usage_error(self, argv, needle,
                                                               tmp_path):
        """sweep's onset summary and compare's report are keyed by witness
        and phase, so a phase or a witness given twice (however the label
        is spelled) would be dropped from them: one line, nothing written."""
        f = tmp_path / "out"
        code, out, err = main_in_process(*argv, "--out", str(f))
        assert_one_line_usage_error(code, err, needle)
        assert out == "" and not f.exists()

    def test_presets_csv(self):
        code, out, err = main_in_process("presets")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert out.splitlines()[0] == \
            "name,witnesses,delta_omega1,g,gt_start,gt_stop,gt_count"
        assert [r["name"] for r in rows] == ["fig2", "fig3", "fig4", "fig5"]
        assert [int(r["witnesses"]) for r in rows] == [9, 9, 9, 4]
        for r in rows:
            cfg = presets()[r["name"]]
            assert float(r["g"]) == cfg.params.g
            assert float(r["delta_omega1"]) == cfg.params.to_model().delta_omega1
            assert (float(r["gt_start"]), float(r["gt_stop"]), int(r["gt_count"])) \
                == (cfg.gt_grid.start, cfg.gt_grid.stop, cfg.gt_grid.count)

    @pytest.mark.parametrize("params", [(), RESONANT, TINY_COUPLING])
    def test_check_fails_on_perturbed_coefficients(self, params, monkeypatch):
        """check passes, detuned, resonant or at a coupling g = 5e-302 whose
        square underflows, until φ₁, and so the letter r in f2, g2 and h2,
        carries a 1e-9 relative error; the relations tying those to f3, g3
        and h3 then catch it.
        Both residual slopes are measured in units of |Δω₁|, so they read
        about 3 at any scale, and never inf."""
        from fwm import model
        argv = ("check", *params)
        code, out, _ = main_in_process(*argv)
        assert code == 0 and out.splitlines()[-1] == "check: PASS"
        slopes = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines()
                  if "scaling slope" in line]
        assert len(slopes) == 2 and all(abs(s - 3.0) < 0.1 for s in slopes), out
        phi = model._phi
        monkeypatch.setattr(model, "_phi",
                            lambda k, x: phi(k, x) * (1 + 1e-9) if k == 1 else phi(k, x))
        code, out, _ = main_in_process(*argv)
        assert code == 2
        lines = out.splitlines()
        assert lines[-1] == "check: FAIL"
        trials = [float(line.rsplit(" ", 1)[1]) for line in lines
                  if line.startswith("coefficient identities")]
        assert len(trials) == 3 and min(trials) > 1e-13


def sweep_config_file(tmp_path, case) -> tuple[Path, RunConfig, list[str]]:
    """(config file, config, extra flags) of a small sweep: two phases of
    two witnesses, the same with ``--witnesses '[]'``, or an oracle sweep."""
    cfg = small_oracle_config() if case == "oracle" else tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    if case == "no_witnesses":
        return path, tiny_config(witnesses=()), ["--witnesses", "[]"]
    return path, cfg, ["--oracle"] if case == "oracle" else []


def run_cli_bytes(*args, **kw):
    return subprocess.run([sys.executable, "-m", "fwm.cli", *args],
                          capture_output=True, env=CHILD_ENV, **kw)


DEV_FULL = Path("/dev/full")
# stdout as users get it: block-buffered, so the interpreter flushes it
# again at exit
BUFFERED_ENV = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}


class TestOutputStream:
    """The CLI writes the writers' blocks as they come: the same bytes as
    `rows_to_csv` and `rows_to_json`, no byte when rendering fails, one
    line when a write fails, and never the whole output at once."""

    @pytest.mark.parametrize("case", ["tiny", "no_witnesses", "oracle"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_writes_the_writers_bytes(self, fmt, case, tmp_path):
        path, cfg, flags = sweep_config_file(tmp_path, case)
        series, summary = run_sweep(cfg, oracle=case == "oracle")
        want = rows_to_json(series, summary) if fmt == "json" else rows_to_csv(series)
        if case == "no_witnesses":
            assert want in (CSV_HEADER + "\n", '{\n  "rows": [],\n  "summary": []\n}')
        argv = ("sweep", "--config", str(path), "--format", fmt, *flags)
        out = tmp_path / f"rows.{fmt}"
        to_file = run_cli_bytes(*argv, "--out", str(out))
        to_stdout = run_cli_bytes(*argv)
        assert to_file.returncode == to_stdout.returncode == 0, to_file.stderr
        assert to_file.stdout == b""
        assert_same_bytes(out.read_bytes().decode(), want)
        assert_same_bytes(to_stdout.stdout.decode(), want)

    @pytest.mark.parametrize("python_flags, argv", [
        ((), ("sweep", "--preset", "fig5")),
        ((), ("sweep", "--preset", "fig2", "--format", "json")),
        ((), ("compare", "--input.phi", "0")),
        ((), ("presets",)),
        ((), ("check",)),
        (("-u",), ("sweep", "--preset", "fig5")),
    ])
    def test_full_stdout_is_one_line_usage_error(self, python_flags, argv):
        if not DEV_FULL.exists():
            pytest.skip("no /dev/full")
        with DEV_FULL.open("wb") as full:
            out = subprocess.run([sys.executable, *python_flags, "-m", "fwm.cli", *argv],
                                 stdout=full, stderr=subprocess.PIPE, text=True,
                                 env=BUFFERED_ENV)
        assert out.returncode == 1
        assert out.stderr == "usage error: cannot write stdout: No space left on device\n"

    def test_reader_closing_early_is_one_line_usage_error(self):
        """A reader that stops after the first line (``| head -1``) ends the
        sweep with one line, and nothing more at interpreter exit."""
        proc = subprocess.Popen([sys.executable, "-m", "fwm.cli", "sweep", "--preset",
                                 "fig2", "--format", "json"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV)
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == "usage error: cannot write stdout: Broken pipe\n"

    def test_closed_stdout_is_one_line_usage_error(self):
        out = subprocess.run(["sh", "-c", 'exec "$0" -m fwm.cli presets >&-',
                              sys.executable], capture_output=True, text=True,
                             env=CHILD_ENV)
        assert out.returncode == 1
        assert out.stderr == "usage error: cannot write stdout: it is closed\n"

    def test_json_sweep_holds_one_series_at_a_time(self, tmp_path):
        """Writing the fig2 JSON sweep (27 series, 2.6 MB) allocates less
        than a quarter of the file at its peak: the writer renders one
        series at a time, and no copy of the whole text is made."""
        argv = ["sweep", "--preset", "fig2", "--format", "json", "--out"]
        warm = tmp_path / "warm.json"
        assert main_in_process(*argv, str(warm))[0] == 0   # imports and caches
        out = tmp_path / "fig2.json"
        tracemalloc.start()
        try:
            code = main_in_process(*argv, str(out))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = out.stat().st_size
        assert out.read_bytes() == warm.read_bytes() and size > 2_000_000
        assert peak < size / 4, f"peak {peak} B for a {size} B file"

    @pytest.mark.parametrize("existing", [True, False])
    def test_unrenderable_json_writes_nothing(self, existing, tmp_path, monkeypatch):
        """A value JSON cannot hold raises before --out is opened: an
        existing file keeps its bytes, and a missing one is not made."""
        monkeypatch.setattr(cli, "run_sweep",
                            lambda cfg, oracle: (one_series([0.5, math.nan]), {}))
        out = tmp_path / "rows.json"
        if existing:
            out.write_bytes(b"kept")
        with pytest.raises(ValueError, match="JSON compliant"):
            main_in_process(*SWEEP, "--format", "json", "--out", str(out))
        assert (out.read_bytes() == b"kept") if existing else not out.exists()
        stdout = io.StringIO()
        with pytest.raises(ValueError, match="JSON compliant"), \
                contextlib.redirect_stdout(stdout):
            cli.main([*SWEEP, "--format", "json"])
        assert stdout.getvalue() == ""


class TestConfigRoundTrip:
    """The configs the CLI prints load back as --config files and give the
    same results."""

    @pytest.mark.parametrize("command", [
        ("sweep", "--preset", "fig5", "--format", "json", "--gt_grid.count", "3"),
        ("compare",)])
    def test_integer_and_float_spellings_give_same_bytes(self, command):
        """Every real config field is stored as a float, so a value typed 1
        or 1.0 writes the same output."""
        spellings = {"params.g": ("1", "1.0"), "params.delta_omega1": ("-100", "-100.0"),
                     "input.phi": ("[0]", "[0.0]"), "input.alpha_abs": ("1", "1.0"),
                     "input.beta": ("1", "1.0"), "gt_grid.stop": ("1", "1.0")}
        outputs = set()
        for i in (0, 1):
            argv = [x for key, raws in spellings.items() for x in (f"--{key}", raws[i])]
            code, out, err = main_in_process(*command, *argv)
            assert code == 0, err
            outputs.add(out)
        assert len(outputs) == 1

    def test_preset_json_reproduces_sweeps(self, tmp_path):
        code, out, _ = main_in_process("presets", "--format", "json")
        assert code == 0
        printed = json.loads(out)
        assert sorted(printed) == sorted(presets())
        for name, cfg in printed.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            from_file = main_in_process("sweep", "--config", str(path))
            from_preset = main_in_process("sweep", "--preset", name)
            assert from_file[0] == 0 and from_file[1].startswith(CSV_HEADER + "\n")
            assert from_file == from_preset, name

    def test_compare_settings_reproduce_report(self, tmp_path):
        report, again = tmp_path / "report.json", tmp_path / "again.json"
        code, _, err = main_in_process("compare", "--out", str(report))
        assert code == 0, err
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(json.loads(report.read_text())["settings"]))
        code, _, err2 = main_in_process("compare", "--config", str(settings),
                                        "--out", str(again))
        assert code == 0, err2
        assert again.read_bytes() == report.read_bytes()
        assert err2 == err   # the verdict table


def _load_perfbench_workloads():
    """perfbench/workloads.py, which is not in a package, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_command(argv):
    """(parsed flags, config) of one command line, parsed and loaded as
    the CLI does, without running it; ``presets`` loads no config."""
    args, extra = cli._build_parser().parse_known_args(argv)
    overrides = cli._parse_overrides(extra)
    if args.command == "presets":
        assert not overrides, argv
        return args, None
    defaults = {"sweep": None, "compare": default_compare_config(),
                "check": presets()["fig2"]}
    return args, cli._load_config(args, overrides, default=defaults[args.command])


@pytest.mark.parametrize("name", ["figures", "certify", "oracle_grid"])
def test_benchmark_command_lines_load(name, tmp_path):
    """Every job of the benchmark's workloads parses and loads its config
    as the CLI would, without running, so a CLI change that would fail
    the benchmark fails here."""
    workloads = _load_perfbench_workloads()
    jobs = workloads.make(name, 0, tmp_path).jobs
    assert jobs
    for job in jobs:
        args, cfg = load_command(job.argv)
        assert isinstance(cfg, RunConfig), job.name
        assert cfg.workers == 1
        if job.out is not None:
            assert args.out == str(job.out)


@pytest.mark.parametrize("name", ["oracle_grid", "certify", "figures"])
def test_benchmark_runs_clean(name):
    """One pass of a workload of the benchmark, run as a user runs it:
    every output passes the benchmark's own checks.  Each is compared with
    its recorded reference; the figures workload also checks that each of
    its fig2-fig5 sweeps, as CSV and JSON, and ``check`` writes the same
    bytes on every pass, and the oracle workloads send every propagated
    state through the drift probe, which reads it over the box."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                          "--seconds", "0"], cwd=root, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), out.stderr


def readme_commands() -> list[list[str]]:
    """Every ``fwm`` command README shows: each line of its code blocks,
    ``\\`` continuations joined and comments dropped, and each inline
    code span, split into words as a shell would."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    commands = [shlex.split(line, comments=True)
                for block in fence.findall(text)
                for line in block.replace("\\\n", " ").splitlines()]
    commands += [shlex.split(span) for span in re.findall(r"`(fwm [^`]*)`", fence.sub("", text))]
    return [words[1:] for words in commands if words[:1] == ["fwm"]]


def test_readme_command_lines_load():
    """Every fwm command line in README parses and loads its config as the
    CLI would, without running, so a removed key or flag cannot leave the
    documentation stale."""
    commands = readme_commands()
    assert len(commands) >= 10
    assert ["sweep", "--preset", "fig2", "--input.alpha_abs", "5", "--input.phi",
            "1.5707963", "--gt_grid.count", "100", "--out", "out.csv"] in commands
    failures = []
    for argv in commands:
        try:
            load_command(argv)
        except UsageError as exc:
            failures.append(f"fwm {' '.join(argv)}: {exc}")
    assert failures == []
