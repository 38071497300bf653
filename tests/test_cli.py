import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfec
from burstfec.channel import ChannelSpec, ibp_from_stats
from burstfec.cli import DEFAULT_CONFIG, build_parser, main
from burstfec.dist import marginal_error_distribution
from burstfec.oracle import exact_joint_law, exact_loss


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def grid_args(tmp_path, verb, **extra):
    args = [
        verb,
        "--ber", extra.pop("ber", "0.05"),
        "--nacf", extra.pop("nacf", "0.5"),
        "--code", extra.pop("code", "6,3,1"),
        "--pair", extra.pop("pair", "2,2"),
        "--budget", extra.pop("budget", "0"),
        "--packets", extra.pop("packets", "500"),
        "--seed", extra.pop("seed", "9"),
        "--csv", str(tmp_path / extra.pop("csv", "out.csv")),
        "--report", str(tmp_path / extra.pop("report", "out.json")),
        "--quiet",
    ]
    for key, value in extra.items():
        args.extend([f"--{key}", value])
    return args


def test_analyze_writes_csv_and_report(tmp_path, capsys):
    assert main(grid_args(tmp_path, "analyze")) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r["model"] for r in rows] == ["model1", "model2", "model3", "baseline"]
    assert all(r["p"] != "" and r["p_hat"] == "" for r in rows)
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["generator"] == "philox"
    assert report["sampler"] == "sojourn-cut-inversion"
    assert report["config"]["packets"] == 500
    assert len(report["rows"]) == 4
    err = capsys.readouterr().err
    assert f"wrote {tmp_path / 'out.csv'}" in err
    assert f"wrote {tmp_path / 'out.json'}" in err


def test_analyze_models_flag_limits_rows(tmp_path):
    assert main(grid_args(tmp_path, "analyze", models="model3")) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r["model"] for r in rows] == ["model3"]


def test_unknown_model_is_rejected(tmp_path, capsys):
    assert main(grid_args(tmp_path, "analyze", models="model3,bogus")) == 2
    assert "unknown models" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_config_file_drives_grid_and_flags_override(tmp_path):
    config = {
        "channel": {"ber": [0.001, 0.01], "nacf": [0.4]},
        "codes": [[6, 3, 1]],
        "pairs": [[2, 2]],
        "budget": 0,
        "models": ["model3"],
        "packets": 500,
        "output": {
            "csv": str(tmp_path / "cfg.csv"),
            "report": str(tmp_path / "cfg.json"),
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    assert main(["analyze", "--config", str(cfg_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "cfg.csv")
    assert sorted(float(r["p_E"]) for r in rows) == [0.001, 0.01]
    assert all(r["model"] == "model3" for r in rows)

    # the --ber flag replaces the config grid; everything else sticks
    assert main(["analyze", "--config", str(cfg_path), "--ber", "0.02", "--quiet"]) == 0
    rows = read_rows(tmp_path / "cfg.csv")
    assert [r["p_E"] for r in rows] == ["0.02"]
    report = json.loads((tmp_path / "cfg.json").read_text())
    assert report["config"]["channel"]["ber"] == [0.02]
    assert report["config"]["packets"] == 500


def test_config_models_null_runs_the_default_models(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"models": None}))
    args = grid_args(tmp_path, "analyze")
    assert main([args[0], "--config", str(cfg_path), *args[1:]]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r["model"] for r in rows] == ["model1", "model2", "model3", "baseline"]
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["config"]["models"] == ["model1", "model2", "model3", "baseline"]


def test_simulate_emits_only_mc_rows(tmp_path):
    assert main(grid_args(tmp_path, "simulate")) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r["model"] for r in rows] == ["mc"]
    (row,) = rows
    assert row["p_hat"] != "" and row["ci_lo"] != "" and row["seed"] != ""
    assert row["p"] == ""


def test_simulate_is_deterministic_across_runs_and_workers(tmp_path):
    main(grid_args(tmp_path, "simulate", csv="a.csv", report="a.json"))
    main(grid_args(tmp_path, "simulate", csv="b.csv", report="b.json", workers="3"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("ber", ["1e-300", "5e-324"])
def test_simulate_runs_at_the_tiniest_error_rates(tmp_path, capsys, ber):
    # at 5e-324, alpha = (1 - c) * p_E rounds to 0: the good state never ends
    assert main(grid_args(tmp_path, "simulate", ber=ber)) == 0
    (row,) = read_rows(tmp_path / "out.csv")
    assert row["p_hat"] == "0"
    assert "error row" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["analyze", "simulate", "compare"])
def test_negative_seed_is_refused_before_any_row(tmp_path, capsys, verb):
    assert main(grid_args(tmp_path, verb, seed="-1")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_compare_attaches_relative_errors(tmp_path):
    assert main(grid_args(tmp_path, "compare", packets="2000")) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[-1]["model"] == "mc"
    p_hat = float(rows[-1]["p_hat"])
    assert p_hat > 0.0
    for row in rows[:-1]:
        assert row["rel_err"] != ""
        expected = (float(row["p"]) - p_hat) / p_hat
        assert float(row["rel_err"]) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_infeasible_budget_is_reported_not_fatal(tmp_path):
    assert main(grid_args(tmp_path, "analyze", budget="1008")) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert all(r["p"] == "" for r in rows)
    report = json.loads((tmp_path / "out.json").read_text())
    assert all(r["note"].startswith("infeasible:") for r in report["rows"])


def test_long_code_analyze_gives_every_model_a_number(tmp_path):
    # from n = 1030 a binomial coefficient of the baseline overflows a
    # float; the baseline neither fails nor takes models 1-3 down with it
    argv = grid_args(tmp_path, "analyze", code="1100,1,1", pair="1,1", ber="0.01", nacf="0.5")
    assert main(argv) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r["model"] for r in rows] == ["model1", "model2", "model3", "baseline"]
    assert all(0.0 < float(r["p"]) < 1.0 and float(r["throughput"]) > 0.0 for r in rows)
    report = json.loads((tmp_path / "out.json").read_text())
    assert not any("note" in row for row in report["rows"])


@pytest.mark.parametrize("verb", ["analyze", "simulate", "compare"])
def test_bad_channel_statistics_give_error_rows_not_a_traceback(tmp_path, verb):
    # c = 1.0 and p_E = 1.5 are statistics no channel has
    argv = grid_args(
        tmp_path, verb, ber="0.01,1.5", nacf="1.0,0.5", code="63,45,3", pair="4,4",
        packets="200",
    )
    src = str(Path(burstfec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "burstfec.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "nacf must be in [0, 1), got 1.0" in done.stderr
    assert "ber must be in [0, 1], got 1.5" in done.stderr
    rows = read_rows(tmp_path / "out.csv")
    good = [r for r in rows if (r["p_E"], r["c"]) == ("0.01", "0.5")]
    assert good and all(r["p"] != "" or r["p_hat"] != "" for r in good)
    assert all(r["residual_corr"] == "0.0625" for r in good)
    bad = [r for r in rows if r not in good]
    assert len(bad) == 3 * len(good)
    assert all(r["p"] == r["p_hat"] == r["residual_corr"] == "" for r in bad)


def test_progress_lines_unless_quiet(tmp_path, capsys):
    args = grid_args(tmp_path, "analyze", models="model3")
    args.remove("--quiet")
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "model3 ber=0.05 nacf=0.5 (6,3,1) I=2 M=2 p=" in err


def test_optimize_ranks_bursty_channel(capsys):
    assert main([
        "optimize", "--budget", "1008", "--code", "63,45,3",
        "--ber", "0.01", "--nacf", "0.9",
    ]) == 0
    out = capsys.readouterr().out
    assert "best: I=16 M=1" in out
    assert out.splitlines()[0].startswith("rank")


def test_optimize_breaks_uncorrelated_tie_toward_shallow(capsys):
    assert main([
        "optimize", "--budget", "1008", "--code", "63,45,3",
        "--ber", "0.01", "--nacf", "0.0",
    ]) == 0
    assert "best: I=1 M=16" in capsys.readouterr().out


# sha256 of the optimize verb's whole stdout at p_E 0.01, c 0.9 (budget
# 1008, code (63, 45, 3)), by model: CI's two runs; the ranking comes from
# one stack of the channel once per pair, which no CSV digest covers
OPTIMIZE_STDOUT_SHA256 = {
    "model3": "301154172d796ffb04ea865af54b3b3d24131eb690439fd276f75dc7cff677a5",
    "model2": "a57110666da4cb9bd61d265fc2dac2fa804d176facb8f804252271658324becc",
}


@pytest.mark.parametrize("model", OPTIMIZE_STDOUT_SHA256)
def test_optimize_verb_stdout_is_pinned(model, capsys):
    assert main(["optimize", "--ber", "0.01", "--nacf", "0.9", "--model", model]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OPTIMIZE_STDOUT_SHA256[model]


def test_oracle_verb_prints_reference(capsys):
    assert main([
        "oracle", "--n", "4", "--l", "1", "--depth", "2",
        "--blocks", "2", "--ber", "0.1", "--nacf", "0.6",
    ]) == 0
    out = capsys.readouterr().out
    block_line = next(line for line in out.splitlines() if line.startswith("block error"))
    printed = float(block_line.split(":")[1])
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.6))
    assert printed == pytest.approx(exact_loss(model, 4, 2, 1, 1)[0], rel=1e-11, abs=0.0)
    assert "model predictions" in out


# sha256 of the oracle verb's whole stdout at p_E 0.02, c 0.9, by
# (n, l, depth, blocks): the benchmark's instances A and B, a depth-1
# instance and CI's paper-scale instance; every printed digit is pinned
ORACLE_STDOUT_SHA256 = {
    (5, 1, 4, 4): "c01ffbf6632eabcd692077c2c177dae5462afafe4f71d901c322466a81d65c07",
    (10, 2, 2, 1): "a02d2ef1fd09bf13a8592569fc2dcebd38e3ad682ad4567de07b457594e81d91",
    (8, 2, 1, 3): "2fb07bb0175bf3d2e37ee6fd64d3fb09b6de9c834a5f27b029b8ee8c7e4f0391",
    (63, 3, 8, 2): "973fd703701e64e47eaef3bddac7b041b7b873c08623fce6eaa6cd49455a43ec",
}


@pytest.mark.parametrize(
    "instance", ORACLE_STDOUT_SHA256, ids=["A", "B", "depth-1", "paper-scale"]
)
def test_oracle_verb_stdout_is_pinned(instance, capsys):
    n, l, depth, blocks = instance
    assert main([
        "oracle", "--n", str(n), "--l", str(l), "--depth", str(depth),
        "--blocks", str(blocks), "--ber", "0.02", "--nacf", "0.9",
    ]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_STDOUT_SHA256[instance]


def test_oracle_verb_prints_a_failing_model_as_its_error(monkeypatch, capsys):
    # NaN chain rates, which the two-state chain stage rejects for both models
    monkeypatch.setattr(
        "burstfec.models._two_state_rates", lambda error_rate, nacf: (error_rate * np.nan,) * 2
    )
    assert main([
        "oracle", "--n", "4", "--l", "1", "--depth", "2",
        "--blocks", "2", "--ber", "0.1", "--nacf", "0.6",
    ]) == 0
    out = capsys.readouterr().out
    for name in ("model1", "model2"):
        line = next(line for line in out.splitlines() if line.startswith(f"  {name}   :"))
        assert line.startswith(f"  {name}   : error: (error_rate=")
        assert line.endswith("is outside the two-state chain's parameter range")
    float(next(line for line in out.splitlines() if "model3" in line).split(":")[1])


def test_oracle_verb_runs_at_paper_scale(capsys):
    assert main([
        "oracle", "--n", "63", "--l", "3", "--depth", "4",
        "--blocks", "4", "--ber", "0.01", "--nacf", "0.9",
    ]) == 0
    out = capsys.readouterr().out
    packet_line = next(line for line in out.splitlines() if line.startswith("packet error"))
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9))
    assert float(packet_line.split(":")[1].split()[0]) == pytest.approx(
        exact_loss(model, 63, 4, 3, 4)[1], rel=1e-11
    )


def test_oracle_verb_runs_the_block_flow_once(monkeypatch, capsys):
    flows = []  # the drop flag of each count flow: True for a block flow
    original = burstfec.oracle._count_flow

    def counting(model, owner, counters, cap, drop):
        flows.append(drop)
        return original(model, owner, counters, cap, drop)

    monkeypatch.setattr(burstfec.oracle, "_count_flow", counting)
    assert main([
        "oracle", "--n", "5", "--l", "1", "--depth", "3",
        "--blocks", "3", "--ber", "0.05", "--nacf", "0.7",
    ]) == 0
    assert flows.count(True) == 1
    assert flows.count(False) == 1  # the joint law's flow gives the codeword law too
    lines = capsys.readouterr().out.splitlines()
    monkeypatch.undo()
    model = ibp_from_stats(ChannelSpec(ber=0.05, nacf=0.7))
    # the same bits as a block-only call and a packet call, each with its own flow
    assert f"block error  : {exact_loss(model, 5, 3, 1, 1)[0]:.12g}" in lines
    assert f"packet error : {exact_loss(model, 5, 3, 1, 3)[1]:.12g}  (blocks=3)" in lines


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_oracle_verb_prints_the_joint_law_row_sums_as_the_codeword_law(depth, capsys):
    n, l = 9, 2
    assert main([
        "oracle", "--n", str(n), "--l", str(l), "--depth", str(depth),
        "--blocks", "2", "--ber", "0.05", "--nacf", "0.8",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = ibp_from_stats(ChannelSpec(ber=0.05, nacf=0.8))
    marginal = exact_joint_law(model, n, depth, l + 1).sum(axis=1)
    start = lines.index("codeword error-count law (top bucket saturated at cap):") + 1
    assert [float(line.split(":")[1]) for line in lines[start:start + l + 2]] == [
        float(f"{prob:.12g}") for prob in marginal
    ]
    np.testing.assert_allclose(
        marginal, marginal_error_distribution([model], n, [depth], l + 1)[0], rtol=0, atol=1e-13
    )


def test_oracle_verb_with_one_slot_codewords_prints_no_model_predictions(capsys):
    assert main([
        "oracle", "--n", "1", "--l", "0", "--depth", "3",
        "--blocks", "2", "--ber", "0.3", "--nacf", "0.5",
    ]) == 0
    out = capsys.readouterr().out
    assert "packet error" in out and "model predictions" not in out


SMALL_GRID = ["--ber", "0.01", "--nacf", "0.5", "--code", "6,3,1", "--pair", "2,2",
              "--budget", "0", "--packets", "200", "--quiet"]


@pytest.mark.parametrize(
    "argv,files",
    [
        # 2**2 * 4**11 count vectors, past the exact recursion's ceiling
        pytest.param(
            ["oracle", "--n", "7", "--l", "3", "--depth", "11", "--blocks", "1",
             "--ber", "0.01", "--nacf", "0.5"], {}, id="oracle-too-many-slots",
        ),
        # l = n: the exact values exist, but no code for the model predictions
        pytest.param(
            ["oracle", "--n", "3", "--l", "3", "--depth", "2", "--blocks", "1",
             "--ber", "0.1", "--nacf", "0.5"], {}, id="oracle-l-not-below-n",
        ),
        # n = 1 has no code for the model predictions, but l is checked all the same
        pytest.param(
            ["oracle", "--n", "1", "--l", "3", "--depth", "2", "--blocks", "1",
             "--ber", "0.1", "--nacf", "0.5"], {}, id="oracle-one-slot-codeword-l-not-below-n",
        ),
        # 1000 is no multiple of n = 63, so no (depth, blocks) pair fills it
        pytest.param(
            ["optimize", "--budget", "1000", "--ber", "0.01", "--nacf", "0.5"], {},
            id="optimize-infeasible-budget",
        ),
        pytest.param(
            ["optimize", "--threshold", "nan", "--ber", "0.01", "--nacf", "0.5"], {},
            id="optimize-threshold-nan",
        ),
        pytest.param(["analyze", "--code", "63,63,1"], {}, id="analyze-code-k-equals-n"),
        pytest.param(["simulate", "--pair", "0,4"], {}, id="simulate-pair-depth-zero"),
        pytest.param(["analyze", "--models", "mc"], {}, id="analyze-no-analytic-model"),
        pytest.param(["compare", "--config", "missing.json"], {}, id="compare-missing-config"),
        pytest.param(
            ["analyze", "--config", "bad.json"], {"bad.json": "{not json"},
            id="analyze-malformed-config",
        ),
        pytest.param(
            ["analyze", "--config", "list.json"], {"list.json": "[1, 2]"},
            id="analyze-config-not-an-object",
        ),
        pytest.param(
            ["analyze", "--config", "short.json"], {"short.json": '{"codes": [[63, 45]]}'},
            id="analyze-config-code-of-two-integers",
        ),
        pytest.param(
            ["compare", "--config", "short.json"], {"short.json": '{"pairs": [[4]]}'},
            id="compare-config-pair-of-one-integer",
        ),
        pytest.param(
            ["analyze", "--config", "c.json"], {"c.json": '{"codes": [[63, null, 3]]}'},
            id="analyze-config-code-entry-null",
        ),
        pytest.param(
            ["analyze", "--config", "c.json"], {"c.json": '{"packets": null}'},
            id="analyze-config-packets-null",
        ),
        pytest.param(
            ["analyze", "--config", "c.json"], {"c.json": '{"channel": 5}'},
            id="analyze-config-channel-not-an-object",
        ),
        pytest.param(
            ["compare", "--config", "c.json"], {"c.json": '{"pair": [[4, 4]]}'},
            id="compare-config-unknown-key",
        ),
        pytest.param(
            ["analyze", "--config", "c.json"], {"c.json": '{"channel": {"slot": 1e-6}}'},
            id="analyze-config-unknown-channel-key",
        ),
        pytest.param(
            ["analyze", *SMALL_GRID, "--csv", "missing/o.csv"], {},
            id="analyze-csv-in-missing-directory",
        ),
        pytest.param(
            ["simulate", *SMALL_GRID, "--report", "missing/o.json"], {},
            id="simulate-report-in-missing-directory",
        ),
        # a sampling setting out of range is refused before any row, not on every mc row
        pytest.param(
            ["simulate", "--config", "c.json"], {"c.json": '{"gamma": 1e999}'},
            id="simulate-config-gamma-overflow",
        ),
        # NaN is not a grid value: refused once, not as an error on every row
        pytest.param(
            ["compare", "--config", "c.json"], {"c.json": '{"channel": {"ber": [0.01, NaN]}}'},
            id="compare-config-ber-nan",
        ),
        pytest.param(["analyze", *SMALL_GRID, "--nacf", "nan"], {}, id="analyze-nacf-flag-nan"),
        pytest.param(["simulate", *SMALL_GRID, "--gamma", "1.5"], {}, id="simulate-gamma-flag"),
        pytest.param(["compare", *SMALL_GRID, "--packets", "0"], {}, id="compare-packets-flag"),
        pytest.param(["simulate", *SMALL_GRID, "--workers", "0"], {}, id="simulate-workers-flag"),
        pytest.param(["compare", *SMALL_GRID, "--workers", "-3"], {}, id="compare-workers-flag"),
        # a negative budget is refused once, not as an infeasible note on every row
        pytest.param(["analyze", *SMALL_GRID, "--budget", "-1"], {}, id="analyze-budget-flag-negative"),
        pytest.param(
            ["analyze", "--config", "c.json"], {"c.json": '{"budget": -1}'},
            id="analyze-config-budget-negative",
        ),
        # one Python pass per block: refused, not run for days
        pytest.param(
            ["oracle", "--n", "5", "--l", "1", "--depth", "2", "--blocks", "100000000000",
             "--ber", "0.1", "--nacf", "0.5"], {},
            id="oracle-blocks-over-the-limit",
        ),
    ],
)
def test_rejected_input_prints_one_error_line(argv, files, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--report" not in argv:
        # nothing but the inputs: no default CSV or report was written
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize(
    "config,message",
    [
        pytest.param(
            {"pair": [[4, 4]]},
            "unknown config key 'pair'; allowed: budget, channel, codes, gamma, models,"
            " output, packets, pairs, seed, workers",
            id="unknown-key",
        ),
        pytest.param(
            {"channel": {"slot": 1e-6}}, "unknown config key 'channel.slot'; allowed: ber, nacf",
            id="unknown-channel-key",
        ),
        pytest.param(
            {"output": {"json": "r.json"}},
            "unknown config key 'output.json'; allowed: csv, report", id="unknown-output-key",
        ),
        pytest.param(
            {"codes": [[63, None, 3]]}, "each entry of codes needs 3 integers, got [63, None, 3]",
            id="code-entry-null",
        ),
        pytest.param({"packets": None}, "packets must be an integer, got None", id="packets-null"),
        pytest.param({"packets": 2.7}, "packets must be an integer, got 2.7", id="packets-fraction"),
        pytest.param({"budget": 0.5}, "budget must be an integer, got 0.5", id="budget-fraction"),
        pytest.param({"seed": True}, "seed must be an integer, got True", id="seed-bool"),
        pytest.param({"workers": "2"}, "workers must be an integer, got '2'", id="workers-string"),
        pytest.param(
            {"codes": [[6.9, 3, 1]]}, "each entry of codes needs 3 integers, got [6.9, 3, 1]",
            id="code-entry-fraction",
        ),
        pytest.param(
            {"pairs": [[4, True]]}, "each entry of pairs needs 2 integers, got [4, True]",
            id="pair-entry-bool",
        ),
        pytest.param({"gamma": True}, "gamma must be a number, got True", id="gamma-bool"),
        pytest.param(
            {"gamma": 1.5}, "confidence level must be in (0, 1), got 1.5", id="gamma-above-one",
        ),
        pytest.param(
            {"gamma": 1e999}, "confidence level must be in (0, 1), got inf", id="gamma-infinite",
        ),
        pytest.param({"gamma": 0}, "confidence level must be in (0, 1), got 0.0", id="gamma-zero"),
        pytest.param({"packets": 0}, "packet count must be >= 1, got 0", id="packets-zero"),
        pytest.param(
            {"channel": {"ber": [0.01, float("nan")]}}, "channel.ber must be a number, got nan",
            id="ber-entry-nan",
        ),
        pytest.param(
            {"channel": {"nacf": float("nan")}}, "channel.nacf must be a number, got nan",
            id="nacf-nan",
        ),
        pytest.param({"gamma": float("nan")}, "gamma must be a number, got nan", id="gamma-nan"),
        pytest.param({"workers": 0}, "worker count must be >= 1, got 0", id="workers-zero"),
        pytest.param(
            {"channel": {"nacf": ["0.5"]}}, "channel.nacf must be a number, got '0.5'",
            id="nacf-entry-string",
        ),
        pytest.param(
            {"channel": 5}, "config key 'channel' must hold an object, got 5",
            id="channel-not-an-object",
        ),
        pytest.param(
            {"channel": {"nacf": [0.5, "high"]}}, "channel.nacf must be a number, got 'high'",
            id="nacf-entry-not-a-number",
        ),
        pytest.param(
            {"models": 5}, "models must be a list of model names, got 5", id="models-not-a-list",
        ),
        pytest.param(
            {"output": {"csv": None}}, "output.csv must be a path, got None", id="csv-path-null",
        ),
    ],
)
def test_config_errors_name_the_key(config, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["analyze", "--config", "c.json", "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parser_requires_a_verb():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2


def test_repeated_main_calls_share_the_parser_but_not_its_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    first = grid_args(tmp_path, "analyze", models="model3", csv="a.csv", report="a.json")
    assert main(first + ["--code", "6,2,2"]) == 0
    oracle = ["oracle", "--n", "4", "--l", "1", "--depth", "2", "--ber", "0.05", "--nacf", "0.5"]
    assert main(oracle) == 0
    assert "(blocks=1)" in capsys.readouterr().out
    second = [
        "analyze", "--ber", "0.05", "--nacf", "0.5", "--pair", "2,2", "--budget", "0",
        "--csv", str(tmp_path / "b.csv"), "--report", str(tmp_path / "b.json"), "--quiet",
    ]
    assert main(second) == 0
    first_rows, second_rows = read_rows(tmp_path / "a.csv"), read_rows(tmp_path / "b.csv")
    assert [(r["n"], r["k"], r["l"], r["model"]) for r in first_rows] == [
        ("6", "3", "1", "model3"), ("6", "2", "2", "model3"),
    ]
    # no --code or --models this time: the appended codes and the model
    # list of the first call must not carry over
    assert sorted({(r["n"], r["k"], r["l"]) for r in second_rows}) == [
        ("63", "36", "5"), ("63", "45", "3"), ("63", "57", "1"),
    ]
    assert {r["model"] for r in second_rows} == {"model1", "model2", "model3", "baseline"}


def test_bad_code_argument_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(grid_args(tmp_path, "analyze", code="6,3"))
    assert info.value.code == 2


def test_default_config_is_json_round_trippable():
    assert json.loads(json.dumps(DEFAULT_CONFIG)) == DEFAULT_CONFIG


def test_default_analyze_csv_bytes_are_pinned(tmp_path):
    csv_path, report_path = tmp_path / "results.csv", tmp_path / "report.json"
    assert main(["analyze", "--quiet", "--csv", str(csv_path), "--report", str(report_path)]) == 0
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == "5147edbb3f96ac34bd4471e38a07370b6fe34b36aede201abb9ac88e6ab890e9"
    report = json.loads(report_path.read_text())
    assert report["config"]["channel"] == {
        "ber": [0.0001, 0.001, 0.005, 0.01, 0.02], "nacf": [0.3, 0.6, 0.9],
    }
