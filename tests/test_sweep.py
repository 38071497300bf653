import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfec
from burstfec.channel import ChannelSpec, CodeSpec, FsmcModel, SchemeSpec, ibp_from_stats
from burstfec.cli import DEFAULT_CONFIG, main
from burstfec.mc import SimConfig, simulate_packets
from burstfec.models import ANALYTIC_MODELS
from burstfec.sweep import (
    CSV_COLUMNS,
    DepthCandidate,
    ResultRow,
    SweepSpec,
    _csv_records,
    _row_seed,
    emit_results,
    feasible_pairs,
    optimize_depth,
    residual_correlation,
    run_sweep,
)
from reference_stats import one

CODE_63_57 = CodeSpec(n=63, k=57, l=1)
SMALL_CODE = CodeSpec(n=6, k=3, l=1)


def csv_record(row):
    """One row's CSV fields, as the emitter writes them."""
    return list(_csv_records([row])[0])


def small_spec(**overrides):
    base = dict(
        bers=(0.001, 0.01),
        nacfs=(0.0, 0.5),
        codes=(SMALL_CODE,),
        pairs=(SchemeSpec(depth=2, blocks=2), SchemeSpec(depth=4, blocks=1)),
        models=("model3",),
        budget=None,
        packets=2_000,
        seed=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


# ----------------------------------------------------------------------
# grid walking
# ----------------------------------------------------------------------


def test_row_count_and_nesting_order():
    spec = small_spec(models=("model1", "mc"))
    rows = run_sweep(spec)
    assert len(rows) == 2 * 2 * 1 * 2 * 2
    expected = [
        (pair.depth, nacf, ber, model)
        for pair in spec.pairs
        for nacf in spec.nacfs
        for ber in spec.bers
        for model in spec.models
    ]
    got = [(r.scheme.depth, r.nacf, r.ber, r.model) for r in rows]
    assert got == expected


def test_row_field_population_by_kind():
    rows = run_sweep(small_spec(models=("model2", "mc"), bers=(0.01,), nacfs=(0.5,)))
    analytic = [r for r in rows if r.model == "model2"]
    mc = [r for r in rows if r.model == "mc"]
    for row in analytic:
        assert row.p is not None and row.throughput is not None
        assert row.p_hat is None and row.seed is None
    for row in mc:
        assert row.p is None
        assert row.p_hat is not None and row.ci_lo is not None and row.ci_hi is not None
        assert row.seed is not None and row.throughput is not None


def test_on_row_callback_sees_every_row_in_order():
    spec = small_spec()
    seen = []
    rows = run_sweep(spec, on_row=seen.append)
    assert seen == rows


def test_uncorrelated_models_agree_with_baseline():
    spec = small_spec(
        models=("model1", "model2", "model3", "baseline"), nacfs=(0.0,), bers=(0.02,)
    )
    rows = run_sweep(spec)
    for scheme in spec.pairs:
        point = {r.model: r.p for r in rows if r.scheme == scheme}
        for model in ("model1", "model2", "model3"):
            assert point[model] == pytest.approx(point["baseline"], abs=1e-10)


def test_relative_error_is_against_matching_mc_estimate():
    rows = run_sweep(
        small_spec(models=("model1", "model3", "mc"), bers=(0.02,), nacfs=(0.6,))
    )
    by_point = {}
    for row in rows:
        by_point.setdefault(row.scheme, []).append(row)
    for group in by_point.values():
        (mc_row,) = [r for r in group if r.model == "mc"]
        assert mc_row.p_hat > 0.0
        for row in group:
            if row.model == "mc":
                assert row.rel_err is None
            else:
                assert row.rel_err == pytest.approx(
                    (row.p - mc_row.p_hat) / mc_row.p_hat, rel=1e-12, abs=0.0
                )


def test_mc_row_seeds_differ_between_rows_and_reproduce():
    spec = small_spec(models=("mc",))
    first = run_sweep(spec)
    second = run_sweep(spec)
    seeds = [r.seed for r in first]
    assert len(set(seeds)) == len(seeds)
    assert [(r.seed, r.p_hat, r.ci_lo, r.ci_hi) for r in first] == [
        (r.seed, r.p_hat, r.ci_lo, r.ci_hi) for r in second
    ]
    reseeded = run_sweep(small_spec(models=("mc",), seed=4))
    assert [r.seed for r in reseeded] != seeds


def test_mc_seeds_follow_the_row_index_across_skipped_points_and_codes():
    # the p_E = 1.5 point and the off-budget pair (3, 3) hold rows without
    # seeds, and the second code's rows go on from the first code's index
    spec = SweepSpec(
        bers=(0.01, 1.5, 0.05), nacfs=(0.5,),
        codes=(CodeSpec(6, 3, 1), CodeSpec(6, 2, 2)),
        pairs=(SchemeSpec(2, 4), SchemeSpec(3, 3), SchemeSpec(8, 1)),
        models=("model3", "mc", "baseline"), budget=48, packets=500, seed=11,
    )
    rows = run_sweep(spec)
    seeded = [(i, row) for i, row in enumerate(rows) if row.seed is not None]
    assert len(seeded) == 8  # 2 codes x 2 feasible pairs x 2 valid points
    for i, row in seeded:
        assert row.model == "mc" and row.seed == _row_seed(spec.seed, i)
        estimate = simulate_packets(SimConfig(
            channel=ChannelSpec(ber=row.ber, nacf=row.nacf), code=row.code,
            scheme=row.scheme, packets=spec.packets, seed=row.seed, gamma=spec.gamma,
        ))
        assert (row.p_hat, row.ci_lo, row.ci_hi) == (estimate.p_hat, estimate.lo, estimate.hi)


def test_budget_mismatch_marks_row_infeasible():
    spec = SweepSpec(
        bers=(0.01,),
        nacfs=(0.5,),
        codes=(CODE_63_57,),
        pairs=(SchemeSpec(depth=4, blocks=4), SchemeSpec(depth=5, blocks=5)),
        models=("model3", "mc"),
        budget=1008,
        packets=500,
        seed=1,
    )
    rows = run_sweep(spec)
    good = [r for r in rows if r.scheme.depth == 4]
    bad = [r for r in rows if r.scheme.depth == 5]
    assert all(r.note is None for r in good)
    for row in bad:
        assert row.note.startswith("infeasible:")
        assert row.p is None and row.p_hat is None and row.seed is None
        record = dict(zip(CSV_COLUMNS, csv_record(row)))
        assert record["p"] == "" and record["p_hat"] == "" and record["seed"] == ""
        assert record["residual_corr"] != ""  # grid geometry is still known


def test_model_failure_is_reported_on_the_row(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("burstfec.sweep.evaluate_models", boom)
    rows = run_sweep(small_spec(bers=(0.01,), nacfs=(0.5,)))
    assert len(rows) == 2
    for row in rows:
        assert row.note == "error: synthetic failure"
        assert row.p is None


def test_stacked_sweep_matches_per_point_evaluation():
    # p_E = 1.5 and c = 1.0 are statistics no channel has: their points
    # become error rows with no residual correlation, the rest keep the
    # numbers a per-point evaluation gives
    spec = small_spec(
        bers=(0.001, 1.5, 0.01), nacfs=(0.5, 1.0, 0.0),
        codes=(SMALL_CODE, CODE_63_57),
        models=("model1", "model2", "model3", "baseline"),
    )
    rows = run_sweep(spec)
    expected = []
    for code, scheme, nacf, ber in itertools.product(
        spec.codes, spec.pairs, spec.nacfs, spec.bers
    ):
        try:
            results = one(ibp_from_stats(ChannelSpec(ber, nacf)), code, scheme)
        except ValueError:
            results = None
        for model in spec.models:
            row = ResultRow(model=model, ber=ber, nacf=nacf, code=code, scheme=scheme)
            if results is not None:
                row.p = results[model].packet_error
                row.throughput = scheme.codewords * code.k * (1.0 - row.p)
                row.residual_corr = residual_correlation(nacf, scheme.depth)
            expected.append(csv_record(row))
    assert [csv_record(row) for row in rows] == expected
    bad = [row for row in rows if row.ber == 1.5 or row.nacf == 1.0]
    assert len(bad) == 2 * 2 * 5 * 4
    assert all(row.note.startswith("error: ") and row.residual_corr is None for row in bad)


def test_single_model_failure_notes_only_its_row(monkeypatch):
    periodic = FsmcModel([[0.1, 0.9], [0.9, 0.1]], [0.0, 1.0])
    monkeypatch.setattr("burstfec.sweep.ibp_from_stats", lambda channel: periodic)
    spec = small_spec(
        bers=(0.01,), nacfs=(0.5,), codes=(CodeSpec(63, 45, 3),),
        pairs=(SchemeSpec(depth=4, blocks=4),),
        models=("model1", "model2", "model3", "baseline", "mc"), packets=500,
    )
    rows = {row.model: row for row in run_sweep(spec)}
    for name in ("model1", "model2"):
        assert rows[name].note.startswith("error: ") and "parameter range" in rows[name].note
        assert rows[name].p is None and rows[name].residual_corr is not None
    for name in ("model3", "baseline"):
        assert rows[name].note is None and rows[name].p == 1.0
    assert rows["mc"].note is None and rows["mc"].p_hat is not None


def test_failing_baseline_notes_only_its_rows(monkeypatch):
    # models 1-3 keep the numbers they give with a working baseline
    spec = small_spec(
        bers=(0.01,), nacfs=(0.5,), codes=(CodeSpec(63, 45, 3),),
        pairs=(SchemeSpec(depth=4, blocks=4),), models=ANALYTIC_MODELS,
    )
    working = {row.model: row for row in run_sweep(spec)}

    def boom(n, ls, p):
        raise RuntimeError("baseline boom")

    monkeypatch.setattr(burstfec.models, "_binomial_tails", boom)
    rows = {row.model: row for row in run_sweep(spec)}
    assert rows["baseline"].note == "error: baseline boom"
    assert rows["baseline"].p is None and rows["baseline"].throughput is None
    assert rows["baseline"].residual_corr == working["baseline"].residual_corr
    for name in ("model1", "model2", "model3"):
        assert rows[name].note is None and 0.0 < rows[name].p < 1.0
        assert csv_record(rows[name]) == csv_record(working[name])


def counted(monkeypatch, module, name):
    """Count the calls made through ``module.name``; returns the live tally."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_default_sweep_builds_each_point_channel_once(monkeypatch):
    built = counted(monkeypatch, burstfec.sweep, "ibp_from_stats")
    channel = DEFAULT_CONFIG["channel"]
    spec = SweepSpec(
        bers=tuple(channel["ber"]), nacfs=tuple(channel["nacf"]),
        codes=tuple(CodeSpec(*code) for code in DEFAULT_CONFIG["codes"]),
        pairs=tuple(SchemeSpec(*pair) for pair in DEFAULT_CONFIG["pairs"]),
        models=ANALYTIC_MODELS,
    )
    rows = run_sweep(spec)
    assert len(rows) == 900 and all(row.note is None for row in rows)
    assert len(built) == 15  # one per (nacf, ber) point, shared by the 15 (code, pair)s


def test_back_to_back_analyze_calls_repeat_bytes_and_work(tmp_path, monkeypatch):
    # the same work and the same bytes each time: nothing is cached across calls
    work = [counted(monkeypatch, burstfec.sweep, "ibp_from_stats")] + [
        counted(monkeypatch, burstfec.models, name)
        for name in (
            "joint_error_distribution", "sequential_joint_distribution",
            "marginal_error_distribution",
        )
    ]
    done = []
    csv_path, report_path = tmp_path / "results.csv", tmp_path / "report.json"
    for _ in range(2):
        assert main(["analyze", "--quiet", "--csv", str(csv_path), "--report", str(report_path)]) == 0
        done.append((csv_path.read_bytes(), report_path.read_bytes(), [len(c) for c in work]))
    assert done[0][:2] == done[1][:2]
    first, second = done[0][2], [b - a for a, b in zip(done[0][2], done[1][2])]
    # one point channel per (nacf, ber); one recursion of each kind per
    # codeword length, and the default grid's three codes share n = 63
    assert first == second == [15, 1, 1, 1]


def test_codes_of_one_length_share_one_recursion_of_each_kind(tmp_path, monkeypatch):
    # the codes are grouped by n: one stack per length for all its codes,
    # and the rows and bytes are those of one run per code
    codes = (CodeSpec(63, 57, 1), CodeSpec(31, 21, 2), CodeSpec(63, 36, 5))
    spec = small_spec(
        codes=codes, budget=0, models=ANALYTIC_MODELS,
        pairs=(SchemeSpec(depth=1, blocks=2), SchemeSpec(depth=3, blocks=1)),
    )
    work = [
        counted(monkeypatch, burstfec.models, name)
        for name in (
            "joint_error_distribution", "sequential_joint_distribution",
            "marginal_error_distribution",
        )
    ]
    rows = run_sweep(spec)
    assert [len(calls) for calls in work] == [2, 2, 2]  # n = 63 and n = 31
    emit_results(rows, tmp_path / "all.csv")
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for code in codes:
        alone = run_sweep(small_spec(**{**vars(spec), "codes": (code,)}))
        emit_results(alone, tmp_path / "one.csv")
        lines += (tmp_path / "one.csv").read_text().splitlines(keepends=True)[1:]
    assert (tmp_path / "all.csv").read_text() == "".join(lines)


def test_spec_validation():
    with pytest.raises(ValueError, match="non-empty"):
        small_spec(bers=())
    with pytest.raises(ValueError, match="unknown models"):
        small_spec(models=("model3", "modelx"))
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        small_spec(budget=-1)
    # a budget of 0, like None, turns the check off: no pair is infeasible
    assert all(row.note is None for row in run_sweep(small_spec(budget=0)))


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------


def test_throughput_values():
    # expected delivered data bits per packet under all-or-nothing
    # delivery, 16 codewords * 45 data bits * (1 - p), on the analytic and
    # the Monte Carlo rows alike
    spec = small_spec(
        codes=(CodeSpec(n=63, k=45, l=3),), pairs=(SchemeSpec(depth=16, blocks=1),),
        bers=(0.0, 0.02), nacfs=(0.5,), models=("model3", "mc"),
    )
    rows = run_sweep(spec)
    assert [row.throughput for row in rows[:2]] == [720.0, 720.0]  # p_E = 0: no loss
    for row in rows:
        p = row.p_hat if row.model == "mc" else row.p
        assert 0.0 < row.throughput <= 720.0
        assert row.throughput == 720 * (1.0 - p)
    assert rows[2].throughput < 720.0 and rows[3].throughput < 720.0


def test_residual_correlation_values():
    # 0.9**16 is exactly 9**16 / 10**16 = 0.1853020188851841
    assert residual_correlation(0.9, 16) == pytest.approx(0.1853020188851841, abs=1e-15)
    assert residual_correlation(0.6, 8) == pytest.approx(0.01679616, abs=1e-15)
    assert residual_correlation(0.0, 5) == 0.0
    assert residual_correlation(0.5, 1) == 0.5
    with pytest.raises(ValueError):
        residual_correlation(1.0, 4)
    with pytest.raises(ValueError):
        residual_correlation(0.5, 0)


# ----------------------------------------------------------------------
# depth optimization
# ----------------------------------------------------------------------


def test_feasible_pairs_for_standard_budget():
    pairs = feasible_pairs(1008, 63)
    assert [(p.depth, p.blocks) for p in pairs] == [
        (1, 16), (2, 8), (4, 4), (8, 2), (16, 1),
    ]
    assert feasible_pairs(1000, 63) == []
    with pytest.raises(ValueError):
        feasible_pairs(0, 63)


def test_optimizer_prefers_deep_interleaving_on_bursty_channel():
    ranked = optimize_depth(
        1008, CodeSpec(n=63, k=45, l=3), ChannelSpec(ber=0.01, nacf=0.9)
    )
    assert ranked[0].scheme.depth == 16
    errors = [c.packet_error for c in ranked]
    assert errors == sorted(errors)


def test_optimizer_breaks_uncorrelated_ties_toward_small_depth():
    ranked = optimize_depth(
        1008, CodeSpec(n=63, k=45, l=3), ChannelSpec(ber=0.01, nacf=0.0)
    )
    assert [c.scheme.depth for c in ranked] == [1, 2, 4, 8, 16]
    rounded = {f"{c.packet_error:.9e}" for c in ranked}
    assert len(rounded) == 1  # genuine tie, broken by depth alone


def test_optimizer_decorrelation_flag():
    ranked = optimize_depth(
        1008, CodeSpec(n=63, k=45, l=3), ChannelSpec(ber=0.01, nacf=0.3)
    )
    by_depth = {c.scheme.depth: c for c in ranked}
    assert not by_depth[1].decorrelated  # residual 0.3
    assert not by_depth[2].decorrelated  # residual 0.09
    assert by_depth[4].residual_corr == pytest.approx(0.0081, abs=1e-15)
    assert by_depth[4].decorrelated  # below the 0.01 default threshold
    assert by_depth[16].decorrelated


def test_optimizer_rejections():
    with pytest.raises(ValueError, match="model"):
        optimize_depth(1008, CODE_63_57, ChannelSpec(ber=0.01, nacf=0.5), model="mc")
    with pytest.raises(ValueError, match="feasible"):
        optimize_depth(1000, CODE_63_57, ChannelSpec(ber=0.01, nacf=0.5))
    for threshold in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match="threshold must be in \\[0, 1\\]"):
            optimize_depth(1008, CODE_63_57, ChannelSpec(ber=0.01, nacf=0.5), threshold=threshold)


def test_optimizer_raises_the_first_failing_pairs_error(monkeypatch):
    # every pair is evaluated in one stack; of two failing pairs, the one
    # that comes first in pair order names the error
    original = burstfec.sweep.evaluate_models

    def failing(stack, codes, schemes, which):
        coded = original(stack, codes, schemes, which)
        block_errors, packet_errors, errors = coded[0][which[0]]
        for i, scheme in enumerate(schemes):
            if scheme.depth in (8, 4):
                block_errors[i] = packet_errors[i] = None
                errors[i] = f"fails at I={scheme.depth}"
        return coded

    monkeypatch.setattr(burstfec.sweep, "evaluate_models", failing)
    with pytest.raises(ValueError, match="^fails at I=4$"):
        optimize_depth(1008, CODE_63_57, ChannelSpec(ber=0.01, nacf=0.5), model="model2")


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def test_emit_header_only_for_empty_rows(tmp_path):
    out = tmp_path / "empty.csv"
    written = emit_results([], out)
    assert written == [out]
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emitted_csv_round_trips_and_is_deterministic(tmp_path):
    spec = small_spec(models=("model3", "mc"), bers=(0.01,), nacfs=(0.5,))
    rows = run_sweep(spec)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(rows, first)
    emit_results(run_sweep(spec), second)
    assert first.read_bytes() == second.read_bytes()

    with open(first, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    for record, row in zip(parsed, rows):
        assert record["model"] == row.model
        assert int(record["n"]) == row.code.n
        if row.p is not None:
            assert float(record["p"]) == pytest.approx(row.p, rel=1e-11, abs=0.0)
        if row.p_hat is not None:
            assert float(record["p_hat"]) == pytest.approx(row.p_hat, rel=1e-11, abs=0.0)


def test_report_embeds_config_and_notes(tmp_path):
    rows = [
        ResultRow(
            model="model3", ber=0.01, nacf=0.5,
            code=SMALL_CODE, scheme=SchemeSpec(depth=2, blocks=2),
            p=0.125, throughput=10.5, residual_corr=0.25,
        ),
        ResultRow(
            model="mc", ber=0.01, nacf=0.5,
            code=SMALL_CODE, scheme=SchemeSpec(depth=5, blocks=5),
            note="infeasible: depth*blocks*n = 150 != budget 24",
        ),
    ]
    config = {"packets": 2000, "seed": 3}
    csv_path, report_path = tmp_path / "r.csv", tmp_path / "r.json"
    written = emit_results(rows, csv_path, report_path, config=config)
    assert written == [csv_path, report_path]

    report = json.loads(report_path.read_text())
    assert report["config"] == config
    assert report["generator"] == "philox"
    assert report["sampler"] == "sojourn-or-gap-cut-inversion"
    assert report["meta"] == {"numpy": np.__version__, "version": burstfec.__version__}
    assert len(report["rows"]) == 2
    assert report["rows"][0]["p"] == "0.125"
    assert "note" not in report["rows"][0]
    assert report["rows"][1]["note"].startswith("infeasible:")


REPORT_NOTES = [
    'quote " and backslash \\ in a note',
    "two\nlines, a tab\t and a carriage return\r",
    "non-ASCII: \u03c1 \u2265 0.9, \u65e5\u672c, \U0001f600",
    "control characters \x00\x1f",
    None,
]


def note_rows(notes):
    return [
        ResultRow(
            model="model2", ber=0.01 * (i + 1), nacf=0.5, code=SMALL_CODE,
            scheme=SchemeSpec(depth=2, blocks=2), p=1 / (i + 3), note=note,
        )
        for i, note in enumerate(notes)
    ]


# every value repeats across rows: models, numbers (zeros of both signs
# among them), absent numbers and notes
REPEATED_ROWS = [
    ResultRow(
        model=model, ber=ber, nacf=nacf, code=SMALL_CODE, scheme=SchemeSpec(depth=2, blocks=2),
        p=p, rel_err=nacf, throughput=p, residual_corr=0.25, note=note,
    )
    for model, ber, nacf, p, note in itertools.product(
        ("model2", "mc"), (0.01, 0.5), (0.0, -0.0, 0.5), (None, 0.125),
        (None, "repeated note", REPORT_NOTES[0]),
    )
]


def default_analyze_rows():
    return run_sweep(SweepSpec(
        bers=tuple(DEFAULT_CONFIG["channel"]["ber"]),
        nacfs=tuple(DEFAULT_CONFIG["channel"]["nacf"]),
        codes=tuple(CodeSpec(*code) for code in DEFAULT_CONFIG["codes"]),
        pairs=tuple(SchemeSpec(*pair) for pair in DEFAULT_CONFIG["pairs"]),
        models=tuple(DEFAULT_CONFIG["models"]),
        budget=DEFAULT_CONFIG["budget"],
    ))


def compare_rows():
    # Monte Carlo columns (p_hat, ci_lo, ci_hi, seed, rel_err), with
    # degenerate estimates at the lowest and highest ber, and a pair off
    # the budget, whose rows are infeasible
    rows = run_sweep(small_spec(
        bers=(0.0001, 0.02, 0.3), nacfs=(0.0, 0.9), budget=24, packets=500, seed=5,
        pairs=(SchemeSpec(depth=2, blocks=2), SchemeSpec(depth=3, blocks=1)),
        models=("model1", "model2", "model3", "baseline", "mc"),
    ))
    notes = {(row.note or "").split(":")[0] for row in rows}
    assert notes == {"", "degenerate", "infeasible"}
    assert all(any(getattr(row, name) is not None for row in rows)
               for name in ("p_hat", "ci_lo", "ci_hi", "seed", "rel_err"))
    return rows


@pytest.mark.parametrize(
    "rows,config",
    [
        ([], None),
        (note_rows([None]), {"gamma": 0.95}),
        (
            note_rows(REPORT_NOTES),
            {**DEFAULT_CONFIG, "gamma": float("inf"), "output": {"csv": 'a "b" \\ \u00fc'}},
        ),
        (REPEATED_ROWS, DEFAULT_CONFIG),
        (default_analyze_rows, DEFAULT_CONFIG),
        (compare_rows, {"packets": 500}),
        # a model name that JSON escapes, with no comma, quote or line
        # break, which the unquoted CSV does not allow
        ([ResultRow(
            model="back\\slash tab\t \u00e9", ber=0.01, nacf=0.5, code=SMALL_CODE,
            scheme=SchemeSpec(depth=2, blocks=2), p=0.25, seed=7, note="n",
        )], None),
    ],
    ids=[
        "no-rows", "one-row", "awkward-notes", "repeated-values", "default-analyze",
        "compare-grid", "escaped-model-name",
    ],
)
def test_streamed_report_equals_json_dump(rows, config, tmp_path):
    # model names and notes are encoded, every other field is placed
    # between quotes as it is
    if callable(rows):
        rows = rows()
    report_path = tmp_path / "r.json"
    emit_results(rows, tmp_path / "r.csv", report_path, config=config)
    text = report_path.read_bytes().decode("ascii")
    report = json.loads(text)
    notes = [{} if row.note is None else {"note": row.note} for row in rows]
    assert report["rows"] == [
        {**dict(zip(CSV_COLUMNS, csv_record(row))), **note} for row, note in zip(rows, notes)
    ]
    with open(tmp_path / "r.csv", newline="") as handle:
        assert list(csv.reader(handle))[1:] == [csv_record(row) for row in rows]
    assert report["config"] == (config if config is not None else {})
    expected = io.StringIO()
    json.dump(report, expected, indent=2, sort_keys=True)
    assert text == expected.getvalue() + "\n"


def test_emit_calls_in_one_process_write_what_fresh_processes_write(tmp_path, monkeypatch):
    # no formatted or encoded text outlives an emit_results call: the
    # second call of a process, on a grid sharing values (and zeros of the
    # other sign) with the first, writes the bytes a fresh process writes,
    # and a repeated call renders and encodes as much as the one before
    grids = {
        "a": ["--ber", "0.01,0.02", "--nacf", "0.0,0.5"],
        "b": ["--ber", "0.02,0.03", "--nacf=-0.0,0.5"],
    }
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    fresh.mkdir()
    shared.mkdir()
    src = str(Path(burstfec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def argv(name):  # relative outputs, as the report echoes them
        return [
            "analyze", "--quiet", "--code", "15,11,1", "--pair", "2,2", "--pair", "1,4",
            "--budget", "0", *grids[name], "--csv", f"{name}.csv", "--report", f"{name}.json",
        ]

    for name in grids:
        done = subprocess.run(
            [sys.executable, "-m", "burstfec.cli", *argv(name)],
            capture_output=True, text=True, env=env, timeout=120, cwd=fresh,
        )
        assert done.returncode == 0, done.stderr
    work = [
        counted(monkeypatch, burstfec.sweep, "_fmt"),
        counted(monkeypatch, json.encoder, "encode_basestring_ascii"),
        counted(monkeypatch, burstfec.sweep._Texts, "__missing__"),
    ]
    monkeypatch.chdir(shared)
    tallies = []
    for name in ("a", "b", "b"):
        assert main(argv(name)) == 0
        tallies.append([len(calls) for calls in work])
        for suffix in (".csv", ".json"):
            assert (shared / (name + suffix)).read_bytes() == (fresh / (name + suffix)).read_bytes()
    assert b",-0," in (shared / "b.csv").read_bytes()
    assert [b - a for a, b in zip(tallies[1], tallies[2])] == [
        b - a for a, b in zip(tallies[0], tallies[1])
    ]


def test_csv_lines_are_the_bytes_csv_writer_writes(tmp_path):
    # the fields are joined with commas, unquoted: no model name or number
    # holds a comma, a quote or a line break, so the bytes are those of
    # csv.writer, on error, infeasible and mc rows with their empty fields
    spec = small_spec(
        bers=(0.01, 1.5), nacfs=(0.5,), budget=12, packets=500,
        pairs=(SchemeSpec(depth=2, blocks=1), SchemeSpec(depth=2, blocks=2)),
        models=("model1", "model2", "model3", "baseline", "mc"),
    )
    rows = run_sweep(spec)
    notes = {(row.note or "").split(":")[0] for row in rows}
    assert {"", "error", "infeasible"} <= notes and any(row.seed is not None for row in rows)
    emit_results(rows, tmp_path / "r.csv")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(csv_record(row) for row in rows)
    assert (tmp_path / "r.csv").read_bytes() == expected.getvalue().encode()


def test_csv_uses_twelve_significant_digits(tmp_path):
    row = ResultRow(
        model="model1", ber=1 / 3, nacf=0.5,
        code=SMALL_CODE, scheme=SchemeSpec(depth=2, blocks=2),
        p=2 / 3,
    )
    record = dict(zip(CSV_COLUMNS, csv_record(row)))
    assert record["p_E"] == "0.333333333333"
    assert record["p"] == "0.666666666667"
