"""Parameter sweeps, interleaving-depth optimization, result emission.

A sweep walks the Cartesian grid codes x (depth, blocks) pairs x nacf x
ber and emits one row per grid point and requested model.  Monte Carlo
rows derive their seeds from the sweep seed plus their own row index, so
reruns, row subsets and worker counts cannot change any estimate.  The
CSV output is byte-deterministic; the JSON report carries the full
configuration echo next to the rows.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import ChannelSpec, CodeSpec, SchemeSpec, ibp_from_stats
from .mc import BIT_GENERATOR, SAMPLER, SimConfig, _check_sampling, simulate_packets
from .models import ANALYTIC_MODELS, evaluate_models

MODEL_NAMES = ANALYTIC_MODELS + ("mc",)

CSV_COLUMNS = (
    "model", "p_E", "c", "n", "k", "l", "I", "M",
    "p", "p_hat", "ci_lo", "ci_hi", "rel_err",
    "throughput", "residual_corr", "seed",
)

# Residual codeword-to-codeword correlation below which interleaving has
# effectively decorrelated the channel.
DECORRELATION_THRESHOLD = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep."""

    bers: tuple[float, ...]
    nacfs: tuple[float, ...]
    codes: tuple[CodeSpec, ...]
    pairs: tuple[SchemeSpec, ...]
    models: tuple[str, ...]
    budget: int | None = 1008
    packets: int = 100_000
    seed: int = 0
    gamma: float = 0.95

    def __post_init__(self):
        if not (self.bers and self.nacfs and self.codes and self.pairs and self.models):
            raise ValueError("all sweep grids must be non-empty")
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        _check_sampling(self.packets, self.gamma)  # before any row, not on every mc row

    @property
    def rows(self) -> int:
        return (
            len(self.bers) * len(self.nacfs) * len(self.codes)
            * len(self.pairs) * len(self.models)
        )


@dataclass
class ResultRow:
    """One sweep result; optional fields stay empty in the CSV."""

    model: str
    ber: float
    nacf: float
    code: CodeSpec
    scheme: SchemeSpec
    p: float | None = None
    p_hat: float | None = None
    ci_lo: float | None = None
    ci_hi: float | None = None
    rel_err: float | None = None
    throughput: float | None = None
    residual_corr: float | None = None
    seed: int | None = None
    note: str | None = None  # diagnostics; reported, not part of the CSV

    def csv_record(self) -> list[str]:
        return [
            self.model,
            _fmt(self.ber), _fmt(self.nacf),
            str(self.code.n), str(self.code.k), str(self.code.l),
            str(self.scheme.depth), str(self.scheme.blocks),
            _fmt(self.p), _fmt(self.p_hat), _fmt(self.ci_lo), _fmt(self.ci_hi),
            _fmt(self.rel_err), _fmt(self.throughput), _fmt(self.residual_corr),
            "" if self.seed is None else str(self.seed),
        ]


def _fmt(value) -> str:
    """12-significant-digit rendering; empty string for absent values."""
    if value is None:
        return ""
    return f"{value:.12g}"


def residual_correlation(nacf: float, depth: int) -> float:
    """Correlation left between adjacent codeword bits after interleaving.

    Lag-k correlation of the bit process decays geometrically, and
    interleaving at ``depth`` stretches adjacent codeword bits to lag
    ``depth``.
    """
    if not 0.0 <= nacf < 1.0:
        raise ValueError(f"nacf must be in [0, 1), got {nacf!r}")
    if depth < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {depth}")
    return nacf**depth


def throughput(code: CodeSpec, scheme: SchemeSpec, p: float) -> float:
    """Expected delivered data bits per packet under all-or-nothing delivery."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"loss probability must be in [0, 1], got {p!r}")
    return scheme.codewords * code.k * (1.0 - p)


def _row_seed(root: int, index: int) -> int:
    key = np.random.SeedSequence(root, spawn_key=(index,))
    return int(key.generate_state(1, np.uint64)[0])


def run_sweep(spec: SweepSpec, workers: int = 1, on_row=None) -> list[ResultRow]:
    """Evaluate the full grid, one row per (grid point, model).

    Rows come out in a fixed nested order (code, pair, nacf, ber, model).
    Each grid point's channel is built once and shared by every (code,
    pair); the channels of all feasible pairs of a code go through the
    analytic models as one stack, with one scheme per channel.
    When both analytic models and "mc" are requested,
    analytic rows get ``rel_err`` against the Monte Carlo estimate of the
    same grid point.  Infeasible or failing grid points, and single
    failing models, are reported on their rows instead of aborting the
    sweep.
    """
    analytic = tuple(m for m in spec.models if m != "mc")
    points = [(nacf, ber) for nacf in spec.nacfs for ber in spec.bers]
    channels = [_point_channel(nacf, ber) for nacf, ber in points]
    rows: list[ResultRow] = []
    index = 0
    for code in spec.codes:
        evaluated = _evaluate_code(spec, code, points, channels, analytic)
        for scheme, group in zip(spec.pairs, evaluated):
            for (nacf, ber), (residual, note, results) in zip(points, group):
                point_rows, index = _grid_point_rows(
                    spec, code, scheme, nacf, ber, residual, note, results, index, workers
                )
                rows.extend(point_rows)
                if on_row is not None:
                    for row in point_rows:
                        on_row(row)
    return rows


def _point_channel(nacf, ber):
    """The two-state channel of one (nacf, ber) grid point, or the
    ValueError that says why its statistics have none."""
    try:
        return ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    except ValueError as exc:
        return exc


def _evaluate_code(spec, code, points, channels, analytic):
    """For each pair, the (residual_corr, note, analytic results) of each
    (nacf, ber) point of one code, with the valid channels of every
    feasible pair evaluated as one stack.

    An infeasible pair notes every point; a point whose statistics no
    channel can represent is an error with no residual correlation.
    """
    entries, stack = [], {}  # stack: (pair, point) -> (channel, scheme)
    for p, scheme in enumerate(spec.pairs):
        note = None
        if spec.budget is not None and scheme.packet_bits(code.n) != spec.budget:
            note = (
                f"infeasible: depth*blocks*n = {scheme.packet_bits(code.n)}"
                f" != budget {spec.budget}"
            )
        group = []
        for i, ((nacf, _), channel) in enumerate(zip(points, channels)):
            if isinstance(channel, ValueError):
                group.append([None, f"error: {channel}"])
                continue
            group.append([residual_correlation(nacf, scheme.depth), note])
            if note is None:
                stack[p, i] = (channel, scheme)
        entries.append(group)
    results = {}
    if analytic and stack:
        stacked, schemes = zip(*stack.values())
        try:
            results = dict(zip(stack, evaluate_models(stacked, code, schemes, analytic)))
        except Exception as exc:  # surfaced per-row, sweep keeps going
            for p, i in stack:
                entries[p][i][1] = f"error: {exc}"
    return [
        [(residual, note, results.get((p, i), {})) for i, (residual, note) in enumerate(group)]
        for p, group in enumerate(entries)
    ]


def _grid_point_rows(spec, code, scheme, nacf, ber, residual, note, results, index, workers):
    rows = []
    estimate = None
    for model in spec.models:
        row = ResultRow(
            model=model, ber=ber, nacf=nacf, code=code, scheme=scheme,
            residual_corr=residual, note=note,
        )
        if note is None and model == "mc":
            row.seed = _row_seed(spec.seed, index)
            try:
                estimate = simulate_packets(
                    SimConfig(
                        channel=ChannelSpec(ber=ber, nacf=nacf),
                        code=code, scheme=scheme, packets=spec.packets,
                        seed=row.seed, gamma=spec.gamma,
                    ),
                    workers=workers,
                )
                row.p_hat, row.ci_lo, row.ci_hi = estimate.p_hat, estimate.lo, estimate.hi
                row.throughput = throughput(code, scheme, estimate.p_hat)
                if estimate.degenerate:
                    row.note = "degenerate: loss rate estimate is 0 or 1"
            except Exception as exc:
                row.note = f"error: {exc}"
        elif note is None and results[model].error is not None:
            row.note = f"error: {results[model].error}"
        elif note is None:
            row.p = results[model].packet_error
            row.throughput = throughput(code, scheme, row.p)
        rows.append(row)
        index += 1

    if estimate is not None and estimate.p_hat > 0.0:
        for row in rows:
            if row.p is not None:
                row.rel_err = (row.p - estimate.p_hat) / estimate.p_hat
    return rows, index


# ======================================================================
# depth optimization under a constant packet budget
# ======================================================================


@dataclass(frozen=True)
class DepthCandidate:
    """One constant-budget (depth, blocks) pair with its predicted loss."""

    scheme: SchemeSpec
    packet_error: float
    residual_corr: float
    decorrelated: bool


def feasible_pairs(budget: int, n: int) -> list[SchemeSpec]:
    """All (depth, blocks) pairs with depth * blocks * n == budget."""
    if budget < 1 or n < 1:
        raise ValueError("budget and n must be positive")
    if budget % n:
        return []
    codewords = budget // n
    return [
        SchemeSpec(depth=depth, blocks=codewords // depth)
        for depth in range(1, codewords + 1)
        if codewords % depth == 0
    ]


def optimize_depth(
    budget: int,
    code: CodeSpec,
    channel: ChannelSpec,
    model: str = "model3",
    threshold: float = DECORRELATION_THRESHOLD,
) -> list[DepthCandidate]:
    """Rank all constant-budget (depth, blocks) pairs by predicted loss.

    Near-ties (equal to nine significant digits, e.g. every pair on an
    uncorrelated channel) are broken toward the smaller depth, which
    costs less interleaver memory and latency.  Candidates whose
    residual correlation falls below ``threshold`` are flagged as
    effectively decorrelated.
    """
    if model not in ANALYTIC_MODELS:
        raise ValueError(f"model must be one of {ANALYTIC_MODELS}, got {model!r}")
    pairs = feasible_pairs(budget, code.n)
    if not pairs:
        raise ValueError(f"no feasible (depth, blocks) pair: budget {budget}, n {code.n}")
    fsmc = ibp_from_stats(channel)
    evaluated = evaluate_models([fsmc] * len(pairs), code, pairs, which=(model,))
    candidates = []
    for scheme, results in zip(pairs, evaluated):
        result = results[model]
        if result.error is not None:
            raise ValueError(result.error)
        residual = residual_correlation(channel.nacf, scheme.depth)
        candidates.append(
            DepthCandidate(
                scheme=scheme,
                packet_error=result.packet_error,
                residual_corr=residual,
                decorrelated=residual < threshold,
            )
        )
    candidates.sort(key=lambda c: (float(f"{c.packet_error:.9e}"), c.scheme.depth))
    return candidates


# ======================================================================
# emission
# ======================================================================


def emit_results(rows, csv_path, report_path=None, config=None):
    """Write the delimited results table and, optionally, a JSON report.

    The report embeds the full configuration echo, the pinned RNG
    identity, the Monte Carlo sampler identity and the package and numpy
    versions next to the rows.
    Output bytes depend only on the inputs, so identical sweeps produce
    identical files.
    """
    written = []
    # one record per row, formatted once: its values are the CSV line and,
    # with the note added, it is the row's report entry
    records = [dict(zip(CSV_COLUMNS, row.csv_record())) for row in rows]
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(record.values() for record in records)
    written.append(csv_path)
    if report_path is not None:
        for record, row in zip(records, rows):
            if row.note is not None:
                record["note"] = row.note
        report = {
            "config": config if config is not None else {},
            "generator": BIT_GENERATOR,
            "meta": {"numpy": np.__version__, "version": __version__},
            "rows": records,
            "sampler": SAMPLER,
        }
        with open(report_path, "w") as handle:
            _write_report(handle, report)
        written.append(report_path)
    return written


# the start of each row record line in the report: indent, key, separator
_FIELD_LEADS = {
    name: f"\n      {json.encoder.encode_basestring_ascii(name)}: "
    for name in CSV_COLUMNS + ("note",)
}


def _write_report(handle, report):
    """The bytes of ``json.dump(report, handle, indent=2, sort_keys=True)``
    and a newline, with the "rows" streamed one record at a time.

    The indented ``json.dump`` encodes in pure Python.  A row record maps
    CSV column names and "note" to strings, so here each value goes
    through the C encoder ``json.dump`` itself uses (``ensure_ascii``),
    after its key's line start, encoded once.  The rest of the report goes
    through ``json.dumps``, indented one level deeper.
    """
    encode = json.encoder.encode_basestring_ascii
    handle.write("{")
    for i, key in enumerate(sorted(report)):
        handle.write(("," if i else "") + "\n  " + encode(key) + ": ")
        if key == "rows" and report[key]:
            handle.write("[")
            for j, record in enumerate(report[key]):
                fields = ",".join(
                    [_FIELD_LEADS[name] + encode(value) for name, value in sorted(record.items())]
                )
                handle.write(("," if j else "") + "\n    {" + fields + "\n    }")
            handle.write("\n  ]")
        else:
            handle.write(json.dumps(report[key], indent=2, sort_keys=True).replace("\n", "\n  "))
    handle.write("\n}\n")
