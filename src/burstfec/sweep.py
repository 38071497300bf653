"""Parameter sweeps, interleaving-depth optimization, result emission.

A sweep walks the Cartesian grid codes x (depth, blocks) pairs x nacf x
ber and emits one row per grid point and requested model.  Monte Carlo
rows derive their seeds from the sweep seed plus their own row index, so
reruns, row subsets and worker counts cannot change any estimate.  The
CSV output is byte-deterministic; the JSON report carries the full
configuration echo next to the rows.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from . import BIT_GENERATOR, SAMPLER, __version__
from .channel import (
    ChannelSpec,
    CodeSpec,
    SchemeSpec,
    _check_sampling,
    _check_workers,
    ibp_from_stats,
)
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
    budget: int | None = 1008  # 0 or None turns the budget check off
    packets: int = 100_000
    seed: int = 0
    gamma: float = 0.95

    def __post_init__(self):
        if not (self.bers and self.nacfs and self.codes and self.pairs and self.models):
            raise ValueError("all sweep grids must be non-empty")
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"packet bit budget must be >= 0, got {self.budget}")
        _check_sampling(self.packets, self.gamma, self.seed)  # before any row, not on every mc row


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


def _fmt(value) -> str:
    """12-significant-digit rendering; empty string for absent values."""
    if value is None:
        return ""
    return f"{value:.12g}"


class _Texts(dict):
    """``render(key)`` by key, each distinct key rendered once; zeros are
    rendered on every lookup, as 0.0 and -0.0 are one key but print as
    "0" and "-0".  Made afresh by each caller, so no text outlives it."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self.render(key)
        if key != 0:
            self[key] = text
        return text


def _csv_records(rows) -> list[tuple[str, ...]]:
    """The CSV fields of each row: each distinct number formatted once,
    but for ``p`` and ``throughput``, which differ on nearly every row and
    are formatted in place."""
    text, integer = _Texts(_fmt), _Texts(str)
    return [
        (
            row.model,
            text[row.ber], text[row.nacf],
            integer[row.code.n], integer[row.code.k], integer[row.code.l],
            integer[row.scheme.depth], integer[row.scheme.blocks],
            _fmt(row.p), text[row.p_hat], text[row.ci_lo], text[row.ci_hi],
            text[row.rel_err], _fmt(row.throughput), text[row.residual_corr],
            "" if row.seed is None else str(row.seed),
        )
        for row in rows
    ]


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


def _row_seed(root: int, index: int) -> int:
    key = np.random.SeedSequence(root, spawn_key=(index,))
    return int(key.generate_state(1, np.uint64)[0])


def run_sweep(spec: SweepSpec, workers: int = 1, on_row=None) -> list[ResultRow]:
    """Evaluate the full grid, one row per (grid point, model).

    Rows come out in a fixed nested order (code, pair, nacf, ber, model),
    and the grid is one flat list of (pair, nacf, ber, channel) entries
    in that order.  Each grid point's channel is built once and shared
    by every (code, pair); the feasible entries of all the codes of one n
    go through the analytic models as one stack, with one scheme per channel,
    and each analytic row reads its ``p`` and error from its model's
    columns, with the throughput worked out inline.
    When both analytic models and "mc" are requested,
    analytic rows get ``rel_err`` against the Monte Carlo estimate of the
    same grid point.  Infeasible or failing grid points, and single
    failing models, are reported on their rows instead of aborting the
    sweep.
    """
    _check_workers(workers)  # before any row, not on every mc row
    analytic = tuple(m for m in spec.models if m != "mc")
    points = [(nacf, ber, _point_channel(nacf, ber)) for nacf in spec.nacfs for ber in spec.bers]
    grid = [(scheme, *point) for scheme in spec.pairs for point in points]
    evaluated = {}  # code -> its notes and columns; the codes of one n from one stack
    residuals = {  # (nacf, depth) -> residual correlation, for the entries with a channel
        key: residual_correlation(*key)
        for key in {
            (nacf, scheme.depth) for scheme, nacf, _, channel in grid
            if not isinstance(channel, ValueError)
        }
    }
    rows: list[ResultRow] = []
    for code in spec.codes:
        if code not in evaluated:
            group = [c for c in spec.codes if c.n == code.n]
            notes, columns = _evaluate_codes(spec, group, grid, analytic)
            evaluated.update((c, (notes, code_columns)) for c, code_columns in zip(group, columns))
        notes, columns = evaluated[code]
        # each model's packet errors and errors, None for "mc" and a failed stack
        picks = [(model, *columns.get(model, (None,) * 3)[1:]) for model in spec.models]
        live = -1  # the entry's index in the columns, which skip the noted entries
        for (scheme, nacf, ber, channel), note in zip(grid, notes):
            residual = None if isinstance(channel, ValueError) else residuals[nacf, scheme.depth]
            first, estimate = len(rows), None
            live += note is None
            # expected delivered data bits per packet under all-or-nothing
            # delivery: data_bits * (1 - p)
            data_bits = scheme.codewords * code.k
            for model, packets, errors in picks:
                if note is None and packets is not None:
                    # fields in order: model, ber, nacf, code, scheme, p, p_hat,
                    # ci_lo, ci_hi, rel_err, throughput, residual_corr, seed, note
                    p, error = packets[live], errors[live]
                    row = ResultRow(
                        model, ber, nacf, code, scheme, p, None, None, None, None,
                        None if p is None else data_bits * (1.0 - p), residual,
                        None, None if error is None else f"error: {error}",
                    )
                elif note is None and model == "mc":
                    # imported here: the analytic verbs never load the simulator
                    from .mc import SimConfig, simulate_packets

                    row = ResultRow(model, ber, nacf, code, scheme, residual_corr=residual,
                                    seed=_row_seed(spec.seed, len(rows)))
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
                        row.throughput = data_bits * (1.0 - estimate.p_hat)
                        if estimate.degenerate:
                            row.note = "degenerate: loss rate estimate is 0 or 1"
                    except Exception as exc:
                        row.note = f"error: {exc}"
                else:
                    row = ResultRow(model, ber, nacf, code, scheme, residual_corr=residual, note=note)
                rows.append(row)
            point_rows = rows[first:]
            if estimate is not None and estimate.p_hat > 0.0:
                for row in point_rows:
                    if row.p is not None:
                        row.rel_err = (row.p - estimate.p_hat) / estimate.p_hat
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


def _evaluate_codes(spec, codes, grid, analytic):
    """The note of each (pair, nacf, ber, channel) entry of the grid, and
    for each code of ``codes``, all of one n, its ``evaluate_models``
    columns: the entries without a note, in grid order, are evaluated as
    one stack for all the codes.

    A point whose statistics no channel can represent, a pair that does
    not fill the budget and, when the stack fails, every stacked entry
    get a note; a noted entry has no entry in the columns.
    """
    notes = [
        f"error: {channel}" if isinstance(channel, ValueError)
        else f"infeasible: depth*blocks*n = {bits} != budget {spec.budget}"
        if spec.budget and (bits := scheme.packet_bits(codes[0].n)) != spec.budget else None
        for scheme, _, _, channel in grid
    ]
    live = [i for i, note in enumerate(notes) if note is None]
    columns = [{} for _ in codes]
    if analytic and live:
        schemes, channels = zip(*[(grid[i][0], grid[i][3]) for i in live])
        try:
            columns = evaluate_models(channels, codes, schemes, analytic)
        except Exception as exc:  # surfaced per-row, sweep keeps going
            for i in live:
                notes[i] = f"error: {exc}"
    return notes, columns


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
    if not 0.0 <= threshold <= 1.0:  # NaN too
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    pairs = feasible_pairs(budget, code.n)
    if not pairs:
        raise ValueError(f"no feasible (depth, blocks) pair: budget {budget}, n {code.n}")
    fsmc = ibp_from_stats(channel)
    [columns] = evaluate_models([fsmc] * len(pairs), [code], pairs, which=(model,))
    _, packets, errors = columns[model]
    if any(errors):
        raise ValueError(next(filter(None, errors)))  # the first failing pair's
    residuals = [residual_correlation(channel.nacf, scheme.depth) for scheme in pairs]
    candidates = [
        DepthCandidate(scheme, packet_error, residual, residual < threshold)
        for scheme, packet_error, residual in zip(pairs, packets, residuals)
    ]
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
    # each row's fields, formatted once: the CSV line (no field holds a comma,
    # a quote or a line break) and, with the model encoded and the note
    # added, the row's report entry
    records = _csv_records(rows)
    with open(csv_path, "w", newline="") as handle:
        handle.write("\n".join(map(",".join, [CSV_COLUMNS, *records])) + "\n")
    written.append(csv_path)
    if report_path is not None:
        report = {
            "config": config if config is not None else {},
            "generator": BIT_GENERATOR,
            "meta": {"numpy": np.__version__, "version": __version__},
            "rows": records,
            "sampler": SAMPLER,
        }
        with open(report_path, "w") as handle:
            _write_report(handle, report, [row.note for row in rows])
        written.append(report_path)
    return written


def _row_layout(fields):
    """How a record with these fields becomes a report row entry: a getter
    of its values in sorted field order, and the entry's text with a
    placeholder for each value after its field's line start.  The model
    and the note are placed as encoded JSON strings; every other field is
    a formatted number or empty, which needs no escaping, so its quotes
    are part of the text."""
    order = sorted(range(len(fields)), key=fields.__getitem__)
    encode = json.encoder.encode_basestring_ascii
    lines = ",".join(
        f"\n      {encode(fields[i])}: " + ("%s" if fields[i] in ("model", "note") else '"%s"')
        for i in order
    )
    return operator.itemgetter(*order), "\n    {" + lines + "\n    }"


# the layouts of a row entry without and with a note, sorted here once
_ROW_LAYOUTS = _row_layout(CSV_COLUMNS), _row_layout(CSV_COLUMNS + ("note",))
# report rows formatted per write: one format call over many rows, with
# the text held at once bounded for long sweeps
_ROWS_PER_WRITE = 256


def _write_report(handle, report, notes):
    """The bytes of ``json.dump(report, handle, indent=2, sort_keys=True)``
    and a newline, with the "rows" streamed a few hundred at a time.

    ``report["rows"]`` holds each row's CSV record, which the report has
    as an object from CSV column names and, where the row's entry of
    ``notes`` is not None, "note" to strings.  The indented ``json.dump``
    encodes in pure Python; here each distinct model name and note goes
    once through the C encoder ``json.dump`` itself uses
    (``ensure_ascii``), and the rows of one write fill their entries'
    layouts in one format call.  The rest of the report goes through
    ``json.dumps``, indented one level deeper.
    """
    encode = json.encoder.encode_basestring_ascii
    encoded = _Texts(encode)
    handle.write("{")
    for i, key in enumerate(sorted(report)):
        handle.write(("," if i else "") + "\n  " + encode(key) + ": ")
        value = report[key]
        if key == "rows" and value:
            handle.write("[")
            for start in range(0, len(value), _ROWS_PER_WRITE):
                end = start + _ROWS_PER_WRITE
                entries, values = [], []
                for record, note in zip(value[start:end], notes[start:end]):
                    pick, entry = _ROW_LAYOUTS[note is not None]
                    entries.append(entry)
                    fields = (encoded[record[0]], *record[1:])  # the model encoded
                    values += pick(fields if note is None else (*fields, encoded[note]))
                handle.write(("," if start else "") + ",".join(entries) % tuple(values))
            handle.write("\n  ]")
        else:
            handle.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
    handle.write("\n}\n")
