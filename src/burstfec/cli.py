"""Command-line interface.

Verbs:

* ``analyze``  -- analytic models over a parameter grid, CSV + report out;
* ``simulate`` -- Monte Carlo estimation only;
* ``compare``  -- analytic models against Monte Carlo with relative errors;
* ``optimize`` -- rank interleaving depths under a fixed packet bit budget;
* ``oracle``   -- exact count-vector recursion values for one instance.

Grid parameters come from an optional JSON config file; every command
line flag overrides the matching config entry.  The defaults reproduce a
standard evaluation grid of three shortened BCH-style codes under a
1008-bit packet budget.

Input no verb can run on prints one ``error:`` line and exits with 2; a
grid verb whose sweep holds error rows writes them and exits with 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .channel import ChannelSpec, CodeSpec, SchemeSpec, ibp_from_stats
from .models import ANALYTIC_MODELS, evaluate_models
from .oracle import exact_joint_law, exact_loss
from .sweep import (
    DECORRELATION_THRESHOLD,
    SweepSpec,
    emit_results,
    optimize_depth,
    run_sweep,
)

DEFAULT_CONFIG = {
    "channel": {
        "ber": [0.0001, 0.001, 0.005, 0.01, 0.02],
        "nacf": [0.3, 0.6, 0.9],
    },
    "codes": [[63, 57, 1], [63, 45, 3], [63, 36, 5]],
    "pairs": [[1, 16], [2, 8], [4, 4], [8, 2], [16, 1]],
    "budget": 1008,
    "models": list(ANALYTIC_MODELS),
    "packets": 100_000,
    "seed": 1,
    "gamma": 0.95,
    "workers": 1,
    "output": {"csv": "results.csv", "report": "report.json"},
}


def _parse_floats(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_ints(text, expect, what):
    parts = [int(part) for part in text.split(",") if part.strip()]
    if len(parts) != expect:
        raise argparse.ArgumentTypeError(f"{what} needs {expect} comma-separated integers")
    return parts


def _code_arg(text):
    return _parse_ints(text, 3, "a code (n,k,l)")


def _pair_arg(text):
    return _parse_ints(text, 2, "a pair (depth,blocks)")


def _add_grid_arguments(parser):
    parser.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    parser.add_argument("--ber", type=_parse_floats, metavar="P[,P...]",
                        help="bit error rates")
    parser.add_argument("--nacf", type=_parse_floats, metavar="C[,C...]",
                        help="lag-1 bit error correlations")
    parser.add_argument("--code", type=_code_arg, action="append", metavar="N,K,L",
                        help="code parameters; repeatable")
    parser.add_argument("--pair", type=_pair_arg, action="append", metavar="I,M",
                        help="(depth, blocks) pair; repeatable")
    parser.add_argument("--budget", type=int,
                        help="packet bit budget each pair must fill (0 disables the check)")
    parser.add_argument("--packets", type=int, help="Monte Carlo packets per grid point")
    parser.add_argument("--seed", type=int, help="root seed for Monte Carlo rows")
    parser.add_argument("--gamma", type=float, help="confidence level for intervals")
    parser.add_argument("--workers", type=int, help="worker threads for simulation")
    parser.add_argument("--csv", metavar="FILE", help="CSV output path")
    parser.add_argument("--report", metavar="FILE", help="JSON report output path")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


@functools.cache  # argparse keeps no state between parses
def build_parser():
    parser = argparse.ArgumentParser(
        prog="burstfec",
        description="Packet error models for interleaved FEC over correlated channels",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    analyze = verbs.add_parser("analyze", help="run the analytic models over a grid")
    _add_grid_arguments(analyze)
    analyze.add_argument("--models", help="comma list from: " + ",".join(ANALYTIC_MODELS))

    simulate = verbs.add_parser("simulate", help="Monte Carlo estimation over a grid")
    _add_grid_arguments(simulate)

    compare = verbs.add_parser("compare", help="analytic models against Monte Carlo")
    _add_grid_arguments(compare)
    compare.add_argument("--models", help="analytic models to compare against mc")

    optimize = verbs.add_parser("optimize", help="rank depths under a fixed bit budget")
    optimize.add_argument("--budget", type=int, default=1008)
    optimize.add_argument("--code", type=_code_arg, default=[63, 45, 3], metavar="N,K,L")
    optimize.add_argument("--ber", type=float, required=True)
    optimize.add_argument("--nacf", type=float, required=True)
    optimize.add_argument("--model", default="model3", choices=ANALYTIC_MODELS)
    optimize.add_argument("--threshold", type=float, default=DECORRELATION_THRESHOLD,
                          help="residual correlation considered decorrelated")

    oracle = verbs.add_parser(
        "oracle", help="exact count-vector recursion reference for one instance"
    )
    oracle.add_argument("--n", type=int, required=True, help="codeword length")
    oracle.add_argument("--l", type=int, required=True, help="correctable errors")
    oracle.add_argument("--depth", type=int, required=True, help="interleaving depth")
    oracle.add_argument("--blocks", type=int, default=1)
    oracle.add_argument("--ber", type=float, required=True)
    oracle.add_argument("--nacf", type=float, required=True)

    return parser


def _load_config(path):
    """A deep copy of DEFAULT_CONFIG with the JSON object in ``path``, if
    any, merged over it."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return config
    with open(path) as handle:
        try:
            loaded = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"config {path} must hold a JSON object, got {type(loaded).__name__}")
    for key, value in loaded.items():
        _check_key(key, DEFAULT_CONFIG)
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must hold an object, got {value!r}")
            for subkey in value:
                _check_key(subkey, DEFAULT_CONFIG[key], f"{key}.")
            config[key].update(value)
        else:
            config[key] = value
    return config


def _check_key(key, allowed, prefix=""):
    if key not in allowed:
        raise ValueError(
            f"unknown config key {prefix + key!r}; allowed: {', '.join(sorted(allowed))}"
        )


def _merge_flags(config, args):
    if args.ber is not None:
        config["channel"]["ber"] = args.ber
    if args.nacf is not None:
        config["channel"]["nacf"] = args.nacf
    if args.code:
        config["codes"] = args.code
    if args.pair:
        config["pairs"] = args.pair
    for key in ("budget", "packets", "seed", "gamma", "workers"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    if args.csv is not None:
        config["output"]["csv"] = args.csv
    if args.report is not None:
        config["output"]["report"] = args.report
    requested = getattr(args, "models", None)
    if requested:
        config["models"] = [part for part in requested.split(",") if part]
    elif config["models"] is None:
        config["models"] = list(ANALYTIC_MODELS)
    return config


def _as(value, kind):
    """``value`` as an int or float (``kind``), or None where it is not a
    JSON number of that kind: bools, strings, NaN and, for int, non-whole
    numbers are refused rather than cast."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        return None
    if kind is int and isinstance(value, float) and not value.is_integer():
        return None
    try:
        return kind(value)
    except OverflowError:  # an integer beyond float range
        return None


def _int_entries(entries, size, key):
    """The ``key`` entries of a config, each as a tuple of ``size`` integers."""
    if not isinstance(entries, list):
        raise ValueError(f"{key} must be a list, got {entries!r}")
    converted = []
    for entry in entries:
        values = tuple(_as(value, int) for value in entry) if isinstance(entry, list) else ()
        if len(values) != size or None in values:
            raise ValueError(f"each entry of {key} needs {size} integers, got {entry!r}")
        converted.append(values)
    return converted


def _number(value, kind, key):
    """The value of config key ``key`` as an int or float (``kind``)."""
    number = _as(value, kind)
    if number is None:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return number


def _sweep_spec(config, models):
    channel = config["channel"]
    grids = {}
    for key in ("ber", "nacf"):
        values = channel[key] if isinstance(channel[key], list) else [channel[key]]
        grids[key] = tuple(_number(value, float, f"channel.{key}") for value in values)
    budget = config.get("budget")  # null or 0 disables the check
    return SweepSpec(
        bers=grids["ber"],
        nacfs=grids["nacf"],
        codes=tuple(CodeSpec(*code) for code in _int_entries(config["codes"], 3, "codes")),
        pairs=tuple(SchemeSpec(*pair) for pair in _int_entries(config["pairs"], 2, "pairs")),
        models=tuple(models),
        budget=None if budget is None else _number(budget, int, "budget"),
        packets=_number(config["packets"], int, "packets"),
        seed=_number(config["seed"], int, "seed"),
        gamma=_number(config["gamma"], float, "gamma"),
    )


def _output_paths(config):
    """The CSV path and the report path (or None) of a config."""
    csv_path, report_path = config["output"]["csv"], config["output"].get("report")
    if not isinstance(csv_path, str):
        raise ValueError(f"output.csv must be a path, got {csv_path!r}")
    if report_path is not None and not isinstance(report_path, str):
        raise ValueError(f"output.report must be a path or null, got {report_path!r}")
    return csv_path, report_path


def _run_grid_verb(args):
    config = _merge_flags(_load_config(args.config), args)
    requested = config["models"]
    if not isinstance(requested, list) or not all(isinstance(m, str) for m in requested):
        raise ValueError(f"models must be a list of model names, got {requested!r}")
    if args.verb == "simulate":
        models = ["mc"]
    elif args.verb == "compare":
        models = [m for m in requested if m != "mc"] + ["mc"]
    else:
        models = [m for m in requested if m != "mc"]
    config["models"] = models

    spec = _sweep_spec(config, models)  # rejects unknown models
    workers = _number(config["workers"], int, "workers")
    csv_path, report_path = _output_paths(config)
    on_row = None
    if not args.quiet:
        def on_row(row):
            value = row.p if row.p is not None else row.p_hat
            shown = "" if value is None else f" p={value:.6g}"
            tail = f" [{row.note}]" if row.note else ""
            print(
                f"{row.model} ber={row.ber:g} nacf={row.nacf:g}"
                f" ({row.code.n},{row.code.k},{row.code.l})"
                f" I={row.scheme.depth} M={row.scheme.blocks}{shown}{tail}",
                file=sys.stderr,
            )

    rows = run_sweep(spec, workers=workers, on_row=on_row)
    written = emit_results(rows, csv_path, report_path, config=config)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)

    failures = [row for row in rows if row.note and row.note.startswith("error")]
    for row in failures:
        print(f"error row: {row.model} ber={row.ber} nacf={row.nacf}: {row.note}",
              file=sys.stderr)
    return 1 if failures else 0


def _run_optimize(args):
    code = CodeSpec(*args.code)
    channel = ChannelSpec(ber=args.ber, nacf=args.nacf)
    candidates = optimize_depth(
        args.budget, code, channel, model=args.model, threshold=args.threshold
    )
    print("rank  I     M     p             residual_corr  decorrelated")
    for rank, cand in enumerate(candidates, start=1):
        print(
            f"{rank:<5d} {cand.scheme.depth:<5d} {cand.scheme.blocks:<5d} "
            f"{cand.packet_error:<13.6g} {cand.residual_corr:<14.6g} "
            f"{'yes' if cand.decorrelated else 'no'}"
        )
    best = candidates[0]
    print(
        f"best: I={best.scheme.depth} M={best.scheme.blocks} "
        f"p={best.packet_error:.6g}"
    )
    return 0


def _run_oracle(args):
    channel = ChannelSpec(ber=args.ber, nacf=args.nacf)
    model = ibp_from_stats(channel)
    slots = args.n * args.depth
    cap = args.l + 1
    # checked before any output, so an l the models reject prints nothing;
    # n = 1 has no code for the model predictions (k must lie in (0, n))
    if not 0 <= args.l < args.n:
        raise ValueError(f"need 0 <= l < n, got n={args.n}, l={args.l}")
    code = CodeSpec(n=args.n, k=args.n - 1, l=args.l) if args.n > 1 else None
    # two flows: one block flow gives the block and the packet error, and
    # the joint law's row sums give the codeword law
    p_block, p_packet = exact_loss(model, args.n, args.depth, args.l, args.blocks)
    q = exact_joint_law(model, args.n, args.depth, cap)
    lines = [
        f"exact count-vector recursion over {slots} slots per block",
        f"block error  : {p_block:.12g}",
        f"packet error : {p_packet:.12g}  (blocks={args.blocks})",
        "codeword error-count law (top bucket saturated at cap):",
    ]
    for count, prob in enumerate(q.sum(axis=1)):
        label = f">={count}" if count == cap else f" ={count}"
        lines.append(f"  {label}: {prob:.12g}")
    lines.append("joint law of two adjacent codewords:")
    lines += ["  " + "  ".join(f"{value:.6e}" for value in row) for row in q.tolist()]
    if code is not None:
        results = evaluate_models(model, code, SchemeSpec(depth=args.depth, blocks=args.blocks))
        lines.append("model predictions for the same instance:")
        for name in ANALYTIC_MODELS:
            result = results[name]
            shown = (
                f"{result.packet_error:.12g}" if result.error is None
                else f"error: {result.error}"
            )
            lines.append(f"  {name:<9s}: {shown}")
    print("\n".join(lines))
    return 0


_RUNNERS = {
    "analyze": _run_grid_verb,
    "simulate": _run_grid_verb,
    "compare": _run_grid_verb,
    "optimize": _run_optimize,
    "oracle": _run_oracle,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    # rejected input (a bad code, pair or model name, an unreadable config,
    # an unknown config key or a config value of the wrong type, an
    # unwritable output path, too many oracle count vectors, no feasible
    # pair) is one error line, not a traceback
    try:
        return _RUNNERS[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
