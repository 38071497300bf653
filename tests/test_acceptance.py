"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and then asserts, so a verbose run
reads as a checklist.  Tolerances are pinned here and nowhere else; the
Monte Carlo cross-validation (criterion 3) and the exact model table
(criterion 9) dominate the runtime of the whole suite, at about 15 s and
15 s of its 42 s on a 2-core x86-64 host.
"""

import math
import time

import numpy as np
import pytest

from burstfec.channel import ChannelSpec, CodeSpec, SchemeSpec, ibp_from_stats
from burstfec.dist import (
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)
from burstfec.mc import SimConfig, dar1_stream, simulate_packets
from burstfec.models import _absorbed, _absorbing_chains
from burstfec.oracle import exact_joint_law, exact_loss
from burstfec.sweep import (
    SweepSpec,
    emit_results,
    optimize_depth,
    residual_correlation,
    run_sweep,
)
from reference_stats import binomial_packet_error, lag1_autocorr, one, stat_standard_errors

CODES = (CodeSpec(63, 57, 1), CodeSpec(63, 45, 3), CodeSpec(63, 36, 5))
ALL_PAIRS = tuple(
    SchemeSpec(depth=d, blocks=16 // d) for d in (1, 2, 4, 8, 16)
)

# Root seed for the Monte Carlo acceptance runs.  Every per-point seed
# derives from it by row index, so the whole suite is deterministic.
ROOT_SEED = 20260815


def _point_seed(index: int) -> int:
    key = np.random.SeedSequence(ROOT_SEED, spawn_key=(index,))
    return int(key.generate_state(1, np.uint64)[0])


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ----------------------------------------------------------------------
# 1. memoryless degeneracy: every model collapses to the binomial answer
# ----------------------------------------------------------------------


def test_criterion_1_degeneracy():
    started = time.monotonic()
    tol = 1e-10
    worst = 0.0
    points = 0
    for code in CODES:
        for scheme in ALL_PAIRS:
            for ber in (1e-4, 1e-3, 0.005, 0.01, 0.02):
                fsmc = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
                results = one(fsmc, code, scheme)
                reference = results["baseline"].packet_error
                for model in ("model1", "model2", "model3"):
                    gap = abs(results[model].packet_error - reference)
                    worst = max(worst, gap)
                points += 1
    elapsed = time.monotonic() - started
    ok = worst <= tol and elapsed < 10.0
    _report(
        1, "memoryless degeneracy", ok,
        f"{points} grid points, worst |model - binomial| = {worst:.3g}"
        f" (tol {tol:g}), {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 2. equivalence with the exact oracle on small instances
# ----------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    dist_tol = 1e-12
    zero_floor = 1e-12
    extra_allowance = 0.50  # relative, on top of the memoryless deviation
    worst_dist = 0.0
    worst_excess = -math.inf
    checked = 0
    for n in range(1, 6):
        for depth in (1, 2, 3):
            for l in (0, 1, 2):
                cap = l + 1
                for ber in (0.05, 0.2, 0.5):
                    devs = {}
                    for nacf in (0.0, 0.5, 0.9):
                        fsmc = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))

                        exact_q = exact_joint_law(fsmc, n, depth, cap)
                        probs = marginal_error_distribution([fsmc], n, [depth], cap)
                        gap = np.max(np.abs(probs[0] - exact_q.sum(axis=1)))
                        worst_dist = max(worst_dist, float(gap))
                        if depth >= 2:
                            [q] = joint_error_distribution([fsmc], n, [depth], [cap])
                        else:
                            [q] = sequential_joint_distribution([fsmc], n, [cap])
                        gap = np.max(np.abs(q[0] - exact_q))
                        worst_dist = max(worst_dist, float(gap))

                        exact = exact_loss(fsmc, n, depth, l, 1)[0]
                        if 1 < n and l < n:  # a valid CodeSpec: the public entry point
                            predicted = one(
                                fsmc, CodeSpec(n, 1, l), SchemeSpec(depth, 1), ("model3",)
                            )["model3"].block_error
                        else:
                            transient, start = _absorbing_chains(q, l)
                            predicted = _absorbed(start, transient, [depth], 1).item(0)
                        if exact <= zero_floor:
                            devs[nacf] = 0.0
                            assert predicted <= zero_floor, (
                                f"n={n} I={depth} l={l} ber={ber} c={nacf}:"
                                f" exact {exact:.3g} but model3 {predicted:.3g}"
                            )
                        else:
                            devs[nacf] = abs(predicted - exact) / exact
                        checked += 1
                    for nacf in (0.5, 0.9):
                        excess = devs[nacf] - devs[0.0] - extra_allowance
                        worst_excess = max(worst_excess, excess)
                        assert excess <= 0.0, (
                            f"n={n} I={depth} l={l} ber={ber} c={nacf}:"
                            f" dev {devs[nacf]:.3f} vs memoryless {devs[0.0]:.3g}"
                        )
    elapsed = time.monotonic() - started
    ok = worst_dist <= dist_tol and worst_excess <= 0.0 and elapsed < 60.0
    _report(
        2, "oracle equivalence", ok,
        f"{checked} combos, worst distribution gap {worst_dist:.3g}"
        f" (tol {dist_tol:g}), worst model-3 margin {worst_excess:+.3f}"
        f" against the +50% bound, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 3. full-scale cross-validation against the embedded simulator
# ----------------------------------------------------------------------


def test_criterion_3_cross_validation():
    started = time.monotonic()
    packets = 100_000
    model3_bound = 0.50
    best_fraction = 0.15  # ~15%, plus Monte Carlo noise on the estimate
    eligible = 0
    worst3 = 0.0
    worst_best_margin = -math.inf
    failures = []
    index = 0
    for code in CODES:
        for scheme in (SchemeSpec(2, 8), SchemeSpec(4, 4), SchemeSpec(8, 2), SchemeSpec(16, 1)):
            for nacf in (0.3, 0.6, 0.9):
                for ber in (0.001, 0.005, 0.01, 0.02):
                    channel = ChannelSpec(ber=ber, nacf=nacf)
                    predictions = one(
                        ibp_from_stats(channel), code, scheme,
                        ("model1", "model2", "model3"),
                    )
                    estimate = simulate_packets(
                        SimConfig(
                            channel=channel, code=code, scheme=scheme,
                            packets=packets, seed=_point_seed(index),
                        ),
                    )
                    index += 1
                    p_hat = estimate.p_hat
                    if p_hat < 1e-3:
                        continue
                    eligible += 1
                    label = (
                        f"(63,{code.k},{code.l}) I={scheme.depth} c={nacf} p_E={ber}"
                    )

                    dev3 = abs(predictions["model3"].packet_error - p_hat) / p_hat
                    worst3 = max(worst3, dev3)
                    if dev3 > model3_bound:
                        failures.append(f"{label}: model3 dev {dev3:.3f}")

                    if nacf in (0.3, 0.6):
                        best_gap = min(
                            abs(predictions[m].packet_error - p_hat)
                            for m in ("model1", "model2", "model3")
                        )
                        noise = math.sqrt(p_hat * (1.0 - p_hat) / packets)
                        allowed = best_fraction * p_hat + 3.0 * noise
                        worst_best_margin = max(worst_best_margin, best_gap - allowed)
                        if best_gap > allowed:
                            failures.append(
                                f"{label}: best-of-three gap {best_gap:.3g}"
                                f" > {allowed:.3g}"
                            )
    elapsed = time.monotonic() - started
    ok = not failures
    _report(
        3, "full-scale cross-validation", ok,
        f"{eligible} eligible points of {index}, worst model3 dev {worst3:.3f}"
        f" (bound {model3_bound}), worst best-of-three margin"
        f" {worst_best_margin:+.2e} vs 15%+3SE, {elapsed:.0f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )


# ----------------------------------------------------------------------
# 4. headline residual-correlation numbers
# ----------------------------------------------------------------------


def test_criterion_4_residual_correlation():
    quoted = [
        (0.9, 16, 0.18, 0.01),
        (0.9, 8, 0.43, 0.01),
        (0.6, 8, 0.02, 0.01),
        (0.6, 16, 2.8e-4, 1e-5),
        (0.3, 8, 6.5e-5, 1e-6),
        (0.9, 32, 0.034, 1e-3),
    ]
    gaps = [
        abs(residual_correlation(nacf, depth) - value) - tol
        for nacf, depth, value, tol in quoted
    ]
    ok = all(gap <= 0.0 for gap in gaps)
    _report(
        4, "residual-correlation values", ok,
        f"{len(quoted)} quoted values, worst margin {max(gaps):+.2e}",
    )


# ----------------------------------------------------------------------
# 5. deeper interleaving never hurts on a bursty channel
# ----------------------------------------------------------------------


def test_criterion_5_depth_ordering():
    started = time.monotonic()
    channel = ChannelSpec(ber=0.01, nacf=0.9)
    fsmc = ibp_from_stats(channel)
    ok = True
    details = []
    for code in (CodeSpec(63, 57, 1), CodeSpec(63, 45, 3)):
        errors = [
            one(fsmc, code, scheme, ("model3",))["model3"].packet_error
            for scheme in ALL_PAIRS
        ]
        monotone = all(a >= b - 1e-15 for a, b in zip(errors, errors[1:]))
        ranked = optimize_depth(1008, code, channel)
        first = ranked[0].scheme.depth
        ok = ok and monotone and first == 16
        details.append(
            f"l={code.l}: span {errors[0]:.3g}->{errors[-1]:.3g}"
            f" monotone={monotone} best I={first}"
        )
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    _report(5, "depth ordering", ok, "; ".join(details) + f", {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6. confidence-interval coverage against exact memoryless truth
# ----------------------------------------------------------------------


def test_criterion_6_interval_coverage():
    started = time.monotonic()
    replications = 300
    packets = 10_000
    code = CodeSpec(15, 11, 1)
    scheme = SchemeSpec(depth=2, blocks=2)
    ber = 0.02
    truth = binomial_packet_error(ber, code.n, code.l, scheme.codewords)
    covered = 0
    for rep in range(replications):
        seed = int(
            np.random.SeedSequence(ROOT_SEED, spawn_key=(1, rep)).generate_state(
                1, np.uint64
            )[0]
        )
        estimate = simulate_packets(
            SimConfig(
                channel=ChannelSpec(ber=ber, nacf=0.0), code=code,
                scheme=scheme, packets=packets, seed=seed,
            )
        )
        if estimate.lo <= truth <= estimate.hi:
            covered += 1
    coverage = covered / replications
    elapsed = time.monotonic() - started
    ok = coverage >= 0.92 and elapsed < 120.0
    _report(
        6, "interval coverage", ok,
        f"{covered}/{replications} cover p={truth:.5f}"
        f" ({coverage:.1%}, need >= 92%), {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 7. simulated streams hit the target statistics
# ----------------------------------------------------------------------


def test_criterion_7_stream_fidelity():
    started = time.monotonic()
    bits = 1_000_000
    worst = 0.0
    for ber in (0.001, 0.01, 0.02):
        for nacf in (0.3, 0.6, 0.9):
            stream = dar1_stream(ChannelSpec(ber=ber, nacf=nacf), bits, seed=42)
            se_mean, se_r1 = stat_standard_errors(ber, nacf, bits)
            mean_devs = abs(stream.mean() - ber) / se_mean
            r1_devs = abs(lag1_autocorr(stream) - nacf) / se_r1
            worst = max(worst, mean_devs, r1_devs)
            assert mean_devs <= 3.0, f"p_E={ber} c={nacf}: mean off by {mean_devs:.2f} SE"
            assert r1_devs <= 3.0, f"p_E={ber} c={nacf}: NACF off by {r1_devs:.2f} SE"
    elapsed = time.monotonic() - started
    ok = worst <= 3.0 and elapsed < 10.0
    _report(
        7, "stream fidelity", ok,
        f"9 (p_E, c) targets x 1e6 bits, worst |z| = {worst:.2f}"
        f" (limit 3 SE), {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 8. byte-identical outputs across runs and worker counts
# ----------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    spec = SweepSpec(
        bers=(0.005, 0.02),
        nacfs=(0.6,),
        codes=(CodeSpec(63, 45, 3),),
        pairs=(SchemeSpec(4, 4),),
        models=("model3", "mc"),
        budget=1008,
        packets=20_000,
        seed=ROOT_SEED,
    )
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        csv_path = tmp_path / f"{name}.csv"
        emit_results(run_sweep(spec, workers=workers), csv_path)
        outputs.append(csv_path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(
        8, "determinism", ok,
        f"{len(outputs)} runs (worker counts 1/1/3), "
        + ("all byte-identical" if ok else "outputs differ"),
    )


# ----------------------------------------------------------------------
# 9. the analytic models against exact values at paper scale
# ----------------------------------------------------------------------


def test_criterion_9_models_against_exact():
    started = time.monotonic()
    model3_bound = 0.50
    worst = {"model1": 0.0, "model2": 0.0, "model3": 0.0}
    worst_label = {}
    points = 0
    print("\ncode        I  M  c    p_E    exact        model1  model2  model3  (rel. dev.)")
    for code in CODES:
        for scheme in (SchemeSpec(2, 8), SchemeSpec(4, 4), SchemeSpec(8, 2), SchemeSpec(16, 1)):
            if (code.l + 1) ** scheme.depth > 2**20:
                continue
            for nacf in (0.3, 0.6, 0.9):
                for ber in (0.001, 0.005, 0.01, 0.02):
                    fsmc = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
                    exact = exact_loss(fsmc, code.n, scheme.depth, code.l, scheme.blocks)[1]
                    predictions = one(fsmc, code, scheme, tuple(worst))
                    devs = {
                        name: abs(predictions[name].packet_error - exact) / exact
                        for name in worst
                    }
                    label = f"(63,{code.k},{code.l}) I={scheme.depth} c={nacf} p_E={ber}"
                    for name, dev in devs.items():
                        if dev > worst[name]:
                            worst[name], worst_label[name] = dev, label
                    points += 1
                    print(
                        f"(63,{code.k},{code.l}) {scheme.depth:>2d} {scheme.blocks:>2d}"
                        f" {nacf:<4g} {ber:<6g} {exact:<12.6g} "
                        + "  ".join(f"{devs[name]:6.3f}" for name in worst)
                    )
    elapsed = time.monotonic() - started
    accurate = points == 108 and worst["model3"] <= model3_bound
    fast = elapsed < 30.0
    # accuracy and time are reported apart, so a slow host is not read as a model miss
    _report(
        9, "models against exact", accurate and fast,
        f"{points} points, worst relative deviation "
        + ", ".join(f"{name} {dev:.3f} at {worst_label[name]}" for name, dev in worst.items())
        + f" (model3 bound {model3_bound}): accuracy {'met' if accurate else 'MISSED'};"
        + f" {elapsed:.1f}s of the 30s time bound: time {'met' if fast else 'MISSED'}",
    )
