"""The benchmark's workloads: the `burstfec` CLI calls of one pass, and
the checks that the outputs of a pass are right.

A pass is a list of calls to ``burstfec.cli.main``, made one after the
other by a single caller (a closed loop with one client).  The checks
compare the outputs with values recorded in ``reference.json`` and with
arithmetic done here, so they do not rest only on the code under test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout the benchmark measures
REFERENCE_PATH = Path(__file__).with_name("reference.json")
SCRATCH = ROOT / ".bench_tmp"  # every file a run writes lives under here

NAMES = ("analytic-grid", "mc-compare", "exact-oracle")

# mc-compare: one (code, pair) of criterion 3's grid, both ends of the
# p_E range, and c = 0 (no DAR(1) fill, exact binomial answer) next to
# c = 0.9 (the full fill).
MC_CODE = (63, 45, 3)
MC_PAIR = (4, 4)
MC_BERS = (0.002, 0.02)
MC_NACFS = (0.0, 0.9)
MC_PACKETS = 100_000

# exact-oracle: two instances at the enumeration ceiling n * I = 20.
# B has I = 2 and one block, where models 1 and 3 are exact.
ORACLE_INSTANCES = {
    "A": {"n": 5, "l": 1, "depth": 4, "blocks": 4, "ber": 0.02, "nacf": 0.9},
    "B": {"n": 10, "l": 2, "depth": 2, "blocks": 1, "ber": 0.02, "nacf": 0.9},
}

OUTPUTS = ("out.csv", "report.json")  # files a pass writes into the cwd
SE_LIMIT = 4.0  # Monte Carlo estimates must lie within this many standard errors
ANALYTIC_RTOL = 1e-9  # analytic values are printed to 12 significant digits
EXACT_ATOL = 1e-12  # models 1 and 3 against the oracle where both are exact
_FLOAT = re.compile(r"[-+]?\d+\.(\d+)(?:e([-+]?\d+))?")


def mc_seed(seed: int) -> int:
    """The `compare --seed` of a benchmark seed.

    The Monte Carlo reference in reference.json was made with compare
    seed 0, which this map never returns, so a run never repeats the
    draws it is checked against.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed + 1


@dataclass
class Pass:
    """What one pass printed and wrote, for its checks."""

    seconds: float
    codes: list  # exit code of each call, or the exception it raised
    stdout: list  # captured stdout of each call
    files: dict  # name -> bytes of each file the calls wrote


@dataclass
class Verdict:
    """Checked outcome of one pass: rows attempted and what went wrong."""

    rows: int  # rows of output attempted
    failures: list  # one message per error row or failed check
    digest: str  # sha256 of the outputs, to compare passes of one run


class Workload:
    """One workload: the calls of a pass, its size, and its checks."""

    def __init__(self, name: str, seed: int, packets: int = MC_PACKETS, reference=None):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        self.packets = packets
        self.reference = load_reference() if reference is None else reference
        self.points = {"analytic-grid": 225, "mc-compare": 4, "exact-oracle": 2}[name]
        # rows of output per pass: one per model and point, one per oracle instance
        self.rows = {"analytic-grid": 900, "mc-compare": 20, "exact-oracle": 2}[name]

    def calls(self) -> list:
        """Argument lists of one pass; outputs go to files in the cwd."""
        out = ["--quiet", "--csv", OUTPUTS[0], "--report", OUTPUTS[1]]
        if self.name == "analytic-grid":
            return [["analyze", *out]]
        if self.name == "mc-compare":
            return [[
                "compare", "--code", ",".join(map(str, MC_CODE)),
                "--pair", ",".join(map(str, MC_PAIR)),
                "--ber", ",".join(map(str, MC_BERS)),
                "--nacf", ",".join(map(str, MC_NACFS)),
                "--packets", str(self.packets), "--workers", "1",
                "--seed", str(mc_seed(self.seed)), *out,
            ]]
        return [oracle_argv(spec) for spec in ORACLE_INSTANCES.values()]

    def run(self, main) -> Pass:
        """Make the calls of one pass in the current directory and time them."""
        for name in OUTPUTS:
            Path(name).unlink(missing_ok=True)
        codes, stdout = [], []
        start = time.perf_counter()
        for argv in self.calls():
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(main(argv))
                except Exception as exc:  # a crash is a failed call, not a failed run
                    codes.append(repr(exc))
            stdout.append(text.getvalue())
        seconds = time.perf_counter() - start
        files = {}
        for name in OUTPUTS:
            with contextlib.suppress(FileNotFoundError):
                files[name] = Path(name).read_bytes()
        return Pass(seconds, codes, stdout, files)

    def check(self, done: Pass) -> Verdict:
        failures = [f"call {i} failed: {code}" for i, code in enumerate(done.codes) if code]
        if self.name == "exact-oracle":
            blob = "".join(done.stdout).encode()
        else:
            blob = done.files.get("out.csv", b"")
        try:
            if self.name == "exact-oracle":
                for label, text in zip(ORACLE_INSTANCES, done.stdout):
                    failures += check_oracle(label, text, self.reference["exact-oracle"][label])
            else:
                failures += report_failures(done.files.get("report.json"), self.rows)
            if self.name == "analytic-grid":
                failures += check_digest(blob, self.reference["analytic-grid"]["csv_sha256"])
            elif self.name == "mc-compare":
                failures += check_mc(blob, self.packets, self.reference["mc-compare"])
        except (KeyError, ValueError) as exc:
            failures.append(f"unreadable output: {exc!r}")
        return Verdict(self.rows, failures, hashlib.sha256(blob).hexdigest())


@contextlib.contextmanager
def scratch_cwd():
    """Run the body in a fresh directory under SCRATCH, removed afterwards.

    The CLI writes outputs relative to the cwd (and report.json by
    default), so this keeps a run from touching the checkout.
    """
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield Path(path)
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def oracle_argv(spec: dict) -> list:
    argv = ["oracle"]
    for key in ("n", "l", "depth", "blocks", "ber", "nacf"):
        argv += [f"--{key}", str(spec[key])]
    return argv


def report_failures(report: bytes | None, expected_rows: int) -> list:
    """Error rows of a JSON report, and a wrong row count."""
    if report is None:
        return ["no report written"]
    rows = json.loads(report)["rows"]
    failures = [
        f"error row {row['model']} p_E={row['p_E']} c={row['c']}: {row['note']}"
        for row in rows
        if row.get("note", "").startswith("error")
    ]
    if len(rows) != expected_rows:
        failures.append(f"report has {len(rows)} rows, expected {expected_rows}")
    return failures


def check_digest(blob: bytes, expected: str) -> list:
    digest = hashlib.sha256(blob).hexdigest()
    return [] if digest == expected else [f"CSV sha256 {digest} != recorded {expected}"]


def binomial_packet_error(ber: float, n: int, l: int, codewords: int) -> float:
    """Packet loss on a memoryless channel, computed here independently."""
    tail = math.fsum(math.comb(n, i) * ber**i * (1.0 - ber) ** (n - i) for i in range(l + 1, n + 1))
    return -math.expm1(codewords * math.log1p(-tail))


def check_mc(blob: bytes, packets: int, reference: dict) -> list:
    """Checks on the compare CSV.

    c = 0: the estimate lies within SE_LIMIT standard errors of the
    binomial answer.  c > 0: it lies within SE_LIMIT combined standard
    errors of a long reference run.  Analytic rows match their recorded
    values, and the baseline row the binomial answer.
    """
    failures = []
    n, _, l = MC_CODE
    codewords = MC_PAIR[0] * MC_PAIR[1]
    seen = set()
    for row in csv.DictReader(io.StringIO(blob.decode())):
        ber, nacf, model = float(row["p_E"]), float(row["c"]), row["model"]
        key = f"{row['p_E']},{row['c']}"
        where = f"{model} p_E={ber:g} c={nacf:g}"
        seen.add((model, key))
        exact = binomial_packet_error(ber, n, l, codewords)
        if model == "mc":
            p_hat = float(row["p_hat"])
            if nacf == 0.0:
                target, se = exact, math.sqrt(exact * (1.0 - exact) / packets)
            else:
                ref = reference["mc"][key]
                target = ref["p_hat"]
                se = math.hypot(ref["se"], math.sqrt(p_hat * (1.0 - p_hat) / packets))
            if not abs(p_hat - target) <= SE_LIMIT * se:
                failures.append(
                    f"{where}: p_hat {p_hat:.6g} is {abs(p_hat - target) / se:.1f} SE"
                    f" from {target:.6g}"
                )
            continue
        p = float(row["p"])
        target = exact if model == "baseline" else reference["analytic"][model][key]
        if not math.isclose(p, target, rel_tol=ANALYTIC_RTOL):
            failures.append(f"{where}: p {p!r} != {target!r}")
    expected = {
        (model, f"{ber:g},{nacf:g}")
        for model in ("model1", "model2", "model3", "baseline", "mc")
        for ber in MC_BERS
        for nacf in MC_NACFS
    }
    if seen != expected:
        failures.append(f"compare CSV rows differ from the grid: {sorted(seen ^ expected)}")
    return failures


def parse_oracle(text: str) -> dict:
    """Numbers printed by the oracle verb: all of them, and the named ones.

    Each number comes with its tolerance, two units in the last digit
    printed: 12 significant digits on most lines, 7 in the joint law.
    """
    named = dict(re.findall(r"^\s*(packet error|model\d|baseline)\s*: (\S+)", text, re.M))
    numbers, tolerances = [], []
    for match in _FLOAT.finditer(text):
        numbers.append(float(match[0]))
        tolerances.append(2 * 10.0 ** (int(match[2] or 0) - len(match[1])))
    return {
        "numbers": numbers,
        "tolerances": tolerances,
        "packet": float(named["packet error"]),
        "models": {k: float(v) for k, v in named.items() if k != "packet error"},
    }


def check_oracle(label: str, text: str, reference: dict) -> list:
    """Oracle output against recorded numbers; on B, models 1 and 3 against it."""
    got = parse_oracle(text)
    failures = []
    want = reference["numbers"]
    if len(got["numbers"]) != len(want):
        failures.append(f"oracle {label}: {len(got['numbers'])} numbers, expected {len(want)}")
    for i, (x, y, tolerance) in enumerate(zip(got["numbers"], want, got["tolerances"])):
        if not abs(x - y) <= tolerance:
            failures.append(f"oracle {label}: number {i} is {x!r}, recorded {y!r}")
    for model in reference.get("exact_models", ()):
        gap = abs(got["models"][model] - got["packet"])
        if not gap <= EXACT_ATOL:
            failures.append(f"oracle {label}: {model} is {gap:.3g} from the exact packet error")
    return failures
