"""Write perfbench/reference.json, the values the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a checkout, on a commit whose outputs are trusted.
It records the sha256 of the analytic-grid CSV, the analytic rows of
mc-compare, every number the oracle prints for instances A and B, and,
for each c > 0 point of mc-compare, a long Monte Carlo run on compare
seed 0 (a seed the benchmark never uses) with its standard error.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math

from run import import_program
from workloads import (
    MC_BERS, MC_CODE, MC_NACFS, MC_PAIR, ORACLE_INSTANCES, REFERENCE_PATH,
    Workload, oracle_argv, parse_oracle, scratch_cwd,
)

REFERENCE_PACKETS = 2_000_000  # packets of each long Monte Carlo run
REFERENCE_WORKERS = 2  # the loss count does not depend on it


def main():
    main_ = import_program().cli.main
    reference = {}
    with scratch_cwd():
        done = Workload("analytic-grid", 0, reference={}).run(main_)
        reference["analytic-grid"] = {"csv_sha256": hashlib.sha256(done.files["out.csv"]).hexdigest()}

        done = Workload("mc-compare", 0, packets=1000, reference={}).run(main_)
        analytic = {}
        for row in csv.DictReader(io.StringIO(done.files["out.csv"].decode())):
            if row["model"] not in ("mc", "baseline"):
                analytic.setdefault(row["model"], {})[f"{row['p_E']},{row['c']}"] = float(row["p"])

        long_run = [
            "simulate", "--code", ",".join(map(str, MC_CODE)), "--pair", ",".join(map(str, MC_PAIR)),
            "--ber", ",".join(map(str, MC_BERS)),
            "--nacf", ",".join(str(c) for c in MC_NACFS if c > 0),
            "--packets", str(REFERENCE_PACKETS), "--workers", str(REFERENCE_WORKERS), "--seed", "0",
            "--quiet", "--csv", "long.csv", "--report", "long.json",
        ]
        if main_(long_run):
            raise SystemExit("error: long Monte Carlo run failed")
        mc = {}
        with open("long.csv") as handle:
            for row in csv.DictReader(handle):
                p_hat = float(row["p_hat"])
                mc[f"{row['p_E']},{row['c']}"] = {
                    "p_hat": p_hat,
                    "se": math.sqrt(p_hat * (1.0 - p_hat) / REFERENCE_PACKETS),
                    "packets": REFERENCE_PACKETS,
                    "compare_seed": 0,
                }
        reference["mc-compare"] = {"analytic": analytic, "mc": mc}

        reference["exact-oracle"] = {}
        for label, spec in ORACLE_INSTANCES.items():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                main_(oracle_argv(spec))
            entry = {"numbers": parse_oracle(text.getvalue())["numbers"]}
            if spec["depth"] <= 2 and spec["blocks"] == 1:
                entry["exact_models"] = ["model1", "model3"]
            reference["exact-oracle"][label] = entry

    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
