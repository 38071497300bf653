"""How far the rows of a burstfec CSV moved: the evidence for a declared pin move.

Compares two CSVs of the same grid, row by row, and prints for each
model its row count, the rows whose value fields changed and the
largest relative move among them, |new - old| / |old| over the fields
p, p_hat, ci_lo, ci_hi, rel_err, throughput and residual_corr.  A field
that changes from or to empty, or from 0, moves by inf.  The other
fields (model, p_E, c, n, k, l, I, M, seed) name a row and must agree
in both files.  Exits 0 when no row moved, 1 when some did and 2 when
the files do not hold the same grid:

    python tests/pin_diff.py OLD.csv NEW.csv
"""

import csv
import sys

VALUES = ("p", "p_hat", "ci_lo", "ci_hi", "rel_err", "throughput", "residual_corr")


def read(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def relative_move(old, new):
    """|new - old| / |old| of two differing CSV fields, each a number or empty."""
    if not old or not new or float(old) == 0.0:
        return float("inf")
    return abs(float(new) - float(old)) / abs(float(old))


def moves(old_rows, new_rows):
    """model -> [rows, moved rows, largest relative move] over two grids,
    or a ValueError when the rows do not name the same grid points."""
    if len(old_rows) != len(new_rows):
        raise ValueError(f"{len(old_rows)} rows against {len(new_rows)}")
    table = {}
    for index, (old, new) in enumerate(zip(old_rows, new_rows)):
        if old.keys() != new.keys():
            raise ValueError(f"columns {list(old)} against {list(new)}")
        names = {key: value for key, value in old.items() if key not in VALUES}
        if names != {key: value for key, value in new.items() if key not in VALUES}:
            raise ValueError(f"row {index + 1} is another grid point")
        entry = table.setdefault(old["model"], [0, 0, 0.0])
        entry[0] += 1
        changed = [key for key in VALUES if key in old and old[key] != new[key]]
        if changed:
            entry[1] += 1
            entry[2] = max(entry[2], *(relative_move(old[key], new[key]) for key in changed))
    return table


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/pin_diff.py OLD.csv NEW.csv", file=sys.stderr)
        return 2
    try:
        table = moves(read(argv[0]), read(argv[1]))
    except ValueError as exc:
        print(f"error: not the same grid: {exc}", file=sys.stderr)
        return 2
    print(f"{'model':<10s} {'rows':>6s} {'moved':>6s}  largest relative move")
    for model, (rows, moved, largest) in table.items():
        shown = f"{largest:.3g}" if moved else "-"
        print(f"{model:<10s} {rows:>6d} {moved:>6d}  {shown}")
    return 1 if any(moved for _, moved, _ in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
