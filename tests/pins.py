"""The pinned CLI outputs: one table, ``pins.json``, checked by one helper.

Each entry of the table gives a ``name``, the ``argv`` of one burstfec
command, the ``output`` it hashes (``"stdout"``, or a file that the argv
writes, relative to the working directory), that output's ``sha256`` and
a one-line ``why``.  The tier-1 suite runs every entry through
``cli.main``; run as a script, this module runs every entry through the
installed ``burstfec`` command, each in a fresh temporary directory, and
exits 1 when any pin fails:

    python tests/pins.py
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("pins.json")


def load():
    return json.loads(TABLE.read_text())


def mismatch(entry, run, workdir):
    """Why ``entry``'s pin fails, or None when it holds.

    ``run(argv, workdir)`` runs the command in ``workdir`` and returns its
    exit status and its stdout bytes.
    """
    status, stdout = run(entry["argv"], workdir)
    if status != 0:
        return f"exit status {status}"
    output = entry["output"]
    data = stdout if output == "stdout" else (Path(workdir) / output).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        return f"sha256 {digest}, pinned {entry['sha256']}"
    return None


def run_installed(argv, workdir):
    done = subprocess.run(["burstfec", *argv], cwd=workdir, stdout=subprocess.PIPE, check=False)
    return done.returncode, done.stdout


def main():
    failed = 0
    for entry in load():
        with tempfile.TemporaryDirectory() as workdir:
            problem = mismatch(entry, run_installed, workdir)
        print(f"{entry['name']}: {'OK' if problem is None else 'FAILED, ' + problem}")
        failed += problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
