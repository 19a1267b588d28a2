"""Every file the command line writes for a fixed matrix of commands, pinned
by its SHA-256 digest, so a change that should move no output byte shows
each file it moved.

Run this file as a script to record ``tests/data/output_digests.json`` from
this checkout.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    # the fixture recorder runs as a script: record from this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ghznetsim import cli

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"

# each command writes into its own empty --out directory
MATRIX = {
    "run-grid4": ("run", "--protocol", "mp-t,mp-s,sp-t,sp-s", "--grid", "4",
                  "--p", "0.2,0.4", "--Qc", "1,3,8", "--user-sets", "2",
                  "--successes", "5", "--max-timeslots", "3000",
                  "--trial-log", "all"),
    "run-explicit-users": ("run", "--protocol", "mp-t,sp-s", "--grid", "5",
                           "--users", "0,4,20,24", "--p", "0.3", "--Qc", "2,6",
                           "--successes", "5"),
    # p=0.02 exhausts the budget, so some user sets are skipped
    "run-skipped-sets": ("run", "--protocol", "sp-t,mp-t", "--grid", "3",
                         "--p", "0.02", "--Qc", "1,2", "--user-sets", "3",
                         "--successes", "3", "--max-timeslots", "300"),
    "distance": ("distance", "--protocol", "mp-t,sp-t", "--grid", "2,3",
                 "--p", "0.5", "--Qc", "1-3", "--successes", "5",
                 "--max-timeslots", "2000", "--floor", "0.5"),
    # into an empty --out, so pareto runs its own sweep first
    "pareto": ("pareto", "--protocol", "mp-t,mp-s,sp-t,sp-s", "--grid", "4",
               "--p", "0.3", "--Qc", "1,3,8", "--user-sets", "2",
               "--successes", "5", "--max-timeslots", "3000"),
    # dense live graphs: every success is routed on the link state, so its
    # trial log pins each mp route
    "run-routed": ("run", "--protocol", "mp-t,mp-s", "--grid", "6", "--p", "0.2",
                   "--Qc", "13,20", "--users", "4,9,13,16", "--w0", "0.987",
                   "--delta", "0.99", "--successes", "20", "--trial-log", "all"),
}


def platform_info() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "libc": list(platform.libc_ver())}


def output_digests(root: Path) -> dict:
    """Exit code of every command in the matrix and the digest of every
    file it wrote, keyed ``<command>/<file>``."""
    exit_codes, files = {}, {}
    for name, argv in MATRIX.items():
        out = root / name
        exit_codes[name] = cli.main([*argv, "--workers", "1", "--out", str(out)])
        for path in sorted(out.rglob("*")):
            if path.is_file():
                key = f"{name}/{path.relative_to(out).as_posix()}"
                files[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"platform": platform_info(), "exit_codes": exit_codes, "files": files}


def test_output_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = output_digests(tmp_path)
    if got["platform"] == want["platform"]:
        where = "on the platform they were recorded on"
    else:
        where = f"recorded on {want['platform']}, run on {got['platform']}"
    assert got["exit_codes"] == want["exit_codes"], where
    changed = sorted(key for key in want["files"].keys() | got["files"].keys()
                     if want["files"].get(key) != got["files"].get(key))
    assert not changed, f"{len(changed)} output files differ ({where}): {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = output_digests(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
