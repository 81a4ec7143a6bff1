"""Record the CSV sha256 digests of a fixed set of indeplab commands, or compare
two such records.

Run from a checkout; the checkout's own ``src/`` is imported, so two checkouts
give two records that can be compared:

    python3 tools/csv_digests.py --out digests.json
    python3 tools/csv_digests.py --compare parent.json change.json

Each command of ``COMMANDS`` runs in-process through ``indeplab.cli.main`` at
each seed of ``SEEDS``, and its stdout, its stderr and its exit code are
hashed together.  The ``CONFIG_FILES`` are written to a scratch directory
first; a command names that directory ``CONFIG_DIR``, and so does its record
name, so that neither depends on the scratch path.  The request digests of
the benchmark workloads (``perfbench/workloads.request``, requests
``range(REQUESTS)`` at each seed of ``REQUEST_SEEDS``) are hashed as the
benchmark worker hashes them: the concatenated ``--out`` files of the
request's calls.  The record is ``{name: sha256}`` as JSON, led by two
entries: ``"openblas core"``, the core type of numpy's OpenBLAS, whose
kernels move ``verify``'s dense-oracle digests, and ``"numpy"``, the version
whose ``einsum`` loops round the stacked dot products.  ``--compare`` prints
the names whose values differ, or that only one record has, and exits 1 if
there are any; across two hosts a differing core or numpy comes first.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402

from indeplab import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

MC = "--trials 40 --perms 39"
MISSING_DIR = "/nonexistent-indeplab-dir"  # a directory that does not exist
CONFIG_DIR = "<config-dir>"  # stands for the scratch directory that holds CONFIG_FILES
CONFIG_FILES = {
    # Both spellings of a key, and a key given twice, whose last value counts.
    "null.cfg": "# a level run\nregime = null\ntrials = 10\ngrid_n = 40\ngrid-p = 3\ngrid-q = 2\n"
                "trials = 40\nperms = 39\n",
    "see.cfg": "see = 3\n",  # a key that is no flag, but a prefix of --seed
}
COMMANDS = (
    "power --regime null --grid-n 50 --grid-p 5 --grid-q 5 --trials 100 --perms 200",
    "power --regime null --grid-n 200 --grid-p 50 --grid-q 50 --trials 30 --perms 200",
    "power --regime null --grid-n 2000 --grid-p 50 --grid-q 50 --trials 5 --perms 200",
    "power --regime lf --grid-n 200 --grid-p 50 --grid-q 50 --trials 30 --perms 200",
    "power --regime lf --b 0 --grid-n 200 --grid-p 50 --grid-q 50 --trials 30 --perms 200",
    f"power --regime lf --b 0.7 --grid-n 40 --grid-p 3,7 --grid-q 2,5 {MC}",
    f"phase --grid-n 40 --grid-p 3 --grid-q 2 --grid-s 0,1,2 {MC}",
    "phase --grid-n 200 --grid-p 10 --grid-q 10 --grid-s 0,25,50 --trials 20 --perms 200",
    # The pooled trial path, whose bytes must equal the serial path's.
    "power --regime null --grid-n 50 --grid-p 5 --grid-q 5 --trials 100 --perms 200 --workers 2",
    "phase --grid-n 200 --grid-p 10 --grid-q 10 --grid-s 0,25,50 --trials 20 --perms 200 --workers 2",
    f"bound --grid-n 8000 --grid-p {workloads.EXACT_DIMS} --grid-q {workloads.EXACT_DIMS}",
    f"bound --grid-n 8000 --grid-p {workloads.EXACT_DIMS} --grid-q {workloads.EXACT_DIMS} "
    f"--b {workloads.EXACT_HIGH_B}",
    # Near the edge a^2 pq = 1, where every command admits a point by one rule.
    "bound --grid-n 1475 --grid-p 32 --grid-q 6 --b 14.591021614803894",
    f"power --regime lf --grid-n 1475 --grid-p 32 --grid-q 6 --b 14.591021614803894 {MC}",
    "bound --grid-n 2702 --grid-p 8 --grid-q 11 --b 24.00142361596202",
    f"power --regime lf --grid-n 2702 --grid-p 8 --grid-q 11 --b 24.00142361596202 {MC}",
    "divergence --n 200 --p 10 --q 10",
    "divergence --n 8000 --p 2000 --q 250 --b 0.8",
    "verify",
    # The failing paths: a point that overflows, a signal that cannot be
    # reached, a failed oracle, and an --out that cannot be opened.
    "divergence --n 8000 --p 200 --q 1000 --b 3",
    f"phase --grid-n 40 --grid-p 3 --grid-q 2 --grid-s 0,50 {MC}",
    "verify --inject-fault",
    f"verify --out {MISSING_DIR}/out.csv",
    f"divergence --n 20 --p 2 --q 2 --out {MISSING_DIR}/out.csv",
    # The config path, a value that breaks one range check, and a flag that the
    # regime does not take.
    f"power --config {CONFIG_DIR}/null.cfg",
    f"bound --config {CONFIG_DIR}/see.cfg",
    "power --perms 0",
    "power --regime null --b 0.5",
)
# 2^64 - 1 is the largest seed the CLI takes: two 32-bit words, and phase's
# per-point seeds past 2^64 take three.
SEEDS = (0, 1, 7, 123, 2**64 - 1)
REQUEST_SEEDS = (0, 7)
REQUESTS = 3


def openblas_core() -> str:
    """The core type numpy's bundled OpenBLAS picked at load, read through the
    numpy extension that links it; "unknown" for a numpy on another BLAS."""
    try:
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def command_digest(argv: list[str]) -> str:
    """sha256 of the command's stdout, stderr and exit code, as a JSON list."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([out.getvalue(), err.getvalue(), code]).encode()).hexdigest()


def request_digest(argvs: list[list[str]], scratch: Path) -> str:
    """sha256 of the request's ``--out`` files, concatenated in call order."""
    blob = b""
    for k, argv in enumerate(argvs):
        path = scratch / f"call{k}.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv + ["--out", str(path)])
        blob += path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
    return hashlib.sha256(blob).hexdigest()


def digests(commands=COMMANDS, seeds=SEEDS, names=workloads.WORKLOADS,
            request_seeds=REQUEST_SEEDS, requests=REQUESTS) -> dict[str, str]:
    """The OpenBLAS core and the numpy version, then {name: sha256} for each
    command at each seed, then each request."""
    record = {"openblas core": openblas_core(), "numpy": np.__version__}
    with tempfile.TemporaryDirectory() as scratch:
        for file_name, text in CONFIG_FILES.items():
            (Path(scratch) / file_name).write_text(text)
        for command in commands:
            for seed in seeds:
                argv = command.split() + ["--seed", str(seed)]
                record[" ".join(argv)] = command_digest([arg.replace(CONFIG_DIR, scratch) for arg in argv])
        for name in names:
            for seed in request_seeds:
                for index in range(requests):
                    argvs = workloads.request(name, seed, index)
                    record[f"request {name} seed={seed} index={index}"] = request_digest(argvs, Path(scratch))
    return record


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Names whose digests differ or that only one record has, in order."""
    return [name for name in {**a, **b} if a.get(name) != b.get(name)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write this checkout's record here")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two records")
    args = ap.parse_args(argv)
    if args.out:
        args.out.write_text(json.dumps(digests(), indent=1) + "\n")
        return 0
    a, b = (json.loads(path.read_text()) for path in args.compare)
    names = differing(a, b)
    for name in names:
        print(name)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
