"""Self-test of tools/csv_digests.py on a small command subset."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("csv_digests", ROOT / "tools" / "csv_digests.py")
csv_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_digests)

COMMANDS = (
    "power --regime null --grid-n 20 --grid-p 2 --grid-q 2 --trials 20 --perms 19",
    "divergence --n 200 --p 10 --q 10",
    # Both exit 3 with empty stdout; only their stderr lines differ.
    "divergence --n 8000 --p 200 --q 1000 --b 3",
    "divergence --n 10 --p 3 --q 3 --b 1e300",
    f"bound --config {csv_digests.CONFIG_DIR}/see.cfg",
)


def _record():
    return csv_digests.digests(COMMANDS, seeds=(0, 1), names=("mc_level",), request_seeds=(0,), requests=1)


def test_two_runs_agree_and_an_edited_digest_is_reported(tmp_path, capsys):
    first, second = _record(), _record()
    assert json.dumps(first) == json.dumps(second)
    assert list(first) == ["openblas core", "numpy"] + [
        f"{command} --seed {seed}" for command in COMMANDS for seed in (0, 1)
    ] + ["request mc_level seed=0 index=0"]
    assert first["openblas core"] == csv_digests.openblas_core()
    assert first["numpy"] == np.__version__
    assert first[f"{COMMANDS[2]} --seed 0"] != first[f"{COMMANDS[3]} --seed 0"]
    # The config file was written, and its entry is parsed as the flag is;
    # the two runs' scratch directories differ, yet their records agree.
    assert first[f"{COMMANDS[4]} --seed 0"] == csv_digests.command_digest(["bound", "--see=3", "--seed", "0"])
    same, edited = tmp_path / "same.json", tmp_path / "edited.json"
    same.write_text(json.dumps(first))
    name = f"{COMMANDS[1]} --seed 1"
    edited.write_text(json.dumps({**second, name: "0" * 64}))
    assert csv_digests.main(["--compare", str(same), str(same)]) == 0
    assert capsys.readouterr().out == ""
    assert csv_digests.main(["--compare", str(same), str(edited)]) == 1
    assert capsys.readouterr().out == name + "\n"
    # Across hosts the core type, the likely cause, is named first.
    other_host = tmp_path / "other_host.json"
    other_host.write_text(json.dumps({**second, name: "0" * 64, "openblas core": "Other"}))
    assert csv_digests.main(["--compare", str(same), str(other_host)]) == 1
    assert capsys.readouterr().out == f"openblas core\n{name}\n"
