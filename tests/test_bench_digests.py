"""The oracle-verify workload's seed-1 output, byte for byte, as a tier-1 check.

``bench/run.py`` compares each command's stdout and exit code against the
SHA-256 digests committed in ``bench/expected/seed1.json``.  This test
generates the same 28 commands from ``bench/workloads.py``, runs them
through ``cli.main`` and hashes them the same way, so a change to the
oracle's output fails here without running the benchmark.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from loopspace import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # the dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads


def test_oracle_verify_seed_1_matches_the_committed_digests():
    workloads = load_workloads()
    commands = workloads.generate("oracle-verify", 1).commands
    expected = json.loads((BENCH / "expected" / "seed1.json").read_text(encoding="utf-8"))
    digests = []
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
        digest = hashlib.sha256(out.getvalue().encode())
        digest.update(f"\nexit {code}".encode())
        digests.append(digest.hexdigest())
    assert len(digests) == 28
    assert digests == expected["oracle-verify"]
