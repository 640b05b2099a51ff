"""Benchmark for the loopspace CLI: seeded workloads run in-process, one client.

    python3 bench/run.py --workload expand-long --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each run generates its commands from ``--seed`` and calls
``loopspace.cli.main(argv)`` over whole passes of the command pool, one
command at a time, until the passes have taken ``--seconds``.  Spread
over those passes, it sets up several times (importing ``loopspace``,
generating, writing the catalog and one warm-up pass that checks every
output).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same passes untraced and then traced, and reports
the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"
DEFAULT_SEED = 1
SETUP_REPEATS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Metric names and units, in BENCHMARK.json's order: end-to-end for
# --trace 0, per-layer for --trace 1.
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[section]}
         for trace, section in ((0, "end_to_end"), (1, "per_layer"))}


class Runner:
    """Runs the pool's commands through ``cli.main`` and checks each output.

    The first run of a command gets the full check (and, for the default
    seed, the committed digest); later runs must reproduce its digest
    byte for byte.
    """

    def __init__(self, workload, catalog_path: Path, expected: list[str] | None):
        self.commands = workload.commands
        self.argvs = [
            [str(catalog_path) if a == workloads.CATALOG_PLACEHOLDER else a for a in c.argv]
            for c in workload.commands
        ]
        self.expected = expected
        self.digests: list[str | None] = [None] * len(self.commands)
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.check_seconds = 0.0
        self.cli = None

    def run(self, i: int) -> float:
        """Run command i once; return its latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(self.argvs[i])
        except Exception as exc:  # a command that crashes fails; the run goes on
            code = f"raised {exc!r}"
        latency = time.perf_counter() - start
        check_start = time.perf_counter()
        text = out.getvalue()
        self.attempted += 1
        self.output_bytes += len(text)
        digest = hashlib.sha256(text.encode())
        digest.update(f"\nexit {code}".encode())
        digest = digest.hexdigest()
        if self.digests[i] is None:
            problem = self._first_check(i, code, text, digest)
            if problem is None:
                self.digests[i] = digest
            else:
                self.failed += 1
                print(f"FAIL {' '.join(self.argvs[i])}: {problem} {err.getvalue().strip()}", file=sys.stderr)
        elif digest != self.digests[i]:
            self.failed += 1
            print(f"FAIL {' '.join(self.argvs[i])}: output changed between runs", file=sys.stderr)
        self.check_seconds += time.perf_counter() - check_start
        return latency

    def _first_check(self, i: int, code: int, text: str, digest: str) -> str | None:
        try:
            problem = self.commands[i].check(code, text)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unparseable output ({exc!r})"
        if problem is None and self.expected is not None and (
                i >= len(self.expected) or digest != self.expected[i]):
            problem = "output differs from the committed digest"
        return problem

    def one_pass(self) -> list[float]:
        return [self.run(i) for i in range(len(self.commands))]


def import_loopspace():
    """Import the package afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "loopspace" or m.startswith("loopspace.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("loopspace.cli")
    return sys.modules["loopspace"]


def set_up(name: str, seed: int, tiny: bool, runner: Runner | None, expected: list[str] | None):
    """One timed set-up; returns (seconds, runner, loopspace package).

    The output checks of the warm-up pass are not part of the time.
    """
    start = time.perf_counter()
    loopspace = import_loopspace()
    workload = workloads.generate(name, seed, tiny)
    OUT_DIR.mkdir(exist_ok=True)
    catalog_path = OUT_DIR / f"catalog-{name}-seed{seed}.json"
    catalog_path.write_text(json.dumps(workload.catalog), encoding="utf-8")
    if runner is None:
        runner = Runner(workload, catalog_path, expected)
    runner.cli = loopspace.cli
    checks_before = runner.check_seconds
    runner.one_pass()
    elapsed = time.perf_counter() - start - (runner.check_seconds - checks_before)
    return elapsed, runner, loopspace


def load_expected(name: str, seed: int, tiny: bool) -> list[str] | None:
    path = EXPECTED_DIR / f"seed{seed}.json"
    if tiny or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name)


def timed_pass(runner: Runner) -> tuple[list[float], float]:
    """One pass over the pool: each command's latency, and the pass's
    duration less the time the benchmark spent checking outputs."""
    checks_before = runner.check_seconds
    start = time.perf_counter()
    latencies = runner.one_pass()
    return latencies, time.perf_counter() - start - (runner.check_seconds - checks_before)


def timed_passes(runner: Runner, seconds: float):
    """Whole passes over the pool until the passes have taken ``seconds``.

    Returns per-command latency lists and the duration of each pass.
    """
    latencies = [[] for _ in runner.commands]
    pass_seconds = []
    while sum(pass_seconds) < seconds:
        pass_latencies, duration = timed_pass(runner)
        for runs, latency in zip(latencies, pass_latencies):
            runs.append(latency)
        pass_seconds.append(duration)
    return latencies, pass_seconds


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count): the highest percentile with at
    least ten samples above it, or the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def phase_metrics(latencies, pass_seconds) -> dict:
    samples = [x for runs in latencies for x in runs]
    tail_value, tail_pct, tail_n = tail(samples)
    return {
        "cmds_per_s": len(samples) / sum(pass_seconds),
        "cmd_p50_ms": 1000 * statistics.median(samples),
        "cmd_tail_ms": 1000 * tail_value,
        "tail_percentile": tail_pct,
        "tail_samples": tail_n,
        "passes": len(pass_seconds),
        "commands": len(latencies),
    }


def layer_metrics(total, self_time, one_pass: dict, pool_size: int, commands: int) -> dict:
    """Per-command figures: times over every traced command, counts from one
    pass (every pass counts the same) over the pool's size."""

    def ms(ns: int) -> float:
        return ns / 1e6 / commands

    calls, counts, maxima = one_pass["calls"], one_pass["counts"], one_pass["maxima"]

    def per_cmd(name: str) -> float:
        return calls.get(name, 0) / pool_size

    def ratio(part: str, whole: str) -> float:
        return counts.get(part, 0) / calls[whole] if calls.get(whole) else 0.0

    return {
        "cli.self_ms": ms(self_time["cli.main"]),
        "spaceexpr.parse_space.ms": ms(total["spaceexpr.parse_space"]),
        "spaceexpr.evaluate.self_ms": ms(self_time["spaceexpr.evaluate"]),
        "spaces.load_catalog.ms": ms(total["spaces.load_catalog"]),
        "spaces.union_series.self_ms": ms(self_time["spaces.union_series"]),
        "formulas.loop_series.self_ms": ms(self_time["formulas.loop_series"]),
        "formulas.euler_series.self_ms": ms(
            self_time["formulas.euler_series_e1"] + self_time["formulas.euler_series_einf"]),
        "gfcore.poly_gcd.calls": per_cmd("gfcore.poly_gcd"),
        "gfcore.poly_gcd.ms": ms(total["gfcore.poly_gcd"]),
        "gfcore.poly_gcd.max_degree": maxima.get("gfcore.poly_gcd.max_degree", 0),
        "gfcore.poly_gcd.max_coeff_bits": maxima.get("gfcore.poly_gcd.max_coeff_bits", 0),
        "gfcore.poly_gcd.nontrivial_ratio": ratio("gfcore.poly_gcd.nontrivial", "gfcore.poly_gcd"),
        "gfcore.normalized.self_ms": ms(self_time["gfcore.normalized"]),
        "gfcore.equal.self_ms": ms(self_time["gfcore.equal"]),
        "gfcore.expand.calls": per_cmd("gfcore.expand"),
        "gfcore.expand.terms": counts.get("gfcore.expand.terms", 0) / pool_size,
        "gfcore.expand.self_ms": ms(self_time["gfcore.expand"]),
        "gfcore.expand.max_coeff_bits": maxima.get("gfcore.expand.max_coeff_bits", 0),
        "combinatorics.loop_series_oracle.self_ms": ms(self_time["combinatorics.loop_series_oracle"]),
        "combinatorics.fat_diagonal_betti.calls": per_cmd("combinatorics.fat_diagonal_betti"),
        "combinatorics.fat_diagonal_betti.self_ms": ms(self_time["combinatorics.fat_diagonal_betti"]),
        "combinatorics.fat_diagonal_betti.zero_ratio": ratio(
            "combinatorics.fat_diagonal_betti.zero", "combinatorics.fat_diagonal_betti"),
        "combinatorics.smash_power_betti.calls": per_cmd("combinatorics.smash_power_betti"),
        "combinatorics.smash_power_betti.self_ms": ms(self_time["combinatorics.smash_power_betti"]),
    }


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "loopspace" / "__init__.py").is_file():
        print(f"error: no loopspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    expected = None if args.record_expected else load_expected(args.workload, args.seed, args.tiny)
    # The untraced passes take all of --seconds, or a third in a traced run,
    # whose other two thirds go to pairs of an untraced and a traced pass.
    phase_seconds = args.seconds / 3 if args.trace else args.seconds
    # The set-ups are spread over the untraced phase, each followed by its
    # share of the passes, so that set-up and passes see the machine alike.
    setups, latencies, pass_seconds = [], None, []
    runner = None
    for k in range(1, SETUP_REPEATS + 1):
        seconds, runner, loopspace = set_up(args.workload, args.seed, args.tiny, runner, expected)
        setups.append(seconds)
        share, share_seconds = timed_passes(runner, phase_seconds * k / SETUP_REPEATS - sum(pass_seconds))
        latencies = share if latencies is None else [a + b for a, b in zip(latencies, share)]
        pass_seconds += share_seconds
    untraced = phase_metrics(latencies, pass_seconds)
    result = {"environment": environment(args), "setup_seconds": setups, "untraced": untraced}
    count_problems = []
    if args.trace:
        metrics, extra, count_problems = traced_phase(args, runner, loopspace, phase_seconds)
        result.update(extra)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "cmds_per_s": untraced["cmds_per_s"],
            "cmd_p50_ms": untraced["cmd_p50_ms"],
            "cmd_tail_ms": untraced["cmd_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = UNITS[args.trace]
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not compute: {missing}", file=sys.stderr)
        return 2
    error_ratio = runner.failed / runner.attempted
    correct = runner.failed == 0 and not count_problems

    print(f"environment: {json.dumps(result['environment'])}")
    for name, unit in units.items():
        note = ""
        if name == "cmd_tail_ms":
            note = f"  (p{untraced['tail_percentile']:.1f} of {untraced['tail_samples']} samples)"
        print(f"{args.workload} {name}: {metrics[name]:.6g} {unit}{note}")
    print(f"{args.workload} error_ratio: {error_ratio:.6g} ({runner.failed}/{runner.attempted} commands)")
    for problem in count_problems:
        print(f"count mismatch: {problem}", file=sys.stderr)

    result.update(metrics=metrics, error_ratio=error_ratio, attempted=runner.attempted,
                  failed=runner.failed, correct=correct)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.record_expected:
        record_expected(args, runner)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def traced_phase(args, runner: Runner, loopspace, seconds: float):
    """Traced passes, each after an untraced one, until the traced passes
    have taken ``seconds``; returns the per-layer metrics, extra figures
    for the result file, and any pass whose counts differ.

    Pairing the passes makes the tracing overhead compare passes that the
    machine, whose speed drifts over seconds to minutes, ran alike.
    """
    tracer = tracing.Tracer()
    table = tracing.layer_table(loopspace)
    per_pass, untraced_seconds, traced_seconds = [], [], []
    bytes_before = runner.output_bytes
    origin = time.perf_counter_ns()
    while sum(traced_seconds) < seconds:
        untraced_seconds.append(timed_pass(runner)[1])
        tracer.install(table)
        try:
            traced_seconds.append(timed_pass(runner)[1])
        finally:
            tracer.remove()
        per_pass.append(tracer.pass_counts())
    problems = [f"pass {i} counted {counts}, pass 1 counted {per_pass[0]}"
                for i, counts in enumerate(per_pass[1:], start=2) if counts != per_pass[0]]
    pool = len(runner.commands)
    commands = len(traced_seconds) * pool
    untraced_rate = commands / sum(untraced_seconds)
    traced_rate = commands / sum(traced_seconds)
    total, self_time = tracer.layer_times()
    metrics = layer_metrics(total, self_time, per_pass[0], pool, commands)
    metrics.update({
        "cli.output_bytes": (runner.output_bytes - bytes_before) / (2 * commands),
        "trace.untraced_cmds_per_s": untraced_rate,
        "trace.traced_cmds_per_s": traced_rate,
        "trace.overhead_ratio": 1 - traced_rate / untraced_rate,
    })
    whole = sum(self_time.values()) or 1
    shares = {k: v / whole for k, v in sorted(self_time.items(), key=lambda kv: -kv[1])}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.jsonl"
    tracer.write_spans(spans_path, origin)
    print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:5]))
    print(f"tracing overhead: {metrics['trace.overhead_ratio']:.1%} of untraced "
          f"{untraced_rate:.4g} cmds/s (traced {traced_rate:.4g} cmds/s)")
    extra = {"traced_passes": len(traced_seconds), "pass_counts": per_pass[0], "self_shares": shares,
             "spans_file": spans_path.name}
    return metrics, extra, problems


def record_expected(args, runner: Runner) -> None:
    """Store the digests of this seed's outputs as the committed reference."""
    if args.tiny or runner.failed or None in runner.digests:
        print("not recording: tiny run or failed commands", file=sys.stderr)
        return
    path = EXPECTED_DIR / f"seed{args.seed}.json"
    EXPECTED_DIR.mkdir(exist_ok=True)
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data[args.workload] = runner.digests
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), in turn.

    Exits non-zero if any workload failed or gave a wrong output."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.GENERATORS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            merged["correct"] = False
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = proc.returncode
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's output digests as the reference for its seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
