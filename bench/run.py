"""gaitpipe benchmark: seeded sessions through `gaitpipe process`, checked against truth.

    python3 bench/run.py --workload clinic_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; gaitpipe is imported from its
`src/`. Set-up generates the workload's inputs from the seed (several
times, in fresh processes, to time it). Then one fresh process runs
`gaitpipe process` over each session file on its own, round after round,
for --seconds. With --trace 1 the runs instead alternate between plain
and traced runs over the whole input directory, each in a fresh process,
and the per-layer table replaces the end-to-end metrics. The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from child import tree_sha256
from hostspeed import NOMINAL_S
from score import accuracy, check_bundle
from tracing import per_layer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUPS = 3            # set-up repeats; setup_s is their median
MIN_RUNS = 2          # traced (and plain) whole-directory runs, at least
DEADLINE_S = 160.0    # stop starting new runs or calls after this much wall time

# BLAS/OpenMP pools pinned to one thread: runs stay serial on small boxes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=max(1.0, deadline + 15.0 - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark run: set-ups, then the timed phase or the traced runs."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.bundle_hashes: set[str] = set()
        self.score: dict | None = None

    def setup(self) -> list[dict]:
        setups = []
        for k in range(SETUPS):
            out = self.work / f"setup{k}"
            setups.append(_child(["setup", "--workload", self.args.workload,
                                  "--seed", str(self.args.seed), "--out", str(out)], self.deadline))
            if k:
                shutil.rmtree(out)
        if len({s["inputs_sha256"] for s in setups}) != 1:
            self.problems.append("the same seed generated different inputs")
        self.inputs = self.work / "setup0"
        self.expect = json.loads((self.inputs / "expect.json").read_text())
        self.session_s = sum(info["session_s"] for info in self.expect.values())
        self.mode = next(iter(self.expect.values()))["mode"]
        return setups

    def process(self, kind: str, k: int) -> dict:
        """One fresh-process `gaitpipe process` run, gated and scored."""
        out = self.work / f"{kind}{k}"
        argv = [kind, "--input", str(self.inputs / "inputs"), "--out", str(out),
                "--mode", self.mode]
        if kind == "trace":
            spans = ROOT / ".bench_work" / "spans" / f"{self.args.workload}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            argv += ["--spans", str(spans)]
        result = _child(argv, self.deadline)
        records, failed = check_bundle(out, self.expect, result["exit_code"])
        self.attempted += len(self.expect)
        self.failed += len(failed)
        if failed:
            self.problems.append(f"{kind} run {k}: sessions failed the gate: {', '.join(failed)}")
        self.bundle_hashes.add(tree_sha256(out))
        if self.score is None:
            self.score = accuracy(records, self.inputs / "truth", self.expect)
        shutil.rmtree(out)
        return result

    def keep_going(self, runs: int, last_s: float) -> bool:
        now = time.monotonic()
        if now + last_s > self.deadline:
            return False
        return runs < MIN_RUNS or now - self.timed_start < self.args.seconds

    def timed(self) -> dict[str, list[dict]]:
        """The timed phase: every `gaitpipe process` call, gated, by session."""
        out = self.work / "timed"
        seconds = min(self.args.seconds, self.deadline - time.monotonic())
        result = _child(["timed", "--input", str(self.inputs / "inputs"), "--out", str(out),
                         "--mode", self.mode, "--seconds", repr(max(seconds, 0.0))], self.deadline)
        self.peak_rss_mb = result["peak_rss_mb"]
        calls: dict[str, list[dict]] = defaultdict(list)
        hashes: dict[str, set[str]] = defaultdict(set)
        records = {}
        for call in result["calls"]:
            stem = call["stem"]
            call_out = out / str(call["round"]) / stem
            got, failed = check_bundle(call_out, {stem: self.expect[stem]}, call["exit_code"])
            self.attempted += 1
            self.failed += len(failed)
            if failed:
                self.problems.append(f"round {call['round']}: {stem} failed the gate")
            hashes[stem].add(tree_sha256(call_out))
            if call["round"] == 0:
                records.update(got)
            calls[stem].append(call)
        if any(len(h) != 1 for h in hashes.values()):
            self.problems.append("repeated runs over the same inputs wrote different bundles")
        self.bundle_hash = tree_sha256(out / "0")
        self.score = accuracy(records, self.inputs / "truth", self.expect)
        shutil.rmtree(out)
        return calls

    def measure(self) -> tuple[dict, list[str]]:
        setups = self.setup()
        missing: list[str] = []
        if not self.args.trace:
            metrics = self.end_to_end(setups, self.timed())
        else:
            self.timed_start = time.monotonic()
            plain, traced, last_s = [], [], 0.0
            while self.keep_going(len(plain), last_s):
                t = time.monotonic()
                plain.append(self.process("process", len(plain)))
                traced.append(self.process("trace", len(traced)))
                last_s = time.monotonic() - t
            if len(self.bundle_hashes) != 1:
                self.problems.append("repeated runs over the same inputs wrote different bundles")
            self.bundle_hash = min(self.bundle_hashes)
            metrics, missing = self.per_layer(setups, plain, traced)
        if self.score["step_mae_pct"] is None:
            self.problems.append("no expected walk was measured")
        return metrics, missing

    def end_to_end(self, setups: list[dict], calls: dict[str, list[dict]]) -> dict:
        # Times are scaled to the nominal host (hostspeed.py), call by call,
        # and each session counts with its median scaled call.
        mae = self.score["step_mae_pct"]
        self.rtf_raw = self.session_s / sum(
            statistics.median(c["cpu_s"] for c in v) for v in calls.values())
        self.rounds = min(len(v) for v in calls.values())
        scaled_s = sum(statistics.median(c["cpu_s"] * NOMINAL_S / c["ref_s"] for c in v)
                       for v in calls.values())
        return {
            "realtime_factor": self.session_s / scaled_s,
            "setup_s": statistics.median([s["setup_s"] * NOMINAL_S / s["ref_s"] for s in setups]),
            "peak_rss_mb": self.peak_rss_mb,
            "step_accuracy_pct": None if mae is None else 100.0 - mae,
            "detection_rate": self.score["detection_rate"],
            "sessions_ok_frac": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self, setups, plain, traced) -> tuple[dict, list[str]]:
        missing = sorted({name for r in traced for name in r["missing"]})
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            self.problems.append("traced runs of one seed gave different counts")
        tables = [per_layer(r["total_s"], r["self_s"], r["counts"], missing) for r in traced]
        # Counts repeat exactly (checked above); times are medians over the traced runs.
        metrics = {
            name: tables[0][name] if UNITS[name] in ("count", "bytes")
            else statistics.median([t[name] for t in tables])
            for name in tables[0]
        }
        metrics["pointcloud.write_s"] = statistics.median([s["write_s"] for s in setups])
        metrics["simulator.simulate_s"] = statistics.median([s["simulate_s"] for s in setups])
        metrics["simulator.points_generated"] = setups[0]["points_generated"]
        metrics["trace.process_s"] = statistics.median([r["cpu_s"] for r in traced])
        metrics["trace.overhead_frac"] = (
            metrics["trace.process_s"] / statistics.median([r["cpu_s"] for r in plain]) - 1.0)
        return metrics, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gaitpipe" / "__init__.py").is_file():
        print(f"error: no gaitpipe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args)
    try:
        metrics, missing = run.measure()
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(run.expect)} session(s), "
          f"{run.session_s:.1f} session-s, {run.attempted} session run(s) "
          f"in {time.monotonic() - run.start:.1f} s wall")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!s:>24} {UNITS[name]}")
    print(f"  step_mae_pct (walk-level)        {run.score['step_mae_pct']!s:>24} %")
    if not args.trace:
        print(f"  realtime_factor in unscaled CPU time: {run.rtf_raw:.4g} s/s "
              f"(every session ran {run.rounds} time(s) or more)")
    print(f"  walks detected / expected        {run.score['detected']:>12} / {run.score['expected']}")
    print(f"  bundle_sha256 {run.bundle_hash}")
    if missing:
        print(f"  missing (not traced): {', '.join(missing)}")
    if None in metrics.values():
        run.problems.append("a metric could not be computed")
    for problem in run.problems:
        print(f"  FAIL: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items() if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
