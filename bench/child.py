"""One measured step of the benchmark, run in a fresh process by run.py.

    child.py setup   --workload W --seed N --out DIR
    child.py timed   --input DIR --out DIR --mode M --seconds S
    child.py process --input DIR --out DIR --mode M
    child.py trace   --input DIR --out DIR --mode M --spans FILE

Each prints one JSON object as its last stdout line. `setup` times
importing gaitpipe plus generating and writing the workload's inputs;
`timed` runs `gaitpipe process` over each session file on its own, round
after round, timing every call, and reports the peak RSS of a process that
never ran the simulator; `process` runs it once over the whole directory,
as the untraced base of `trace`, which runs the same command with spans
recorded around gaitpipe's public functions.

Times are CPU seconds of the process (user + system). The benchmark's
runs are single-threaded and CPU-bound, so on an idle machine this equals
wall time; on a shared one it leaves out the time other tenants held the
core. `setup` and `timed` also report the reference unit's time
(`hostspeed.py`), sampled while they ran, which run.py scales them by.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
REF_GAP_S = 0.25     # CPU s between two timings of the reference unit


def _import_gaitpipe() -> None:
    import gaitpipe

    if Path(gaitpipe.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"gaitpipe imported from {gaitpipe.__file__}, not from {SRC_DIR}")


def _peak_rss_mb() -> float:
    # VmHWM covers this process image only; ru_maxrss also counts the
    # parent's pages inherited through fork.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_sha256(root: Path) -> str:
    """Hash of every file under root, by relative path and content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class _HostSampler:
    """Times the reference unit every REF_GAP_S of this process's CPU time.

    A SIGPROF timer runs the unit wherever the process is, inside
    `gaitpipe process` calls too, so a long call is sampled along its
    whole length and not only at its ends. The unit's own CPU time is
    kept in `spent`, for the caller to take out of the call it fell in.
    """

    def __init__(self):
        # Imported here, not at the top: it imports numpy, whose import
        # time belongs to set-up's clock.
        from hostspeed import reference_s

        self._reference_s = reference_s
        self.samples: list[tuple[float, float]] = []  # (process CPU time after, unit s)
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        ref = self._reference_s(1)
        self.spent += ref
        self.samples.append((time.process_time(), ref))

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_GAP_S, REF_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def around(self, c0: float, c1: float) -> float:
        """Median unit time of the samples taken within REF_GAP_S of [c0, c1]."""
        return statistics.median(
            ref for at, ref in self.samples if c0 - REF_GAP_S <= at <= c1 + REF_GAP_S)


def cmd_setup(args) -> dict:
    c0 = time.process_time()
    _import_gaitpipe()
    from gaitpipe.pointcloud import write_session
    from gaitpipe.segmenter import write_walklog
    from gaitpipe.simulator import simulate, write_truth

    import scenes

    out = Path(args.out)
    inputs, truth_dir = out / "inputs", out / "truth"
    inputs.mkdir(parents=True)
    truth_dir.mkdir()
    simulate_s = write_s = 0.0
    points = 0
    expect = {}
    with _HostSampler() as host:
        for case in scenes.build(args.workload, args.seed):
            t, spent = time.process_time(), host.spent
            session, truth = simulate(case.scene)
            simulate_s += time.process_time() - t - (host.spent - spent)
            points += sum(len(f.points) for f in session.frames)
            t, spent = time.process_time(), host.spent
            write_session(session, inputs / f"{case.stem}.session.jsonl")
            write_s += time.process_time() - t - (host.spent - spent)
            if case.mode == "clinic":
                write_walklog(case.scene.walklog, inputs / f"{case.stem}.walklog.json")
            write_truth(truth, truth_dir / f"{case.stem}.truth.jsonl")
            expect[case.stem] = {
                "mode": case.mode,
                "session_s": len(session.frames) / session.frame_rate,
                "expected": list(case.expected),
            }
        (out / "expect.json").write_text(json.dumps(expect, indent=1, sort_keys=True) + "\n")
        setup_s = time.process_time() - c0 - host.spent
    return {
        "setup_s": setup_s,
        "ref_s": statistics.median(ref for _, ref in host.samples),
        "simulate_s": simulate_s,
        "write_s": write_s,
        "points_generated": points,
        "inputs_sha256": tree_sha256(out),
    }


def _process_argv(args) -> list[str]:
    return ["process", "--input", args.input, "--mode", args.mode, "--out", args.out,
            "--jobs", "1"]


def cmd_timed(args) -> dict:
    """`gaitpipe process` over one session file at a time, in rounds, for --seconds.

    Every call writes its own bundle under <out>/<round>/<stem>. The first
    round always runs whole. After it, the rounds stop at the first call
    that its session's previous call says would end past --seconds, so
    the last round may be partial and the phase ends on time. Each call
    reports its CPU seconds without the reference units that ran inside
    it, and the median reference time around it.
    """
    _import_gaitpipe()
    from gaitpipe.cli import main

    sessions = sorted(Path(args.input).glob("*.session.jsonl"))
    stop = time.monotonic() + args.seconds
    calls, last_wall, rnd, done = [], {}, 0, False
    with _HostSampler() as host:
        while not done:
            for path in sessions:
                stem = path.name.removesuffix(".session.jsonl")
                if rnd and time.monotonic() + last_wall[stem] > stop:
                    done = True
                    break
                argv = ["process", "--input", str(path), "--mode", args.mode,
                        "--out", str(Path(args.out) / str(rnd) / stem), "--jobs", "1"]
                with contextlib.redirect_stdout(io.StringIO()):
                    t0, c0, spent0 = time.monotonic(), time.process_time(), host.spent
                    code = main(argv)
                    c1, last_wall[stem] = time.process_time(), time.monotonic() - t0
                calls.append({"round": rnd, "stem": stem, "exit_code": code,
                              "cpu_s": c1 - c0 - (host.spent - spent0), "span": (c0, c1)})
            rnd += 1
    for call in calls:
        call["ref_s"] = host.around(*call.pop("span"))
    return {"calls": calls, "peak_rss_mb": _peak_rss_mb()}


def cmd_process(args) -> dict:
    _import_gaitpipe()
    from gaitpipe.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        t0, c0 = time.perf_counter(), time.process_time()
        code = main(_process_argv(args))
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    return {"exit_code": code, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_mb()}


def cmd_trace(args) -> dict:
    _import_gaitpipe()
    from gaitpipe.cli import main

    from tracing import Recorder

    rec = Recorder()
    rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            code = main(_process_argv(args))
            wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    finally:
        rec.uninstall()
    rec.write_spans(args.spans)
    total, own = rec.times()
    return {
        "exit_code": code,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "total_s": total,
        "self_s": own,
        "counts": dict(rec.counts),
        "missing": rec.missing,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    for name in ("timed", "process", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--mode", required=True)
        if name == "timed":
            p.add_argument("--seconds", type=float, required=True)
        if name == "trace":
            p.add_argument("--spans", required=True)
    args = parser.parse_args()
    handler = {"setup": cmd_setup, "timed": cmd_timed, "process": cmd_process,
               "trace": cmd_trace}[args.cmd]
    print(json.dumps(handler(args)))


if __name__ == "__main__":
    main()
