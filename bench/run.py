"""End-to-end benchmark of the semimpute CLI on seeded workloads.

    python3 bench/run.py --workload cdc-rows --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nothing needs installing.  Every CLI
operation is a child process launched one at a time (a closed loop with one
client), with BLAS pinned to one thread.  A run repeats whole rounds of the
workload's commands until ``--seconds`` of round time have been measured.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` pairs each
untraced round with a traced one (bench/trace.py) and reports the per-layer
metrics plus the tracing overhead.  ``--workload all`` runs every workload in
turn.  ``--check-threads`` runs each workload's commands once with one and
once with two BLAS threads and compares the artifact digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Timed cold starts before each round; setup_s is the median of all of them.
SETUP_LAUNCHES = 10
CDC_EPOCHS = 20
WIDE_EPOCHS = 1
# At this rate training on the 600-row study table stops on its tolerance
# (552 epochs over the three trials), well before the 500-epoch cap of each.
STUDY_LR = 0.05
STUDY_TRIALS = 3
# The sesa trial masks stay fixed, like the study table (gen.STUDY_SEED):
# the epoch at which training meets its tolerance swings with the mask.
STUDY_MASK_SEED = 0


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    # The operation fails every time because of a known program fault (see
    # README.md): its failure is counted, and does not make the run incorrect.
    known_fault: bool = False


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "cdc-rows":
        return [
            Op("impute", ("impute", "--variables", "variables.json", "--input", "masked.csv",
                          "--sem", "model.sem", "--epochs", str(CDC_EPOCHS), "--out-prefix", "out/cdc")),
        ]
    if workload == "wide-patterns":
        return [
            Op("impute", ("impute", "--variables", "variables.json", "--input", "masked.csv",
                          "--epochs", str(WIDE_EPOCHS), "--out-prefix", "out/wide")),
        ]
    # The knn and mean evaluations draw their masks from the workload seed.
    evaluate = ("evaluate", "--variables", "variables.json", "--truth", "truth.csv")
    return [
        Op("evaluate-sesa", evaluate + ("--method", "sesa", "--trials", str(STUDY_TRIALS), "--mode", "benchmark",
                                        "--sem", "model.sem", "--lr", str(STUDY_LR), "--seed", str(STUDY_MASK_SEED),
                                        "--out-prefix", "out/sesa")),
        Op("evaluate-knn", evaluate + ("--method", "knn", "--trials", str(STUDY_TRIALS), "--seed", str(seed),
                                       "--out-prefix", "out/knn")),
        Op("evaluate-mean", evaluate + ("--method", "mean", "--report-format", "csv", "--seed", str(seed),
                                        "--out-prefix", "out/mean")),
        Op("discover", ("discover", "--variables", "variables.json", "--input", "truth.csv",
                        "--suggest-outcome", "GeneralHealth", "--out-prefix", "out/dag"), known_fault=True),
    ]


WORKLOADS = ("cdc-rows", "wide-patterns", "method-study")


def child_env(threads: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["SEMIMPUTE_THREADS"] = str(threads)
    # Absolute, so a child whose working directory is elsewhere still finds
    # the package; a relative PYTHONPATH from outside must not leak in.
    env["PYTHONPATH"] = str(SRC)
    return env


def helper(script: str, *args: str) -> str:
    """Run a numpy-using part of the benchmark in its own process.

    Input generation and the output checks stay out of this process, whose
    peak RSS every child would otherwise inherit in its rusage.
    """
    proc = subprocess.run([sys.executable, str(BENCH / script), *args], env=child_env(1),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/{script} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def generate(workload: str, seed: int, work: Path) -> None:
    helper("gen.py", "--workload", workload, "--seed", str(seed), "--out", str(work))


def launch(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float, float]:
    """Run one child to its end: (exit code, wall seconds, peak RSS MiB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Round:
    wall: float = 0.0
    peak_rss: float = 0.0
    codes: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def run_round(ops: list[Op], work: Path, threads: int = 1, traced: bool = False) -> Round:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    env = child_env(threads)
    result = Round()
    for op in ops:
        if traced:
            spans = logs / f"{op.name}.spans.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "trace.py"), str(spans), "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "semimpute._entry", *op.argv]
        code, wall, rss = launch(argv, work, env, logs / f"{op.name}.log")
        result.wall += wall
        result.peak_rss = max(result.peak_rss, rss)
        result.codes[op.name] = code
        if traced and spans.exists():
            result.spans.append(json.loads(spans.read_text(encoding="utf-8")))
    for path in sorted(out.rglob("*")):
        if path.is_file():
            result.digests[str(path.relative_to(work))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def measure_setup(work: Path, launches: int) -> list[float]:
    """Wall times of fresh ``semimpute --version`` processes."""
    argv = [sys.executable, "-m", "semimpute._entry", "--version"]
    times = []
    for _ in range(launches):
        code, wall, _ = launch(argv, work, child_env(1), work / "version.log")
        if code != 0:
            raise RuntimeError(f"semimpute --version exited {code}: {(work / 'version.log').read_text()}")
        times.append(wall)
    return times


def failures(ops: list[Op], rnd: Round) -> tuple[int, list[str]]:
    """Failed operations, and problems for those no known fault explains."""
    failed, problems = 0, []
    for op in ops:
        code = rnd.codes[op.name]
        if code == 0:
            continue
        failed += 1
        # Exit 2 and 3 are the CLI's own refusals; anything else is a crash.
        if not (op.known_fault and code in (2, 3)):
            problems.append(f"{op.name} exited {code}")
    return failed, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workload_ops(workload, seed)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        generate(workload, seed, work)
        measure_setup(work, 1)  # warm-up: byte-compiles the package once
        setup: list[float] = []
        plain: list[Round] = []
        traced: list[Round] = []
        problems: list[str] = []
        failed = 0
        nrmse = None
        measured = 0.0
        while measured < seconds:
            setup += measure_setup(work, SETUP_LAUNCHES)
            rounds = [run_round(ops, work)]
            if trace:
                rounds.append(run_round(ops, work, traced=True))
            for rnd in rounds:
                measured += rnd.wall
                n_failed, unexplained = failures(ops, rnd)
                failed += n_failed
                problems += unexplained
                reference = plain[0] if plain else rounds[0]
                if rnd.digests != reference.digests:
                    problems.append("artifacts differ between rounds of one run")
            if not plain:
                ok = ",".join(name for name, code in rounds[0].codes.items() if code == 0)
                found = json.loads(helper("checks.py", "--workload", workload, "--seed", str(seed),
                                          "--work", str(work), "--ok", ok))
                problems += found["problems"]
                nrmse = found["nrmse"]
            plain.append(rounds[0])
            traced += rounds[1:]
        attempted = len(ops) * (len(plain) + len(traced))
        if trace:
            metrics = layers.per_layer_metrics(traced, plain)
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup), "s"),
                "wall_s": metric(statistics.median(r.wall for r in plain), "s"),
                "peak_rss_mib": metric(statistics.median(r.peak_rss for r in plain), "MiB"),
                "imputed_nrmse": metric(nrmse, "1"),
            }
        for problem in dict.fromkeys(problems):
            print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "digests": plain[0].digests,
            "round_walls": [r.wall for r in plain + traced],
        }
    finally:
        remove_work(work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass


def check_threads(workload: str, seed: int) -> bool:
    """One round with one BLAS thread and one with two; digests must match."""
    ops = workload_ops(workload, seed)
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}-threads"
    shutil.rmtree(work, ignore_errors=True)
    try:
        generate(workload, seed, work)
        one = run_round(ops, work, threads=1)
        two = run_round(ops, work, threads=2)
    finally:
        remove_work(work)
    same = one.digests == two.digests and one.codes == two.codes
    print(f"{workload} seed {seed}: {len(one.digests)} artifacts, exit codes {one.codes}, "
          f"1 vs 2 threads {'identical' if same else 'DIFFER'}")
    for name in sorted(set(one.digests) | set(two.digests)):
        if one.digests.get(name) != two.digests.get(name):
            print(f"  differs: {name}")
    return same


def report(workload: str, result: dict) -> None:
    walls = ", ".join(f"{w:.3f}" for w in result["round_walls"])
    print(f"== {workload}: {result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={result['correct']}; round walls [s]: {walls}")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
    for name, digest in result["digests"].items():
        print(f"   sha256 {digest} {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-threads", action="store_true")
    args = parser.parse_args()
    if not (SRC / "semimpute" / "_entry.py").is_file():
        print(f"bench: no semimpute sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.check_threads:
        return 0 if all([check_threads(w, args.seed) for w in workloads]) else 1

    results = {w: bench_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    for workload, result in results.items():
        report(workload, result)
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
