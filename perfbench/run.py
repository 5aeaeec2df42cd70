"""Benchmark of the pcfgset command-line tools.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Each workload prepares its inputs from ``--seed`` (set-up, timed as
``setup_s``), then repeats one round of ``pcfgset`` commands, each in its
own process as a researcher would type them, until ``--seconds`` have
passed. Every round's outputs are checked against ``checker``, which does
not import the program. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the commands instead run once, in this process, through
``pcfgset.cli.main`` with timing wrappers installed (see ``tracing.py``), and
the per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibration
import checker

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
WARMUP_REPEATS = 5

# Input sizes of one round, per workload.
SCALE = {
    "corpus": {"size": 6_000},
    "testbuild": {"size": 3_000, "test_size": 250},
    "evaluate": {"size": 3_000, "test_size": 300},
    "naturalise": {"sample_size": 2_000},
}


def oracle_adapter() -> str:
    return "cmd:" + shlex.join([sys.executable, "-m", "pcfgset", "oracle"])


def worker_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Step:
    """One command of a round: ``pcfgset`` arguments, or the deep client."""

    label: str
    argv: list[str]
    deep: bool = False

    def command(self) -> list[str]:
        if self.deep:
            return [sys.executable, str(ROOT / "perfbench" / "deep.py"), *self.argv]
        return [sys.executable, "-m", "pcfgset", *self.argv]


@dataclass
class Outcome:
    """What one round did, as the checker scores it."""

    attempted: int
    failed: int
    samples: float


class Workload:
    """Inputs, commands and checks of one workload.

    ``setup_steps`` build the round's inputs; ``round_steps`` are the timed
    commands; ``check`` scores a round from its files and logs.
    """

    setup_repeats = WARMUP_REPEATS
    # score every round, not only the first; for outputs that are not
    # compared byte for byte between rounds
    score_every_round = False

    def __init__(self, seed: int, work: Path, scale: dict):
        self.seed = seed
        self.work = work
        self.scale = scale
        self.out = work / "out"

    def setup_steps(self) -> list[Step]:
        return []

    def check_setup(self) -> None:
        pass

    def round_steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, logs: dict[str, str], codes: dict[str, int]) -> Outcome:
        raise NotImplementedError

    def sources(self) -> list[Path]:
        """Source files the language layer is timed over."""
        raise NotImplementedError

    def _gen(self, directory: Path, size: int) -> Step:
        return Step("generate", ["generate", "--seed", str(self.seed), "--size", str(size),
                                 "--out", str(directory)])

    def _testbuild(self, test: str, base: Path, out: Path, *extra: str) -> Step:
        return Step(f"testbuild-{test}", ["testbuild", "--test", test, "--base", str(base),
                                          "--out", str(out), "--seed", str(self.seed), *extra])


class CorpusWorkload(Workload):
    """generate a default-grammar corpus, then validate it."""

    def round_steps(self):
        corpus = self.out / "corpus"
        return [self._gen(corpus, self.scale["size"]),
                Step("validate", ["validate", "--data", str(corpus)])]

    def check(self, logs, codes):
        failed = sum(1 for c in codes.values() if c)
        if not failed:
            checker.check_generated(self.out / "corpus", self.scale["size"])
            checker.check_validate_output(logs["validate"], self.scale["size"])
        return Outcome(2, failed, self.scale["size"] if not failed else 0)

    def sources(self):
        return sorted((self.out / "corpus").glob("*.src"))


TESTS = ("systematicity", "productivity", "substitutivity-ed", "substitutivity-prim", "overgen")


class TestbuildWorkload(Workload):
    """all five testbuild tests from one base corpus built in set-up."""

    setup_repeats = SETUP_REPEATS

    def setup_steps(self):
        return [self._gen(self.work / "base", self.scale["size"])]

    def check_setup(self):
        self.base = checker.check_generated(self.work / "base", self.scale["size"])

    def round_steps(self):
        base = self.work / "base"
        steps = []
        for test in TESTS:
            extra = ("--test-size", str(self.scale["test_size"])) if test == "systematicity" else ()
            steps.append(self._testbuild(test, base, self.out / test, *extra))
        return steps

    def check(self, logs, codes):
        failed = sum(1 for c in codes.values() if c)
        if not failed:
            out = self.out
            checker.check_systematicity(out / "systematicity", self.base, self.scale["test_size"])
            checker.check_productivity(out / "productivity", self.base)
            checker.check_substitutivity_equal(out / "substitutivity-ed", self.base)
            checker.check_substitutivity_primitive(out / "substitutivity-prim", self.base)
            checker.check_overgen(out / "overgen", self.base)
        done = len(TESTS) - failed
        return Outcome(len(TESTS), failed, self.scale["size"] * done)

    def sources(self):
        return sorted((self.work / "base").glob("*.src"))


class EvaluateWorkload(Workload):
    """the eval modes over test directories built in set-up, plus the
    deep-nesting requests through the subprocess oracle."""

    setup_repeats = SETUP_REPEATS
    score_every_round = True  # the deep-nesting replies

    def setup_steps(self):
        base, sys_dir = self.work / "base", self.work / "systematicity"
        return [
            self._gen(base, self.scale["size"]),
            self._testbuild("systematicity", base, sys_dir,
                            "--test-size", str(self.scale["test_size"])),
            # every systematicity test item holds a mapped function, so each
            # becomes one consistency pair
            self._testbuild("substitutivity-ed", sys_dir, self.work / "substitutivity-ed"),
        ]

    def check_setup(self):
        base = checker.check_generated(self.work / "base", self.scale["size"])
        checker.check_systematicity(self.work / "systematicity", base, self.scale["test_size"])
        sys_data = checker.check_corpus(self.work / "systematicity", ("train", "test"))
        checker.check_substitutivity_equal(self.work / "substitutivity-ed", sys_data)

    def evals(self) -> list[tuple[str, list[str], int]]:
        """(label, arguments, adapter requests) of each eval command."""
        sys_dir = str(self.work / "systematicity")
        base = str(self.work / "base")
        t = self.scale["test_size"]
        base_test = int(self.scale["size"] * checker.SPLIT_FRACTIONS["test"])
        return [
            ("accuracy-oracle", ["accuracy", "--adapter", "oracle", "--data", sys_dir], t),
            ("accuracy-subprocess", ["accuracy", "--adapter", oracle_adapter(), "--data", sys_dir,
                                     "--jobs", str(worker_count())], t),
            ("consistency", ["consistency", "--adapter", "oracle",
                             "--data", str(self.work / "substitutivity-ed")], 2 * t),
            ("localism", ["localism", "--adapter", "oracle", "--data", base], base_test),
            ("eos", ["eos", "--adapter", "oracle", "--data", base], base_test),
        ]

    def round_steps(self):
        steps = [Step(label, ["eval", *argv, "--out", str(self.out / label)])
                 for label, argv, _ in self.evals()]
        steps.append(Step("deep", [str(self.out / "deep.json")], deep=True))
        return steps

    def check(self, logs, codes):
        attempted = failed = 0
        for label, _, requests in self.evals():
            attempted += requests
            if codes[label]:
                failed += requests
                continue
            # a consistency report counts pairs; each pair is two requests
            count = requests // 2 if label == "consistency" else requests
            checker.check_report(self.out / label / "report.json", count)
        deep = checker.deep_requests()
        attempted += len(deep)
        if codes["deep"]:
            failed += len(deep)
        else:
            replies = json.loads((self.out / "deep.json").read_text(encoding="utf-8"))
            failed += sum(1 for r, (_, want) in zip(replies, deep) if r["reply"] != want)
        return Outcome(attempted, failed, attempted - failed)

    def sources(self):
        return [self.work / "systematicity" / "test.src", self.work / "base" / "test.src"]


# The naturalise pool's cost is dominated by a few giant trees (in one pool
# of 3,000, the costliest ten took 28% of the time), so across seeds its
# time spreads far wider than any bound. The workload therefore draws one
# fixed pool; see perfbench/README.md.
NATURALISE_SEED = 0


class NaturaliseWorkload(Workload):
    """naturalise against the bundled reference histogram."""

    def round_steps(self):
        return [Step("naturalise", ["naturalise", "--seed", str(NATURALISE_SEED),
                                    "--out", str(self.out / "naturalise"),
                                    "--sample-size", str(self.scale["sample_size"])])]

    def check(self, logs, codes):
        if codes["naturalise"]:
            return Outcome(1, 1, 0)
        trace = checker.check_naturalise(self.out / "naturalise", logs["naturalise"])
        m = self.scale["sample_size"]
        return Outcome(1, 0, m * (1 + checker.regenerations(trace)))

    def sources(self):
        return sorted((self.out / "naturalise").glob("*.src"))


WORKLOADS = {
    "corpus": CorpusWorkload,
    "testbuild": TestbuildWorkload,
    "evaluate": EvaluateWorkload,
    "naturalise": NaturaliseWorkload,
}


# --- running commands -------------------------------------------------------


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # numpy's BLAS would start a thread per CPU in every command; the
    # program's matrices are a few rows wide, so one thread does the same
    # work without contending for the CPUs the timed command runs on
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    return env


def execute(step: Step, log: Path) -> tuple[float, float, int, list[float]]:
    """Run one command to its end; returns (wall s, peak RSS MiB, exit code,
    calibration samples taken while it ran).

    The peak comes from wait4, which covers the process and every
    descendant it waited for, so adapter children are included. A thread
    waits for the command and notes when it ended, while this one samples
    the calibration task every ``calibration.INTERVAL_S``, sharing the CPU
    with the command.
    """
    ended: dict = {}
    done = threading.Event()

    def reap(pid: int) -> None:
        ended["wait4"] = os.wait4(pid, 0)
        ended["at"] = time.perf_counter()
        done.set()

    during: list[float] = []
    with open(log, "w", encoding="utf-8") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(step.command(), stdout=handle, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=environment(), cwd=ROOT)
        waiter = threading.Thread(target=reap, args=(proc.pid,))
        waiter.start()
        while not done.wait(calibration.INTERVAL_S):
            during.append(calibration.sample())
        waiter.join()
    _, status, usage = ended["wait4"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ended["at"] - start, usage.ru_maxrss / 1024.0, proc.returncode, during


@dataclass
class Times:
    """A command's wall time as measured, and scaled to the reference
    speed by the calibration task timed around and during it."""

    measured: float
    scaled: float


def run_steps(steps: list[Step], logs: Path) -> tuple[dict, float, dict, dict]:
    """Run steps in order; returns (Times per step, peak RSS, logs, exit codes)."""
    logs.mkdir(parents=True, exist_ok=True)
    peak = 0.0
    walls, texts, codes = {}, {}, {}
    before = calibration.edge()
    for step in steps:
        path = logs / f"{step.label}.log"
        seconds, rss, code, during = execute(step, path)
        after = calibration.edge()
        walls[step.label] = Times(seconds, seconds * calibration.scale(before + during + after))
        before = after
        peak = max(peak, rss)
        texts[step.label] = path.read_text(encoding="utf-8")
        codes[step.label] = code
    return walls, peak, texts, codes


def tree_digest(directory: Path) -> str:
    """Digest of every output file; the deep replies are scored by the
    checker in every round instead."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and p.name != "deep.json"):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def warm_up(workload: Workload) -> Step:
    """A tiny generate: it imports every module, so it fills the bytecode
    cache and times interpreter start-up."""
    return workload._gen(workload.work / "warm-up", 20)


def set_up(workload: Workload) -> Times:
    walls, _, texts, codes = run_steps([warm_up(workload), *workload.setup_steps()],
                                       workload.work / "logs-setup")
    bad = [label for label, code in codes.items() if code]
    if bad:
        raise SystemExit(f"set-up command {bad[0]} failed:\n{texts[bad[0]]}")
    return Times(sum(t.measured for t in walls.values()), sum(t.scaled for t in walls.values()))


def measure(workload: Workload, seconds: float) -> dict:
    # The calibration task and the commands share one CPU, so that the
    # task gauges the CPU the commands run on; the children inherit this.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The machine's speed drifts over tens of seconds, so the set-up
    # repeats run partly before the rounds and partly after them.
    after = workload.setup_repeats // 2
    setup_times = [set_up(workload) for _ in range(workload.setup_repeats - after)]
    workload.check_setup()

    walls: dict[str, list[Times]] = {}
    samples, peaks = [], []
    attempted = failed = 0
    first_digest = None
    start = time.perf_counter()
    while True:
        shutil.rmtree(workload.out, ignore_errors=True)
        workload.out.mkdir(parents=True)
        step_walls, peak, texts, codes = run_steps(workload.round_steps(), workload.work / "logs")
        if first_digest is None:
            outcome = workload.check(texts, codes)
            first = outcome
            first_digest = tree_digest(workload.out)
        else:
            # same seed, same inputs: the outputs must repeat byte for byte
            digest = tree_digest(workload.out)
            if digest != first_digest:
                raise checker.CheckFailure("a round's outputs differ from the first round's")
            outcome = workload.check(texts, codes) if workload.score_every_round else first
        attempted += outcome.attempted
        failed += outcome.failed
        for label, taken in step_walls.items():
            walls.setdefault(label, []).append(taken)
        samples.append(outcome.samples)
        peaks.append(peak)
        # start another round only if the whole of it still fits in the time
        if time.perf_counter() - start + sum(t.measured for t in step_walls.values()) > seconds:
            break
    setup_times += [set_up(workload) for _ in range(after)]

    def total(times: dict[str, list[Times]], kind: str) -> float:
        # A burst that slows one command of a round should not make the
        # whole round an outlier, so each command counts with its median.
        return sum(statistics.median(getattr(t, kind) for t in runs) for runs in times.values())

    wall = total(walls, "scaled")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(t.scaled for t in setup_times),
            "wall_s": wall,
            "samples_per_s": statistics.median(samples) / wall,
            "peak_rss_mib": statistics.median(peaks),
        },
        "rounds": len(peaks),
        "measured": {"setup_s": statistics.median(t.measured for t in setup_times),
                     "wall_s": total(walls, "measured")},
    }


UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "samples/s", "peak_rss_mib": "MiB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcfgset" / "cli.py").is_file():
        print(f"no pcfgset sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(environment())
    sys.path.insert(0, str(SRC))
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work, SCALE[args.workload])
    correct = True
    try:
        if args.trace:
            import tracing

            result = tracing.run(workload, WORKLOADS, SRC, RUNS / "traces")
        else:
            result = measure(workload, args.seconds)
            result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                                 for name, value in result["metrics"].items()}
    except checker.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        result = {"attempted": 1, "failed": 0, "metrics": {}}
    shutil.rmtree(work, ignore_errors=True)
    if "rounds" in result:
        measured = ", ".join(f"{k} {v:.4f}" for k, v in result["measured"].items())
        print(f"{args.workload}: {result['rounds']} rounds; unscaled {measured}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
