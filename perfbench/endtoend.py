"""End-to-end measurement of the sawtoothlab CLI, and the output gate.

Each workload is a list of CLI commands run as child processes of this one,
each started only after the previous one exited. Time, CPU and peak RSS
come from ``os.wait4`` on the child, so they cover the child's whole tree
(the sweep's pool workers included). Every output is checked; a failed
check, a nonzero exit, a missing output or an unexpected ``diverged`` flag
fails the operation it belongs to. An operation is one CLI call, or one
point of a sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sawtoothlab.cli import MODELS
from sawtoothlab.specfile import load_spec
from sawtoothlab.traceio import read_trace_csv
from sawtoothlab.trainer import TRACE_COLUMNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"
EXPECTED_PATH = HERE / "expected.json"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 12
FIT_WINDOW = 250
FIT_CALLS = tuple((model, 5) for model in MODELS) + (("dot_dtheta", 4), ("dot_dtheta", 6))
FIT_REL_TOL = 1e-6
OVERLAP_N, OVERLAP_B, OVERLAP_TRIALS = 10_000, 100, 10_000
# set-up children before the first repetition and after each one
SETUP_PER_ROUND = 2
CHILD_TIMEOUT_S = 150.0
# a run must end within 180 s; no repetition starts that could end past this
RUN_BUDGET_S = 160.0

# workloads that are one `run` of the spec of their name; the others use reference_b1's
RUN_WORKLOADS = ("reference_b1", "minibatch_sweep")
WORK_UNIT = {
    "reference_b1": "steps_per_s",
    "minibatch_sweep": "steps_per_s",
    "fit_epochs": "fits_per_s",
    "overlap_mc": "trials_per_s",
}


# -- child processes ---------------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, log: str) -> Child:
    """Run ``python argv`` to completion through launch.py, in its own session."""
    out, err = cwd / f"{log}.out", cwd / f"{log}.err"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), str(out), str(err), sys.executable, *argv],
        cwd=cwd, env=child_env(), stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        report, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(argv)} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode}")
    usage = json.loads(report)
    return Child(
        returncode=usage["returncode"],
        wall_s=usage["wall_s"],
        cpu_s=usage["cpu_s"],
        rss_mb=usage["maxrss_kb"] / 1024.0,
        stdout=out.read_text(errors="replace"),
    )


def cli(args: list, cwd: Path, log: str) -> Child:
    return run_child(["-m", "sawtoothlab", *map(str, args)], cwd, log)


# -- output gate ---------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def column_digests(trace) -> dict:
    """SHA-256 of every trace column's bytes."""
    return {
        name: hashlib.sha256(np.ascontiguousarray(getattr(trace, name)).tobytes()).hexdigest()
        for name in TRACE_COLUMNS
    }


def _differs(a, b, rel_tol: float | None) -> bool:
    if rel_tol is None or not isinstance(a, dict):
        return a != b
    if a.keys() != b.keys():
        return True
    return not all(math.isclose(a[k], b[k], rel_tol=rel_tol, abs_tol=0.0) for k in a)


class Gate:
    """Counts the operations attempted and failed, with the reason of each failure.

    ``same`` compares an output with the value recorded for the default seed
    in expected.json (when ``expected`` is given) and with the first value
    seen in this invocation, which on later repetitions checks that the CLI
    is deterministic and in a traced run that the replay matches the CLI.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict = {}
        self.recordable: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def same(self, key: str, value, rel_tol: float | None = None, recorded: bool = True) -> list[str]:
        problems = []
        if recorded and self.expected is not None:
            if key not in self.expected:
                problems.append(f"no recorded value for {key}")
            elif _differs(value, self.expected[key], rel_tol):
                problems.append(f"{key} differs from the recorded value")
        if key in self.first and _differs(value, self.first[key], rel_tol):
            problems.append(f"{key} differs from the first value in this run")
        self.first.setdefault(key, value)
        if recorded:
            self.recordable.setdefault(key, value)
        return problems

    def operation(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- workloads -----------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    work: int
    call_walls: list


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def seeded_spec(name: str, seed: int, work: Path) -> Path:
    """Copy of a benchmark spec with problem_seed = seed + 1 and seed = seed."""
    text = (SPECS / f"{name}.spec").read_text()
    text = re.sub(r"(?m)^problem_seed\s*=.*$", f"problem_seed = {seed + 1}", text)
    text = re.sub(r"(?m)^seed\s*=.*$", f"seed = {seed}", text)
    path = work / f"{name}.spec"
    path.write_text(text)
    return path


class Workload:
    """The CLI commands of one workload, with the checks on their outputs."""

    def __init__(self, name: str, seed: int, work: Path, gate: Gate):
        self.name = name
        self.seed = seed
        self.work = work
        self.gate = gate
        self.spec = seeded_spec(name if name in RUN_WORKLOADS else "reference_b1", seed, work)
        self.fixture: Path | None = None
        self.points = load_spec(self.spec).expand()
        if name == "fit_epochs":
            self.units = len(FIT_CALLS)
        elif name == "overlap_mc":
            self.units = OVERLAP_TRIALS
        else:
            self.units = sum(
                math.ceil(c.num_functions / c.batch_size) * c.num_epochs for _, c in self.points
            )

    def setup_args(self) -> list[str]:
        args = [str(HERE / "setup_child.py")]
        if self.name in RUN_WORKLOADS:
            args.append(str(self.spec))
        return args

    def prepare(self) -> None:
        """Untimed work before the first repetition: fit_epochs' input trace."""
        if self.name != "fit_epochs":
            return
        self.fixture = self.work / "fixture"
        child = cli(["run", self.spec, "--out", self.fixture], self.work, "fixture")
        problems = self._check_run(child, self.fixture, "reference_b1", first=True)
        self.gate.operation("fixture run", problems)

    def rep(self, k: int) -> Rep:
        out = self.work / f"rep{k}"
        try:
            if self.name in RUN_WORKLOADS:
                return self._rep_run(out, k)
            if self.name == "fit_epochs":
                return self._rep_fit(out, k)
            return self._rep_overlap(out, k)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_run(self, child: Child, out: Path, key: str, first: bool) -> list[str]:
        """Check one `run` call; a sweep's points each count as an operation."""
        spec = load_spec(self.spec)
        outputs = ["meta.json"]
        outputs += ["trace.csv", "epochs.csv"] if "csv" in spec.emit else []
        outputs += ["loss.svg"] if "svg" in spec.emit else []
        all_problems = []
        for label, config in self.points:
            point = out if len(self.points) == 1 else out / label
            problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
            problems += [f"missing {point.name}/{f}" for f in outputs if not (point / f).is_file()]
            if not problems:
                problems += self._check_point(point, f"{key}/{label}", config, first)
            if len(self.points) > 1:
                self.gate.operation(f"{label} of {out.name}", problems)
            all_problems += problems
        return all_problems

    def _check_point(self, point: Path, key: str, config, first: bool) -> list[str]:
        meta_bytes = (point / "meta.json").read_bytes()
        problems = []
        if json.loads(meta_bytes).get("diverged") is not False:
            problems.append("run flagged diverged")
        problems += self.gate.same(f"{key}/meta.json", hashlib.sha256(meta_bytes).hexdigest())
        problems += self.gate.same(f"{key}/trace.csv", sha256_file(point / "trace.csv"), recorded=False)
        if first:
            # the bit contract, read back through the public reader
            trace = read_trace_csv(point / "trace.csv")
            rows = math.ceil(config.num_functions / config.batch_size) * config.num_epochs
            if len(trace) != rows:
                problems.append(f"trace has {len(trace)} rows, expected {rows}")
            problems += self.gate.same(f"{key}/columns", column_digests(trace))
        return problems

    def _rep_run(self, out: Path, k: int) -> Rep:
        child = cli(["run", self.spec, "--out", out], self.work, out.name)
        problems = self._check_run(child, out, self.name, first=k == 0)
        if len(self.points) == 1:
            self.gate.operation(out.name, problems)
        size = _tree_bytes(out) + len(child.stdout.encode())
        return Rep(child.wall_s, child.cpu_s, child.rss_mb, size, self.units, [child.wall_s])

    def _rep_fit(self, out: Path, k: int) -> Rep:
        walls, cpu, rss, size = [], 0.0, 0.0, 0
        for model, epoch in FIT_CALLS:
            dest = out / f"{model}_e{epoch}"
            child = cli(
                ["fit", self.fixture / "trace.csv", "--model", model, "--epoch", epoch,
                 "--window", FIT_WINDOW, "--out", dest],
                self.work,
                f"{out.name}_{dest.name}",
            )
            walls.append(child.wall_s)
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
            if dest.is_dir():
                size += _tree_bytes(dest)
            size += len(child.stdout.encode())
            values = read_fit_csv(dest / f"fit_{model}.csv")
            if values is None:
                problems.append(f"missing or unreadable fit_{model}.csv")
            elif not all(math.isfinite(v) for v in values.values()):
                problems.append("non-finite fit value")
            else:
                problems += self.gate.same(f"fit_epochs/{model}_e{epoch}", values, rel_tol=FIT_REL_TOL)
            self.gate.operation(f"fit {model} epoch {epoch} ({out.name})", problems)
        return Rep(sum(walls), cpu, rss, size, self.units, walls)

    def _rep_overlap(self, out: Path, k: int) -> Rep:
        out.mkdir()
        child = cli(
            ["overlap", "--num-samples", OVERLAP_N, "--batch-size", OVERLAP_B,
             "--mc", OVERLAP_TRIALS, "--seed", self.seed],
            out,
            "overlap",
        )
        problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
        mc = parse_overlap(child.stdout)
        if mc is None:
            problems.append("no Monte Carlo line in the output")
        else:
            mean, se = float(mc[0]), float(mc[1])
            expected = OVERLAP_B * OVERLAP_B / OVERLAP_N
            if not abs(mean - expected) <= 3.0 * se:
                problems.append(f"mean {mean} is more than 3 SE ({se}) from B^2/N = {expected}")
            problems += self.gate.same("overlap_mc/monte_carlo", list(mc), recorded=False)
        self.gate.operation(f"overlap ({out.name})", problems)
        size = len(child.stdout.encode())
        return Rep(child.wall_s, child.cpu_s, child.rss_mb, size, self.units, [child.wall_s])


def read_fit_csv(path: Path) -> dict | None:
    """Coefficients and r_squared from a fit_<model>.csv written by the CLI."""
    if not path.is_file():
        return None
    values = {}
    skip = {"model", "epoch", "residual_norm", "beta1", "beta2", "degenerate", "notes", "key"}
    try:
        for line in path.read_text().splitlines():
            key, _, value = line.partition(",")
            if key not in skip:
                values[key] = float(value)
    except ValueError:
        return None
    return values or None


_MC_LINE = re.compile(r"monte carlo \((\d+) trials\): (\S+) \+/- (\S+)")


def parse_overlap(stdout: str) -> tuple[str, str] | None:
    """The printed Monte Carlo mean and standard error, as printed."""
    match = _MC_LINE.search(stdout)
    if match is None or int(match.group(1)) != OVERLAP_TRIALS:
        return None
    return match.group(2), match.group(3)


# -- statistics and reporting --------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def describe(samples: list[float], unit: str) -> str:
    text = f"median {statistics.median(samples):.6g} {unit}, n = {len(samples)}"
    tail = tail_percentile(samples)
    if tail is None:
        return text + ", no percentile above the median has 10 samples beyond it"
    return text + f", p{tail[0]} {tail[1]:.6g} {unit}"


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown (not a git checkout)"
    return sha if Path(top).resolve() == ROOT else "unknown (not a git checkout)"


def caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def run_record(workloads, seed: int, seconds: int, traced: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    workers = max(load_spec(SPECS / f"{name}.spec").workers for name in RUN_WORKLOADS)
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    nproc = len(os.sched_getaffinity(0))
    return {
        "workloads": list(workloads),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "max_workers": workers,
        "workers_x_threads_within_nproc": workers * threads <= nproc,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_caches_per_core": caches(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def measure(workload: Workload, seconds: int, started: float) -> tuple[dict, list[str], dict]:
    """Repetitions for about ``seconds`` seconds, with set-up children between them.

    Another repetition starts only if the measured time (repetitions and
    set-up children, not the checks between them) is expected to stay within
    ``seconds``, so every run measures whole repetitions. The set-up children are spread
    over the run so that a short burst of load on the machine moves few of
    them.
    """
    setup: list[Child] = []

    def setup_round() -> None:
        for _ in range(SETUP_PER_ROUND):
            child = run_child(workload.setup_args(), workload.work, f"setup{len(setup)}")
            if child.returncode != 0:
                raise RuntimeError(f"set-up child exited with {child.returncode}")
            setup.append(child)

    setup_round()
    workload.prepare()
    reps: list[Rep] = []
    measured = 0.0
    while True:
        reps.append(workload.rep(len(reps)))
        done = len(setup)
        setup_round()
        cycle = reps[-1].wall_s + sum(c.wall_s for c in setup[done:])
        measured += cycle
        if measured + cycle > seconds or time.perf_counter() - started + 1.5 * cycle > RUN_BUDGET_S:
            break
    walls = [r.wall_s for r in reps]
    rates = [r.work / r.wall_s for r in reps]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
        "output_mb": (statistics.median(r.out_bytes for r in reps) / 1e6, "MB"),
        "setup_s": (statistics.median(c.wall_s for c in setup), "s"),
    }
    samples = {"wall_s": walls, "cpu_s": [r.cpu_s for r in reps], "setup_s": [c.wall_s for c in setup],
               "call_walls": [r.call_walls for r in reps]}
    unit = WORK_UNIT[workload.name]
    lines = [
        f"wall_s: {describe(walls, 's')}",
        f"work_per_s ({unit}, {workload.units} per repetition): {describe(rates, '1/s')}",
        f"cpu_s: {describe([r.cpu_s for r in reps], 's')}",
        f"peak_rss_mb: {describe([r.rss_mb for r in reps], 'MB')}",
        f"output_mb: {describe([r.out_bytes / 1e6 for r in reps], 'MB')}",
        f"setup_s: {describe([c.wall_s for c in setup], 's')}",
    ]
    calls = [w for r in reps for w in r.call_walls]
    if len(calls) > len(reps):
        lines.append(f"per CLI call wall: {describe(calls, 's')}")
    return metrics, lines, samples


# -- entry ---------------------------------------------------------------------


def load_expected(seed: int, record: bool) -> dict | None:
    if seed != DEFAULT_SEED or record:
        return None
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}


def main(names, seed: int, seconds: int, traced: bool, record: bool) -> int:
    started = time.perf_counter()
    if record and seed != DEFAULT_SEED:
        print(f"error: --record needs the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    record_info = run_record(names, seed, seconds, traced)
    print("run record: " + json.dumps(record_info, sort_keys=True))
    gate = Gate(load_expected(seed, record))
    STATE.mkdir(exist_ok=True)
    results = {}
    metrics: dict = {}
    for name in names:
        work = STATE / f"work-{os.getpid()}-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            workload = Workload(name, seed, work, gate)
            if traced:
                import layers

                found, lines, samples = layers.traced_run(workload)
            else:
                found, lines, samples = measure(workload, seconds, started)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"== {name} (seed {seed}, {'traced' if traced else 'end to end'})")
        for line in lines:
            print("  " + line)
        results[name] = {"metrics": found, "report": lines, "samples": samples}
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"error_rate: {error_rate:.6g} ({gate.failed} of {gate.attempted} operations failed)")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    if record:
        expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
        expected.update(gate.recordable)
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded default-seed outputs in {EXPECTED_PATH.relative_to(ROOT)}")
    out = STATE / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out / f"{'-'.join(names)}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"record": record_info, "results": results, "failures": gate.failures},
                   indent=1, default=float) + "\n"
    )
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0
