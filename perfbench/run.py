"""Backtest benchmark for conformalts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real ``conformalts run`` CLI from ``src/`` of this checkout as a
subprocess on inputs made from ``--seed``, repeats the workload's backtests
while another pass fits in ``--seconds``, checks every output (``checks.py``) and
prints a metric table followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
run's passes (one pass = the workload's invocations, once each). With
``--trace 1`` passes alternate between plain and traced invocations
(``benchtrace.py``) and the metrics are the per-layer ones (``layers.py``),
plus the tracing overhead: median traced pass wall minus median plain pass
wall. Timed plain passes never load the tracer.

The workloads' reasons and the metrics' names and units come from
``BENCHMARK.json`` at the root of the checkout; ``WORKLOADS`` below holds
what each workload runs.

Every invocation runs one process with one BLAS/OpenMP thread, so the second
core of a two-core machine stays free. An invocation still running
``RUN_MARGIN_S`` after ``--seconds`` have passed is killed and counts as
failed. All files go under ``.bench_build/perfbench`` in the checkout and are
removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads BLAS, for the speed probe

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_run, read_wide_csv  # noqa: E402
from layers import layer_metrics  # noqa: E402

ALPHA = 0.1
N_LAGS = 40
HORIZON = 30
N_MODELS = 10
WINDOW = 100
HIDDEN = (64, 64)
LEARNING_RATE = 0.001
MIN_SETUPS = 5  # set-ups per run, at least; setup_s is their median
RUN_MARGIN_S = 90.0  # an invocation may end at most this long after --seconds


@dataclass(frozen=True)
class Workload:
    methods: tuple[str, ...]
    length: int  # of the one synthetic series
    n_test: int
    epochs: int


WORKLOADS = {
    "fit_mimo": Workload(
        methods=("aenbmimocqr",), length=1041, n_test=390, epochs=100),
    "walk_long": Workload(
        methods=("enbcqr", "enbpi", "aenbmimocqr", "mimocqr"), length=5151, n_test=4500,
        epochs=5),
}

# end-to-end metrics that are printed but not in BENCHMARK.json
PRINTED_UNITS = {"coverage_gap": "frac", "failed_frac": "frac"}


@dataclass(frozen=True)
class Spec:
    """What BENCHMARK.json says about the workloads and metrics."""
    why: dict[str, str]
    e2e_units: dict[str, str]
    layer_units: dict[str, str]


def load_spec() -> Spec:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if set(why) != set(WORKLOADS):
        raise RuntimeError(f"BENCHMARK.json lists workloads {sorted(why)}, "
                           f"run.py defines {sorted(WORKLOADS)}")
    return Spec(why, {m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})


def pick(values: dict, units: dict, what: str) -> dict:
    """``values`` restricted to the metrics of ``units``; all must be there."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"BENCHMARK.json names {what} metrics this run does not "
                           f"compute: {missing}")
    return {name: values[name] for name in units}


def derive_seed(*parts) -> int:
    """A 31-bit seed from the workload seed and labels, stable everywhere."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Invocation:
    method: str
    started: float  # time.perf_counter() at launch
    wall: float
    cpu: float  # user + system seconds, reaped worker processes included
    rss_mib: float  # largest resident set of the process and its reaped workers
    code: int
    problems: list[str] = field(default_factory=list)
    n_intervals: int = 0
    output_bytes: int = 0
    digests: tuple[str, str] = ("", "")
    coverage_gaps: list[float] = field(default_factory=list)
    interval_scores: list[float] = field(default_factory=list)


def _kill_group(pgid: int) -> None:
    """Kill every process left in the group and wait, up to 10 s, until none is."""
    for _ in range(1000):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(cmd: list[str], env: dict, log_path: Path,
           timeout: float) -> tuple[float, float, float, float, int]:
    """Run ``cmd`` to completion in its own process group.

    Returns (launch time, wall s, cpu s, peak rss MiB, exit code). The group
    is killed after ``timeout`` seconds and after exit, so no worker outlives
    its invocation.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return (t0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class Bench:
    """One benchmark run: a workload at a seed, in its own work directory."""

    def __init__(self, name: str, seed: int, workdir: Path, deadline: float):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.series_seed = derive_seed(seed, name, "series", 0)
        self.deadline = deadline  # time.perf_counter() by which every invocation has ended
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.series: dict[str, np.ndarray] = {}
        self.inputs_sha256: str | None = None

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def setup(self) -> float:
        """Build the inputs once; return the set-up's wall seconds."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "make_inputs.py"), "--out", str(self.inputs),
               "--length", str(self.wl.length), "--seeds", str(self.series_seed)]
        log_path = self.workdir / "setup.log"
        _, wall, _, _, code = launch(cmd, self.env, log_path, self.time_left())
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}:\n{log_path.read_text(errors='replace')}")
        digest = hashlib.sha256((self.inputs / "series.csv").read_bytes()).hexdigest()
        if self.inputs_sha256 is None:
            self.inputs_sha256 = digest
            self.series = read_wide_csv(str(self.inputs / "series.csv"))
        elif digest != self.inputs_sha256:
            raise RuntimeError("set-up made different inputs from the same seed")
        return wall

    def command(self, method: str, out: Path, traced: bool) -> list[str]:
        wl = self.wl
        if traced:
            head = [sys.executable, "-c",
                    "import sys, benchtrace; sys.exit(benchtrace.main(sys.argv[1:]))"]
        else:
            head = [sys.executable, "-m", "conformalts.cli"]
        args = ["run", "--method", method, "--alpha", str(ALPHA), "--p", str(N_LAGS),
                "--H", str(HORIZON), "--B", str(N_MODELS), "--T", str(WINDOW),
                "--n-test", str(wl.n_test), "--epochs", str(wl.epochs),
                "--hidden", ",".join(map(str, HIDDEN)), "--lr", str(LEARNING_RATE),
                "--workers", "1", "--out", str(out),
                "--synthetic", "--seed", str(self.series_seed), "--length", str(wl.length)]
        return head + args

    def run_pass(self, index: int, traced: bool) -> tuple[list[Invocation], Path]:
        """Every invocation of the workload once, each checked."""
        pass_dir = self.workdir / f"pass{index}"
        spans = pass_dir / "spans"
        (spans if traced else pass_dir).mkdir(parents=True)
        invocations = []
        for method in self.wl.methods:
            out = pass_dir / method
            env = self.env
            if traced:
                env = dict(self.env)
                env["PYTHONPATH"] = os.pathsep.join([str(HERE), self.env["PYTHONPATH"]])
                env["PERFBENCH_TRACE_DIR"] = str(spans)
                env["PERFBENCH_RUN_ID"] = f"{self.name}-s{self.seed}-p{index}-{method}"
            t0, wall, cpu, rss, code = launch(self.command(method, out, traced), env,
                                              pass_dir / f"{method}.log", self.time_left())
            inv = Invocation(method, t0, wall, cpu, rss, code)
            if code != 0:
                log = (pass_dir / f"{method}.log").read_text(errors="replace")
                inv.problems.append(f"exit code {code}: {log.strip()[-400:]}")
            else:
                rc = check_run(str(out), method=method, alpha=ALPHA, horizon=HORIZON,
                               n_test=self.wl.n_test, series=self.series)
                inv.problems += rc.problems
                inv.n_intervals = rc.n_intervals
                inv.output_bytes = rc.output_bytes
                inv.digests = (rc.results_sha256, rc.intervals_sha256)
                inv.coverage_gaps = rc.coverage_gaps
                inv.interval_scores = rc.interval_scores
            invocations.append(inv)
        return invocations, pass_dir


def matmul_probe() -> float:
    """GFLOP/s of a fixed single-threaded 256x256 float64 matmul, median of 40."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    times = []
    for _ in range(40):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * 256 ** 3 / statistics.median(times) / 1e9


def host_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": THREAD_ENV,
        "git_sha": sha,
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="conformalts backtest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "conformalts" / "cli.py").is_file():
        print(f"error: no conformalts sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, load_spec(), workdir)
    except RuntimeError as exc:  # no inputs or no metric list, so no result
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: Spec, workdir: Path) -> int:
    facts = host_facts()
    probe = matmul_probe()
    bench = Bench(args.workload, args.seed, workdir,
                  deadline=time.perf_counter() + args.seconds + RUN_MARGIN_S)
    wl = bench.wl
    print(f"# host {json.dumps(facts)}")
    print(f"# matmul probe {probe:.3f} GFLOP/s (256x256 float64, one thread)")
    print(f"# workload {args.workload}: {spec.why[args.workload]}")
    print(f"# seed {args.seed}: series seed {bench.series_seed}")
    setup_times: list[float] = []
    passes: list[tuple[bool, list[Invocation], dict | None]] = []
    reference: dict[str, tuple[str, str]] = {}
    t_start = time.perf_counter()
    longest = 0.0  # the longest set-up plus pass so far
    while True:
        t_pass = time.perf_counter()
        # one set-up before every pass spreads the set-up samples over the run
        setup_times.append(bench.setup())
        traced = bool(args.trace) and len(passes) % 2 == 1
        invs, pass_dir = bench.run_pass(len(passes), traced)
        for inv in invs:
            if inv.problems:
                continue
            ref = reference.setdefault(inv.method, inv.digests)
            if inv.digests != ref:
                inv.problems.append(f"results digest {inv.digests[0][:16]} differs from "
                                    f"the run's first pass ({ref[0][:16]})")
        layers = None
        if traced:
            layers = layer_metrics(
                sorted((pass_dir / "spans").glob("*.npz")), n_lags=N_LAGS, hidden=HIDDEN,
                epochs=wl.epochs,
                launches=[i.started for i in invs], walls=[i.wall for i in invs],
                output_bytes=sum(i.output_bytes for i in invs))
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append((traced, invs, layers))
        wall = sum(i.wall for i in invs)
        print(f"# pass {len(passes) - 1}{' traced' if traced else ''}: wall {wall:.4f} s, "
              + ", ".join(f"{i.method} {i.wall:.3f} s cpu {i.cpu:.3f} s rss {i.rss_mib:.1f} MiB"
                          f"{' FAILED' if i.problems else ''}" for i in invs))
        for inv in invs:
            for problem in inv.problems:
                print(f"# FAILED {inv.method}: {problem}")
        now = time.perf_counter()
        longest = max(longest, now - t_pass)
        # stop before a pass that would end after --seconds, so that the run,
        # set-ups included, ends within about --seconds whatever the host's speed
        if now - t_start + longest > args.seconds and (not args.trace or len(passes) >= 2):
            break

    while len(setup_times) < MIN_SETUPS:
        setup_times.append(bench.setup())
    print(f"# setup {[round(t, 4) for t in setup_times]}")

    all_invs = [i for _, invs, _ in passes for i in invs]
    attempted = len(all_invs)
    failed = sum(1 for i in all_invs if i.problems)
    plain = [invs for traced, invs, _ in passes if not traced]
    walls = [sum(i.wall for i in invs) for invs in plain]
    good = [i for i in all_invs if not i.problems]
    first_good = {}
    for inv in good:
        first_good.setdefault(inv.method, inv)
    gaps = [g for inv in first_good.values() for g in inv.coverage_gaps]
    scores = [s for inv in first_good.values() for s in inv.interval_scores]

    measured = {
        "wall_s": median(walls),
        "intervals_per_s": median([sum(i.n_intervals for i in invs) / w
                                   for invs, w in zip(plain, walls)]),
        "cpu_s": median([sum(i.cpu for i in invs) for invs in plain]),
        "peak_rss_mb": median([max(i.rss_mib for i in invs) for invs in plain]),
        "setup_s": median(setup_times),
        "interval_score": float(np.mean(scores)) if scores else 0.0,
        "coverage_gap": float(np.mean(gaps)) if gaps else 0.0,
        "failed_frac": failed / attempted,
    }
    e2e = pick(measured, spec.e2e_units, "end-to-end")
    for name, value in measured.items():
        unit = spec.e2e_units.get(name) or PRINTED_UNITS[name]
        print(f"{args.workload:<11} {name:<16} {value:>16.6f} {unit}")

    if args.trace:
        layer_runs = [lay for traced, _, lay in passes if traced]
        traced_walls = [lay["trace.traced_wall_s"] for lay in layer_runs]
        layer = {name: median([lay[name] for lay in layer_runs]) for name in layer_runs[0]}
        layer["trace.untraced_wall_s"] = median(walls)
        layer["trace.overhead_s"] = median(traced_walls) - median(walls)
        layer["host.matmul_gflop_per_s"] = probe
        units = spec.layer_units
        metrics_out = pick(layer, units, "per-layer")
        for name in units:
            print(f"{args.workload:<11} {name:<32} {metrics_out[name]:>16.6f} {units[name]}")
    else:
        metrics_out, units = e2e, spec.e2e_units

    digests = {m: {"results_sha256": inv.digests[0], "intervals_sha256": inv.digests[1]}
               for m, inv in first_good.items()}
    detail = {"workload": args.workload, "seed": args.seed, "host": facts,
              "matmul_gflop_per_s": probe, "series_seed": bench.series_seed,
              "digests": digests, "end_to_end": measured,
              "passes": len(passes), "setup_times": setup_times}
    print("# detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics_out[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
