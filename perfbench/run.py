"""dqc1sim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is the checkout's
``src/dqc1sim``, put on PYTHONPATH; the benchmark installs nothing. Inputs
are generated from ``--seed`` under ``.perfbench/`` and removed afterwards.

``--trace 0`` measures the end-to-end metrics in fresh processes.
``--trace 1`` measures the per-layer metrics: it drives the same inputs
in-process, alternating untraced and traced passes (see spans.py). Every
output is checked against the oracles in workloads.py and oracles.py.

Stdout ends with two JSON lines: the run's facts (machine, samples,
failures), then the result object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
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
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BLAS_THREADS = 1  # one thread per process: steadier on a shared machine, and <= nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fresh `import dqc1sim` timings per run, after one warm-up
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples beyond it
INVOCATION_TIMEOUT_S = 60.0
PASS_BUDGET_S = 120.0  # no pass starts after this, so a run ends well within 180 s
MAX_REPORTED_FAILURES = 20


def _env() -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Process:
    """Outcome of one fresh process: wall time, peak RSS, exit code, stderr."""

    def __init__(self, cmd: list, env: dict, timeout: float = INVOCATION_TIMEOUT_S):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # stderr stays small (an error line or -X importtime), so reading
            # it before wait4 cannot deadlock.
            self.stderr = proc.stderr.read().decode(errors="replace")
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
            proc.stderr.close()
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _command(inv) -> list:
    if inv.program == "cli":
        return [sys.executable, "-m", "dqc1sim", *inv.argv]
    return [sys.executable, str(ROOT / "perfbench" / "large_register.py"), *inv.argv]


class Checker:
    """Counts attempted and failed operations and compares reruns byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self._first_output: dict = {}

    def verify(self, ok: bool, message: str) -> None:
        """Count one benchmark-side check, such as the span accounting."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def record(self, inv, returncode: int, error: str = "") -> None:
        self.attempted += 1
        problems = [] if returncode == 0 else [f"exit code {returncode}: {error.strip()[-300:]}"]
        if not problems:
            data = inv.out.read_bytes() if inv.out.exists() else None
            try:
                problems = inv.check(data.decode())
            except Exception as exc:  # a malformed output is a failure, not a crash
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            # CLI output must be byte-identical across reruns within a run.
            if data is not None and inv.program == "cli":
                first = self._first_output.setdefault(inv.key, data)
                if data != first:
                    problems.append("output differs from the first pass with the same inputs")
        if problems:
            self.failed += 1
            self.failures.extend(f"{inv.key}: {p}" for p in problems)
        inv.out.unlink(missing_ok=True)


def _tail(values: list) -> tuple:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples that is the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _setup_times(env: dict) -> list:
    cmd = [sys.executable, "-c", "import dqc1sim"]
    warm = Process(cmd, env)  # fills __pycache__ on a fresh checkout
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import dqc1sim from {SRC}: {warm.stderr.strip()[-500:]}")
    return [Process(cmd, env).wall_s for _ in range(SETUP_REPEATS)]


def untraced_run(workload, env: dict, seconds: int, checker: Checker, facts: dict) -> dict:
    setup = _setup_times(env)
    passes = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    started = time.monotonic()
    latencies, pass_walls, rates, rss = [], [], [], []
    for _ in range(passes):
        if time.monotonic() - started > PASS_BUDGET_S:
            break
        pass_wall = point_wall = points = 0.0
        for inv in workload.invocations():
            p = Process(_command(inv), env)
            checker.record(inv, p.returncode, p.stderr)
            latencies.append(p.wall_s)
            rss.append(p.rss_mb)
            pass_wall += p.wall_s
            if inv.points:
                point_wall += p.wall_s
                points += inv.points
        pass_walls.append(pass_wall)
        rates.append(points / point_wall)
    tail, percentile = _tail(latencies)
    facts["samples"] = {"setup": len(setup), "passes": len(pass_walls), "invocations": len(latencies),
                        "tail_percentile": percentile, "tail_beyond": min(TAIL_BEYOND, len(latencies) - 1)}
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_walls),
        "points_per_s": statistics.median(rates),
        "cli_latency_p50_s": statistics.median(latencies),
        "cli_latency_tail_s": tail,
        "peak_rss_mb": max(rss),
    }


def _parse_importtime(stderr: str) -> dict:
    """Cumulative import times (s) of numpy, scipy and dqc1sim.

    -X importtime prints children before their parent, two spaces deeper per
    level. numpy and scipy each count the entries with no numpy or scipy
    ancestor, so numpy modules that scipy pulls in count as scipy and the
    two never overlap; dqc1sim counts its outermost entries.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "[us]" in line:
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip().split(".")[0], int(parts[1]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "dqc1sim": 0.0}
    ancestors: list = []
    for depth, package, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        outer = {a for _, a in ancestors}
        if package == "dqc1sim" and "dqc1sim" not in outer:
            totals[package] += cumulative
        elif package in ("numpy", "scipy") and not outer & {"numpy", "scipy"}:
            totals[package] += cumulative
        ancestors.append((depth, package))
    return totals


def _call(inv) -> tuple:
    """Run one invocation in this process; returns (exit code, error text)."""
    if inv.program == "cli":
        main = sys.modules["dqc1sim.cli"].main  # looked up per call: may be the tracer's wrapper
    else:
        main = sys.modules["large_register"].main
    try:
        return main(list(inv.argv)) or 0, ""
    except SystemExit as exc:  # argparse rejects its arguments this way
        return (exc.code if isinstance(exc.code, int) else 2), str(exc)
    except Exception as exc:
        return 1, f"{type(exc).__name__}: {exc}"


def _pass(workload, checker: Checker, tracer=None):
    """One in-process pass, traced when a tracer is given.

    Returns the wall time spent inside the program's calls (checks excluded)
    and, when traced, the pass's per-layer metrics.
    """
    extra = {"bytes_written": 0.0, "optimizer_evals": 0.0}
    wall = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for inv in workload.invocations():
            start = time.perf_counter()
            returncode, error = _call(inv)
            wall += time.perf_counter() - start
            if returncode == 0 and inv.program == "cli" and inv.out.exists():
                extra["bytes_written"] += inv.out.stat().st_size
                if inv.key == "discord":
                    try:
                        extra["optimizer_evals"] += json.loads(inv.out.read_text())["optimizer_evals"]
                    except (ValueError, KeyError, TypeError):
                        pass  # the check below reports the malformed output
            checker.record(inv, returncode, error)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        return wall, None
    summary = tracer.summarize(wall)
    accounted = sum(summary.layer_self_s.values()) + summary.untraced_s()
    checker.verify(abs(accounted - wall) <= 1e-6 * max(1.0, wall),
                   f"span accounting: layer self times sum to {accounted!r}, wall {wall!r}")
    return wall, catalog.layer_metrics(summary, extra)


def traced_run(workload, env: dict, seconds: int, checker: Checker, facts: dict) -> dict:
    import dqc1sim.cli  # noqa: F401  (the passes call it through sys.modules)
    import large_register  # noqa: F401
    import spans

    imports = [_parse_importtime(Process([sys.executable, "-X", "importtime", "-c", "import dqc1sim"], env).stderr)
               for _ in range(IMPORTTIME_REPEATS)]
    tracer = spans.Tracer()
    untraced, traced, rows = [], [], []
    started = time.monotonic()
    _pass(workload, checker)  # warm-up: first-call costs would favour whichever side ran second
    pair_s = 0.0
    # Pairs continue while the next one should end within --seconds.
    while not rows or time.monotonic() - started + pair_s <= min(seconds, PASS_BUDGET_S):
        pair_start = time.monotonic()
        # Alternate which side runs first, so warm-up does not favour one.
        for tracing in (False, True) if len(rows) % 2 == 0 else (True, False):
            wall, row = _pass(workload, checker, tracer if tracing else None)
            (traced if tracing else untraced).append(wall)
            if tracing:
                rows.append(row)
        pair_s = time.monotonic() - pair_start
        if tracer.missing:
            facts["missing_targets"] = list(tracer.missing)
            tracer.missing.clear()
    facts["samples"] = {"importtime": len(imports), "untraced_passes": len(untraced), "traced_passes": len(traced)}
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    for package in ("numpy", "scipy"):
        metrics[f"import.{package}_s"] = statistics.median(i[package] for i in imports)
    metrics["import.total_s"] = statistics.median(i["dqc1sim"] for i in imports)
    metrics["import.dqc1sim_self_s"] = statistics.median(i["dqc1sim"] - i["numpy"] - i["scipy"] for i in imports)
    metrics["bench.trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics


def machine_facts(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="dqc1sim benchmark")
    parser.add_argument("--workload", required=True, choices=("zsweep-corr", "cli-mix", "large-register"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into SystemExit, so children are stopped
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dqc1sim" / "__init__.py").is_file():
        print(f"perfbench: no dqc1sim sources at {SRC / 'dqc1sim'}", file=sys.stderr)
        return 2
    env = _env()
    # Fix the thread count before this process loads numpy, and make the
    # checkout's dqc1sim importable for the in-process passes.
    os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        facts = machine_facts(args.seed)
        facts.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker()
        run = traced_run if args.trace else untraced_run
        values = run(workload, env, args.seconds, checker, facts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    declared = _declared_metrics(bool(args.trace))
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    facts["not_measured"] = sorted(name for name, v in values.items() if v == 0)
    facts["failures"] = checker.failures[:MAX_REPORTED_FAILURES]
    for line in checker.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
