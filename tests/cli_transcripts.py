"""The committed CLI transcripts: the call list, one call run in process, and
the comparison of two transcripts.

tests/transcripts/ holds each call's nonempty streams, one file each
(NAME.stdout, NAME.stderr and NAME.out, the bytes of its --out file), and
manifest.json: a header with the numpy version, the Python version, the
platform, the OpenBLAS core and numpy's enabled SIMD targets that recorded
them, then each call's name, directory, argv and exit code. The inputs are
written from a seed: perfbench's zsweep-corr and cli-mix calls and inputs
at seeds 101 and 102 (tier-1 already imports perfbench/workloads.py),
discord and tomo on cli-mix's full-rank state, seeded random Clifford
circuits, and the state files and bad inputs of _file_calls. Each call runs
from its own directory with relative input names, because every config
echoes its input path, and with COLUMNS fixed, because argparse wraps its
help pages to the terminal width.

tests/test_transcripts.py reruns the calls; scripts/make_cli_transcripts.py
rewrites them and prints stream_report's lines for each call that moved.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import io
import json
import math
import os
import platform
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from dqc1sim.cli import MAX_STEPS, main
from dqc1sim.serialize import density_to_json, matrix_to_json

from helpers import random_clifford_circuit, random_density_matrix, save_json

TRANSCRIPT_DIR = Path(__file__).resolve().parent / "transcripts"
MANIFEST = TRANSCRIPT_DIR / "manifest.json"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (101, 102)
CLIFFORD_QUBITS = (2, 3, 4)  # n = 2 minimizes both sides; n = 3 and 4 certify the register
CLIFFORD_GATES = 24
STATE_SEED = 7
COMMANDS = ("sweep", "trace", "discord", "tangle", "tomo", "verify-clifford")
STREAMS = ("stdout", "stderr", "out")
COLUMNS = "80"
# Where the recording environment differs, numbers may move in their last
# bits; they are compared within this absolute tolerance instead of by bytes.
# Recorded on AVX-512 kernels, every number moved by at most 3.5e-14 (an
# argmin angle) under OpenBLAS's Haswell kernels, and counts not at all.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class Call:
    name: str
    directory: str  # relative to the work directory
    argv: tuple
    out: str | None  # the --out file, relative to directory


def environment() -> dict:
    """What the bytes of a transcript depend on besides the program: the
    versions, the platform, the OpenBLAS kernels that numpy calls (which
    OPENBLAS_CORETYPE can switch) and numpy's enabled SIMD dispatch targets.
    A value that cannot be read is "unknown"."""
    blas_core = simd = "unknown"
    with contextlib.suppress(AttributeError, OSError):
        umath = np._core._multiarray_umath
        simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        blas_core = corename().decode()
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{sys.platform}-{platform.machine()}",
            "blas_core": blas_core, "simd": simd}


def _workloads():
    """perfbench/workloads.py, which imports the benchmark's oracles by bare
    name, so its directory is on sys.path while it is imported."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def write_calls(workdir: Path) -> list[Call]:
    """Write every call's inputs under workdir and return the calls in order."""
    workloads = _workloads()
    calls = []
    for seed in SEEDS:
        d = workdir / str(seed)
        d.mkdir()
        invocations = [("zsweep-corr", inv) for inv in workloads.ZSweepCorr(seed, d).invocations()]
        invocations += [("cli-mix", inv) for inv in workloads.CliMix(seed, d).invocations()]
        for workload, inv in invocations:
            argv = tuple(os.path.relpath(a, d) if a.startswith(f"{d}{os.sep}") else a
                         for a in inv.argv)
            calls.append(Call(f"{workload}-{seed}-{inv.key}", str(seed), argv, inv.out.name))
        for command, extra in (("discord", ()), ("tomo", ("--seed", str(seed)))):
            out = f"{command}-file.json"
            calls.append(Call(f"cli-mix-{seed}-{command}-file", str(seed),
                              (command, "density2.json", *extra, "--out", out), out))
    for n in CLIFFORD_QUBITS:
        save_json(workdir / f"circuit{n}.json", random_clifford_circuit(n, CLIFFORD_GATES, n))
        calls.append(Call(f"verify-clifford-n{n}", ".",
                          ("verify-clifford", f"circuit{n}.json", "--out", f"clifford{n}.json"),
                          f"clifford{n}.json"))
    calls += _file_calls(workdir)
    calls.append(Call("help", ".", ("--help",), None))
    calls += [Call(f"help-{command}", ".", (command, "--help"), None) for command in COMMANDS]
    return calls


def _file_calls(workdir: Path) -> list[Call]:
    """Write the state files and bad inputs under workdir and return their
    calls: tangle from --theta; a sweep of every output written as JSON; a
    sweep whose seed is past int64, as CSV and as JSON; discord, tangle and
    tomo on a seeded rank-2 state, and on the same state as one four-level
    subsystem ("qubit_dims": [2], which the correlation report reads as
    control and register); then bad inputs, each pinned by its stderr line
    and exit code."""
    rank2 = density_to_json(random_density_matrix(np.random.default_rng(STATE_SEED), (1, 1), 2))
    inputs = {
        "rank2": rank2,
        "dims2": {**rank2, "qubit_dims": [2]},
        "dims-zero": {**rank2, "qubit_dims": [0, 2]},
        "nonunitary": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "string-entries": {"dim": 2, "re": [["1", "0"], ["0", "1.0"]], "im": [[0, 0], [0, 0]]},
        "unknown-gate": {"n": 2, "gates": [{"g": "T", "q": 0}]},
    }
    for name, obj in inputs.items():
        save_json(workdir / f"{name}.json", obj)
    calls = [Call("tangle-theta", ".", ("tangle", "--theta", "2.5", "--alpha", "0.9",
                                        "--out", "tangle-theta.json"), "tangle-theta.json"),
             Call("sweep-json", ".", ("sweep", "--steps", "5", "--alpha", "0.997", "--shots", "300",
                                      "--seed", "4", "--outputs", "trace,discord,tangle,tomo",
                                      "--mean-counts", "3000", "--format", "json",
                                      "--out", "sweep.json"), "sweep.json")]
    # a seed past int64, which numpy's integer arrays cannot hold, printed exactly
    big_seed = ("sweep", "--steps", "3", "--shots", "5", "--outputs", "trace,tomo",
                "--seed", str(2**64 + 1))
    calls += [Call("sweep-seed-past-int64", ".", (*big_seed, "--out", "big-seed.csv"),
                   "big-seed.csv"),
              Call("sweep-seed-past-int64-json", ".",
                   (*big_seed, "--format", "json", "--out", "big-seed.json"), "big-seed.json")]
    for state in ("rank2", "dims2"):
        for command, extra in (("discord", ()), ("tangle", ()), ("tomo", ("--seed", str(STATE_SEED)))):
            out = f"{state}-{command}.json"
            calls.append(Call(f"{state}-{command}", ".",
                              (command, f"{state}.json", *extra, "--out", out), out))
    bad = {
        "bad-nonunitary": ("trace", "nonunitary.json"),
        "bad-alpha-nan": ("discord", "--theta", "1", "--alpha", "nan"),
        "bad-seed-negative": ("tomo", "--theta", "1", "--seed", "-1"),
        "bad-unknown-gate": ("verify-clifford", "unknown-gate.json"),
        "bad-steps": ("sweep", "--steps", str(MAX_STEPS + 1)),
        "bad-string-entries": ("trace", "string-entries.json"),
        "bad-qubit-dims-zero": ("discord", "dims-zero.json"),
    }
    calls += [Call(name, ".", argv, None) for name, argv in bad.items()]
    # failing calls, with --out, so that the absent file is pinned too: in
    # the first sweep the first point fails at reconstruction and the second
    # already at sampling; in the second sweep point 18 is the first to fail;
    # the tomo row has two empty basis pairs, XY and YZ, and names XY
    bad_outs = {
        "bad-sweep-first-point": ("sweep", "--steps", "4", "--outputs", "tomo", "--shots", "1",
                                  "--mode", "poisson", "--mean-counts", "0.001", "--seed", "2"),
        "bad-sweep-point-18": ("sweep", "--steps", "61", "--outputs", "tomo", "--alpha", "0.997",
                               "--mean-counts", "5", "--seed", "9"),
        "bad-tomo-empty-pair": ("tomo", "--theta", "1", "--mean-counts", "0.5", "--seed", "4"),
    }
    outs = {name: f"{name}.{'csv' if argv[0] == 'sweep' else 'json'}"
            for name, argv in bad_outs.items()}
    return calls + [Call(name, ".", (*argv, "--out", outs[name]), outs[name])
                    for name, argv in bad_outs.items()]


def run(call: Call, workdir: Path) -> tuple[int, dict]:
    """Run one call through cli.main in this process, from its directory:
    its exit code and the bytes of each stream."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir / call.directory)
    try:
        with (mock.patch.dict(os.environ, COLUMNS=COLUMNS), contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            try:
                code = main(list(call.argv))
            except SystemExit as exc:  # argparse after a help page
                code = exc.code
        out = Path(call.out).read_bytes() if call.out and Path(call.out).exists() else b""
    finally:
        os.chdir(cwd)
    return code, {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode(),
                  "out": out}


def read_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def read_streams(name: str) -> dict:
    """The recorded bytes of a call's streams; an empty one has no file."""
    paths = {stream: TRANSCRIPT_DIR / f"{name}.{stream}" for stream in STREAMS}
    return {stream: path.read_bytes() if path.exists() else b"" for stream, path in paths.items()}


def write_transcripts(calls: list[Call], results: list) -> None:
    """Replace tests/transcripts/ with these calls' results."""
    TRANSCRIPT_DIR.mkdir(exist_ok=True)
    for path in TRANSCRIPT_DIR.iterdir():
        path.unlink()
    entries = []
    for call, (code, streams) in zip(calls, results):
        entries.append({**asdict(call), "exit": code})
        for stream, data in streams.items():
            if data:
                (TRANSCRIPT_DIR / f"{call.name}.{stream}").write_bytes(data)
    MANIFEST.write_text(json.dumps({"header": environment(), "calls": entries}, indent=1) + "\n")


_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _leaves(obj, path: str, out: dict) -> None:
    """Append each scalar of a JSON value to out under its key path; list
    indices are not part of the path."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _leaves(value, path, out)
    else:
        out.setdefault(path, []).append(obj)


def columns(data: bytes) -> dict:
    """A stream's values by column: a sweep CSV's columns and its config
    line's keys (under "config."), a JSON document's scalars by key path,
    and for any other text its numbers and, under "skeleton", the text with
    each number replaced by "#"."""
    text, out = data.decode(), {}
    if text.startswith("# config: "):
        config, header, *rows = text.splitlines()
        _leaves(json.loads(config[len("# config: "):]), "config", out)
        names = header.split(",")
        out.update((name, []) for name in names)
        for row in rows:
            for name, value in zip(names, row.split(",")):
                out[name].append(float(value))
        return out
    try:
        _leaves(json.loads(text), "", out)
    except ValueError:
        out["text"] = [float(m) for m in _NUMBER.findall(text)]
        out["skeleton"] = [_NUMBER.sub("#", text)]
    return out


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def column_diffs(new: bytes, old: bytes) -> dict:
    """The largest |new - old| in each column, inf where a column's length
    or a value that is not a number differs, and under "column order" inf
    where the columns come in another order."""
    a, b = columns(new), columns(old)
    diffs = {"column order": 0.0 if list(a) == list(b) else math.inf}
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, []), b.get(key, [])
        if len(x) != len(y):
            diffs[key] = math.inf
            continue
        diffs[key] = max((abs(u - v) if _number(u) and _number(v) else (0.0 if u == v else math.inf)
                          for u, v in zip(x, y)), default=0.0)
    return diffs


def stream_report(new: dict, old: dict) -> list[str]:
    """What moved between the old and the new streams of one call, a line
    each: first the move, where the set of nonempty streams differs (as
    "streams stdout -> stderr"), then the largest |diff| of each column that
    moved, for the streams nonempty on both sides only. A stream that
    appeared or vanished is named by the move alone: against an empty
    stream every one of its columns would read inf."""
    had = [stream for stream in STREAMS if old[stream]]
    has = [stream for stream in STREAMS if new[stream]]
    lines = [] if had == has else [f"streams {'+'.join(had) or 'none'} -> {'+'.join(has) or 'none'}"]
    for stream in STREAMS:
        if stream in had and stream in has:
            lines += [f"{stream} {column}: max |diff| {diff:.3g}"
                      for column, diff in column_diffs(new[stream], old[stream]).items() if diff]
    return lines
