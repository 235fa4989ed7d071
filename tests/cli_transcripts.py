"""The committed CLI transcripts: the call list, one call run in process, and
the comparison of two transcripts.

tests/transcripts/ holds each call's nonempty streams, one file each
(NAME.stdout, NAME.stderr and NAME.out, the bytes of its --out file); the
calls' input files, under inputs/; and manifest.json, the one call list: a
header with the numpy version, the Python version, the platform, the
OpenBLAS core and numpy's enabled SIMD targets that recorded them, the
SHA-256 of each input by its path under inputs/, then each call's name,
directory, argv, --out file and exit code. Each call runs from its own
directory of a work directory that holds a copy of inputs/ (101/ and 102/
hold the zsweep-corr and cli-mix inputs at those seeds), with relative
input names, because every config echoes its input path, and with COLUMNS
fixed, because argparse wraps its help pages to the terminal width.

The inputs are a frozen record, like tests/fixtures/: no code writes them.
To add a call, put its input files, if any, under inputs/ and an entry
without "exit" in the manifest's calls, then run
scripts/make_cli_transcripts.py, which records it and reports it as new. To
change an input on purpose, delete its hash from the manifest first: the
script refuses to record over a hash that differs.

tests/test_transcripts.py checks the inputs' hashes and reruns the calls;
scripts/make_cli_transcripts.py rewrites them and prints stream_report's
lines for each call that moved.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from dqc1sim.cli import main

TRANSCRIPT_DIR = Path(__file__).resolve().parent / "transcripts"
MANIFEST = TRANSCRIPT_DIR / "manifest.json"
INPUTS = TRANSCRIPT_DIR / "inputs"
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


def input_hashes() -> dict:
    """The SHA-256 of each file under inputs/, by its path there with /
    separators, in sorted order."""
    paths = {path.relative_to(INPUTS).as_posix(): path
             for path in INPUTS.rglob("*") if path.is_file()}
    return {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in sorted(paths)}


def write_calls(workdir: Path) -> list[Call]:
    """Copy the inputs into workdir and return the manifest's calls in order."""
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    return [Call(e["name"], e["directory"], tuple(e["argv"]), e["out"])
            for e in read_manifest()["calls"]]


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


def write_transcripts(calls: list[Call], results: list, inputs: dict) -> None:
    """Replace the recorded streams and the manifest with these calls'
    results and these input hashes; inputs/ is left as it is."""
    for path in TRANSCRIPT_DIR.iterdir():
        if path.is_file():
            path.unlink()
    entries = []
    for call, (code, streams) in zip(calls, results):
        entries.append({**asdict(call), "exit": code})
        for stream, data in streams.items():
            if data:
                (TRANSCRIPT_DIR / f"{call.name}.{stream}").write_bytes(data)
    MANIFEST.write_text(json.dumps({"header": environment(), "inputs": inputs, "calls": entries},
                                   indent=1) + "\n")


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
