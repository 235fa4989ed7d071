"""The committed CLI transcripts (tests/cli_transcripts.py), rerun in process.

Where this environment is the one in the transcripts' header, each stream
must match byte for byte. Elsewhere every number must be within TOLERANCE
and every other value must match, and the help pages, which argparse
formats differently from one Python to the next, are compared only on the
recording Python version. The same checks rerun in child processes under
other BLAS kernels and SIMD targets.
"""

import json
import subprocess
import sys

import pytest

from cli_transcripts import (
    TOLERANCE, Call, column_diffs, environment, read_manifest, read_streams, run, stream_report,
    write_calls,
)
from helpers import package_env

MANIFEST = read_manifest()


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """The work directory with every call's inputs written, and the calls by name."""
    workdir = tmp_path_factory.mktemp("transcripts")
    header, here = MANIFEST["header"], environment()
    if header != here:
        print(f"transcripts recorded on {header}, run on {here}: "
              f"numbers compared within {TOLERANCE:g}, not by bytes")
    return workdir, {call.name: call for call in write_calls(workdir)}


def test_the_calls_are_the_recorded_ones(calls):
    _, by_name = calls
    assert [(c.name, c.directory, list(c.argv), c.out) for c in by_name.values()] == [
        (e["name"], e["directory"], e["argv"], e["out"]) for e in MANIFEST["calls"]]


@pytest.mark.parametrize("entry", MANIFEST["calls"], ids=lambda entry: entry["name"])
def test_call_reproduces_its_transcript(entry, calls):
    workdir, by_name = calls
    header, here = MANIFEST["header"], environment()
    if entry["name"].startswith("help") and header["python"] != here["python"]:
        pytest.skip(f"help pages recorded on Python {header['python']}")
    code, streams = run(by_name[entry["name"]], workdir)
    assert code == entry["exit"]
    for stream, want in read_streams(entry["name"]).items():
        if header == here:
            assert streams[stream] == want, f"{stream} differs from the transcript"
        else:
            moved = {column: diff for column, diff in column_diffs(streams[stream], want).items()
                     if not diff <= TOLERANCE}
            assert not moved, f"{stream} columns beyond {TOLERANCE:g}: {moved}"


def test_a_stream_move_is_reported_as_one_line(tmp_path):
    # bad-string-entries once printed a trace report on stdout, when numpy
    # read the quoted entries as numbers; now it is one error line on stderr.
    (tmp_path / "string-entries.json").write_text(json.dumps(
        {"dim": 2, "re": [[1, 0], [0, 1.0]], "im": [[0, 0], [0, 0]]}))
    _, old = run(Call("bad-string-entries", ".", ("trace", "string-entries.json"), None), tmp_path)
    new = read_streams("bad-string-entries")
    assert old["stdout"] and not old["stderr"] and new["stderr"] and not new["stdout"]
    assert stream_report(new, old) == ["streams stdout -> stderr"]
    # a stream present on both sides keeps its per-column diffs
    moved = {**old, "stdout": old["stdout"].replace(b'"shots_used": ', b'"shots_used": 1')}
    assert stream_report(moved, old) == ["stdout shots_used: max |diff| 1e+03"]


# Settings that change the arithmetic on an AVX-512 host, each with the SIMD
# target that the host needs for it: OpenBLAS's kernels for AVX2 CPUs, and
# numpy's dispatch as on a CPU without AVX-512.
OTHER_KERNELS = {
    "openblas-haswell": ("X86_V3", {"OPENBLAS_CORETYPE": "Haswell"}),
    "numpy-no-avx512": ("X86_V4", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}),
}


@pytest.fixture(scope="module")
def other_kernels():
    """This module's checks in one child process per setting that this CPU
    runs, with the setting on the child only; the children run side by
    side. Teardown ends any child still running."""
    here = environment()["simd"]
    children = {name: subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not on_other_kernels"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**package_env(), **setting}) for name, (target, setting) in OTHER_KERNELS.items()
        if target in here}
    yield children
    for child in children.values():
        child.kill()
        child.wait()


@pytest.mark.parametrize("name", OTHER_KERNELS)
def test_transcripts_hold_on_other_kernels(name, other_kernels):
    """Under each setting every number is within TOLERANCE of the
    recording, so every evaluation count is equal."""
    if name not in other_kernels:
        pytest.skip(f"this CPU does not run {OTHER_KERNELS[name][0]}")
    out, _ = other_kernels[name].communicate(timeout=600)
    assert other_kernels[name].returncode == 0, out[-4000:]
