"""The committed CLI transcripts (tests/cli_transcripts.py), rerun in process.

Where this environment is the one in the transcripts' header, each stream
must match byte for byte. Elsewhere every number must be within TOLERANCE
and every other value must match, and the help pages, which argparse
formats differently from one Python to the next, are compared only on the
recording Python version.
"""

import json

import pytest

from cli_transcripts import (
    TOLERANCE, Call, column_diffs, environment, read_manifest, read_streams, run, stream_report,
    write_calls,
)

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
