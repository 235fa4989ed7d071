#!/usr/bin/env python3
"""Rewrite the CLI transcripts under tests/transcripts/.

Writes the inputs of every call in tests/cli_transcripts.py to a temporary
directory, runs the calls in process, replaces the recorded streams, exit
codes and header, and prints, for each call whose bytes moved, against the
transcripts it replaced: a changed exit code, a move of output from one
stream to another as one line, and the largest |diff| in each column that
moved of the streams present on both sides (inf where text or a length
differs). A call the old transcripts lack is counted as new, not as moved,
so "0 moved" still means that no recorded output changed.

Usage: python3 scripts/make_cli_transcripts.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cli_transcripts import (
    MANIFEST, read_manifest, read_streams, run, stream_report, write_calls, write_transcripts,
)


def main() -> int:
    old = {}
    if MANIFEST.exists():
        old = {entry["name"]: (entry["exit"], read_streams(entry["name"]))
               for entry in read_manifest()["calls"]}
    with tempfile.TemporaryDirectory() as tmp:
        calls = write_calls(Path(tmp))
        results = [run(call, Path(tmp)) for call in calls]
    moved = new = 0
    for call, (code, streams) in zip(calls, results):
        if call.name not in old:
            print(f"{call.name}: new")
            new += 1
            continue
        old_code, old_streams = old[call.name]
        if (code, streams) == (old_code, old_streams):
            continue
        moved += 1
        print(f"{call.name}: exit {old_code} -> {code}" if code != old_code else f"{call.name}:")
        for line in stream_report(streams, old_streams):
            print(f"  {line}")
    for name in old.keys() - {call.name for call in calls}:
        print(f"{name}: dropped")
    write_transcripts(calls, results)
    print(f"wrote {len(calls)} calls to {MANIFEST.parent}; {moved} moved, {new} new")
    return 0


if __name__ == "__main__":
    sys.exit(main())
