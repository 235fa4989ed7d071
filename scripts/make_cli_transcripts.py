#!/usr/bin/env python3
"""Rewrite the CLI transcripts under tests/transcripts/.

The calls are the entries of tests/transcripts/manifest.json, and their
inputs are the files under tests/transcripts/inputs/, a frozen record like
tests/fixtures/ that this script reads and never writes. First it checks
each input against the SHA-256 that the manifest records: if a recorded
hash differs, or its file is gone, it names the file on stderr and exits 1
before it writes anything. Then it copies the inputs to a temporary
directory, runs the calls in process, replaces the recorded streams, exit
codes, input hashes and header, and prints, for each call whose bytes
moved: a changed exit code, a move of output from one stream to another as
one line, and the largest |diff| in each column that moved of the streams
present on both sides (inf where text or a length differs).

An input with no recorded hash and a call with no recorded exit code are
recorded and counted as new, not as moved, so "0 moved" still means that no
recorded output changed. So a new call is an input file, if it needs one,
plus a manifest entry with its name, directory, argv and --out file; and
changing an input on purpose means deleting its hash from the manifest
first, then running this script.

Usage: python3 scripts/make_cli_transcripts.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cli_transcripts import (
    INPUTS, MANIFEST, input_hashes, read_manifest, read_streams, run, stream_report, write_calls,
    write_transcripts,
)


def main() -> int:
    manifest = read_manifest()
    recorded, hashes = manifest["inputs"], input_hashes()
    changed = [name for name, digest in recorded.items() if hashes.get(name) != digest]
    for name in changed:
        problem = "differs from its SHA-256" if name in hashes else "is missing; it has a SHA-256"
        print(f"{INPUTS / name} {problem} in {MANIFEST}. Delete that hash first to change "
              f"or drop the input on purpose.", file=sys.stderr)
    if changed:
        return 1
    new = 0
    for name in sorted(hashes.keys() - recorded.keys()):
        print(f"inputs/{name}: new")
        new += 1
    old = {entry["name"]: (entry["exit"], read_streams(entry["name"]))
           for entry in manifest["calls"] if "exit" in entry}
    with tempfile.TemporaryDirectory() as tmp:
        calls = write_calls(Path(tmp))
        results = [run(call, Path(tmp)) for call in calls]
    moved = 0
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
    write_transcripts(calls, results, hashes)
    print(f"wrote {len(calls)} calls to {MANIFEST.parent}; {moved} moved, {new} new")
    return 0


if __name__ == "__main__":
    sys.exit(main())
