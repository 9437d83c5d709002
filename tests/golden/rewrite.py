"""Rewrite the CLI golden table, ``cli_digests.json`` beside this script,
from the code on the path, and print every entry that moved, appeared or
went away.

    PYTHONPATH=src python tests/golden/rewrite.py

A change that moves an entry lists it in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402


def main() -> int:
    old = json.loads(test_golden.TABLE.read_text()) if test_golden.TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        new = test_golden.current_digests(Path(directory))
    for entry in sorted(old.keys() | new.keys()):
        if entry not in new:
            print(f"removed: {entry}")
        elif entry not in old:
            print(f"added:   {entry}")
        elif old[entry] != new[entry]:
            print(f"moved:   {entry}")
    test_golden.TABLE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    moved = sum(old.get(entry) != digest for entry, digest in new.items())
    print(f"{len(new)} entries, {moved} changed, {len(old.keys() - new.keys())} removed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
