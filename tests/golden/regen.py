"""Rewrite manifest.json from the workflows of tests/test_golden.py.

    PYTHONPATH=src python tests/golden/regen.py

Run it only for a change that moves output bits on purpose. Before it writes
the manifest it prints each file that moved, appeared or vanished, with its
old -> new digest; CHANGES.md lists those files and says why each moved.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from test_golden import MANIFEST, environment, moved, run_workflows  # noqa: E402


def main():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            files = run_workflows()
        finally:
            os.chdir(here)
    old = json.loads(MANIFEST.read_text())["files"] if MANIFEST.exists() else {}
    changed = moved(old, files)
    for p in changed:
        print(f"{p}: {old.get(p, 'absent')} -> {files.get(p, 'absent')}")
    MANIFEST.write_text(json.dumps({"environment": environment(), "files": files},
                                   indent=2, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(files)} files, {len(changed)} changed")


if __name__ == "__main__":
    main()
