"""Record the output digests that every benchmark run checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/record_digests.py

It writes bench/digests.json with one digest per operation at the default
seed, for the full sizes and for the ``--smoke`` sizes. A commit that is
meant to keep every verdict, witness and report byte the same must not need
to re-record.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run


def main() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    try:
        digests = {
            size: {
                op: value
                for name in run.SETUPS
                for op, value in run.output_digests(name, size == "smoke", work_dir).items()
            }
            for size in ("full", "smoke")
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
