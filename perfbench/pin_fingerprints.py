"""Rewrite fingerprints.json: the sha256 of every workload's generated lines.

    python3 perfbench/pin_fingerprints.py

Pins generator seeds 0-99 for graphs drawn from ``--seed`` and the fixed
seed of each fixture.  A run whose lines no longer match stops with an
error, so rerun this only when a workload is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(100)

if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import workloads as wl

    table: dict[str, dict[str, str]] = {}
    for w in wl.WORKLOADS.values():
        seeds = SEEDS if w.fixture_seed is None else [w.fixture_seed]
        pins = table.setdefault(w.input_key, {})
        for seed in seeds:
            if str(seed) not in pins:
                pins[str(seed)] = wl.fingerprint(wl.make_lines(w, seed))
    with open(wl.PINNED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
