#!/usr/bin/env python3
"""Write the simulator's reference CSVs that the `sim` workload checks
against, from the slapx in this checkout's `src/`:

    python3 perfbench/make_golden.py

They were written once from the commit that introduced the benchmark; a
later change must reproduce them byte for byte, so rewrite them only when
a change to the simulator's output is intended and reviewed.
"""
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from slapx import simnet  # noqa: E402
from workloads import (GOLDEN_DIR, REFERENCE_SEED, dos_csv, fraud_csv,  # noqa: E402
                       hijack_csv)


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    files = {f"dos_{s}.csv": dos_csv(s, REFERENCE_SEED)[0]
             for s in simnet.DOS_SCENARIOS}
    files["fraud_grid.csv"] = fraud_csv(REFERENCE_SEED)[0]
    files["hijack_grid.csv"] = hijack_csv(REFERENCE_SEED)[0]
    for name, text in files.items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
