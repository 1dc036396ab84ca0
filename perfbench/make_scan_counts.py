"""Regenerate scan_counts.json, the singular-set counts the scan workload
is checked against.

    python3 perfbench/make_scan_counts.py

Counts come from exact default-configuration scans.  Before writing, the
table is cross-checked: complementary sizes agree (counts[r] == counts[N-r]),
a prime modulus has no vanishing minor, N = 16 agrees with a scan
without either reduction, and every modulus the workload scans with
`--prefilter` agrees with a prefilter scan.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fourier_minors.theorems import scan_all  # noqa: E402
from workloads import SCAN_TASKS  # noqa: E402


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def main() -> int:
    table = {}
    for n, _ in SCAN_TASKS:
        counts = scan_all(n).counts
        for r in range(1, n):
            if counts[r] != counts[n - r]:
                raise SystemExit(f"N={n}: counts[{r}] != counts[{n - r}]")
        table[str(n)] = {str(r): c for r, c in sorted(counts.items())}
        print(f"N={n}: {sum(counts.values())} singular sets", file=sys.stderr)
    for n, counts in table.items():
        if is_prime(int(n)) and any(counts.values()):
            raise SystemExit(f"N={n} is prime but has singular sets")
    plain = scan_all(16, use_complement=False, use_shift_classes=False).counts
    if {str(r): c for r, c in plain.items()} != table["16"]:
        raise SystemExit("N=16 differs without the reductions")
    for n, extra in SCAN_TASKS:
        if "--prefilter" not in extra:
            continue
        pre = scan_all(n, exact=False).counts
        if {str(r): c for r, c in pre.items()} != table[str(n)]:
            raise SystemExit(f"N={n} differs under the prefilter")
    (HERE / "scan_counts.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
