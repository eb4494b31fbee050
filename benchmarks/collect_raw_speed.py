"""Consolidate the raw-speed benchmark outputs into one artifact.

Standalone::

    python benchmarks/collect_raw_speed.py \
        [--out benchmarks/out/BENCH_raw_speed.json]

Merges the rows written by ``bench_parallel_backend.py`` (dense phases)
and ``bench_grid_oversubscribe.py`` (out-of-core overhead) into
a single ``BENCH_raw_speed.json`` with one section per source, plus a
summary of the headline numbers.  Sections whose source file has not
been produced yet are skipped with a note — the rollup never invents
rows — but at least one section must exist.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (section name, source file under benchmarks/out/).
SECTIONS = [
    ("parallel", "BENCH_parallel.json"),
    ("grid", "BENCH_grid.json"),
]


def summarise(sections: dict[str, list[dict]]) -> dict:
    summary: dict[str, object] = {}
    if "parallel" in sections:
        summary["best_parallel_speedup"] = max(
            row["speedup"] for row in sections["parallel"]
        )
    if "grid" in sections:
        summary["worst_grid_overhead"] = max(
            row["overhead"] for row in sections["grid"]
        )
    return summary


def main(argv: list[str] | None = None) -> int:
    out_dir = Path(__file__).parent / "out"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(out_dir / "BENCH_raw_speed.json"))
    args = parser.parse_args(argv)

    sections: dict[str, list[dict]] = {}
    for name, filename in SECTIONS:
        path = out_dir / filename
        if not path.exists():
            print(f"note: {path} missing; section {name!r} skipped")
            continue
        sections[name] = json.loads(path.read_text())["rows"]
    if not sections:
        print("FAIL: no benchmark outputs to consolidate", file=sys.stderr)
        return 1

    doc = {"sections": sections, "summary": summarise(sections)}
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path} ({', '.join(sections)})")
    for key, value in doc["summary"].items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
