"""Record the exact outputs of every workload's input sets as references.

    python3 perfbench/record_refs.py [--workload W ...] [--sets FIRST-LAST]

Run only at a commit whose outputs are known good: the benchmark counts
every later difference from these files as an error.
"""

from __future__ import annotations

import argparse
import gzip
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, ref_sets  # noqa: E402


def read_refs(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_refs(path: Path, refs: dict) -> None:
    """One item per line; mtime 0 keeps unchanged references byte-identical."""
    lines = []
    for iset, items in refs["sets"].items():
        lines.append(json.dumps(iset) + ":{\n" + ",\n".join(
            f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}"
            for k, v in items.items()) + "}")
    text = ("{" + json.dumps("recorded_at") + ":" + json.dumps(refs["recorded_at"]) + ",\n"
            + json.dumps("sets") + ":{\n" + ",\n".join(lines) + "}}\n")
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(text.encode("utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--sets", help="input sets to record, as first-last "
                    "(default: every set the workload's references hold)")
    args = ap.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                            capture_output=True, text=True).stdout.strip() or None
    for workload in args.workload or WORKLOADS:
        path = HERE / "refs" / f"{workload}.json.gz"
        refs = read_refs(path) if path.exists() else {"sets": {}}
        if args.sets:
            first, last = (int(x) for x in args.sets.split("-"))
            sets = range(first, last + 1)
        else:
            sets = ref_sets(workload)
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for iset in sets:
                out = Path(tmp) / f"{iset}.json"
                subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                     "--input-set", str(iset), "--scratch", str(Path(tmp) / "scratch"),
                     "--record", str(out)], check=True, cwd=HERE.parent)
                refs["sets"][str(iset)] = json.loads(out.read_text())
                refs.setdefault("recorded_at", {})[str(iset)] = commit
                print(f"{workload} set {iset}: {len(refs['sets'][str(iset)])} items")
        refs["sets"] = dict(sorted(refs["sets"].items(), key=lambda kv: int(kv[0])))
        write_refs(path, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
