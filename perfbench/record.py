"""Record the reference outputs of the current commit for a range of seeds.

    python3 perfbench/record.py --workload scan_hardy --seeds 0-63

Scans keep a SHA-256 prefix of each unit's CSV, to be reproduced byte for
byte, and the (check, config) rows every unit prints.  large_query
keeps per-output fingerprints (see ``workloads._fingerprint``), compared
within ``REL_TOL``; a query that misses its deadline here (as in a timed
pass, in reference-host seconds) is stored as null and is then checked only
against the closed forms.  Outputs that fail their
closed-form check are not recorded: the run stops instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def record_seed(workload):
    if not isinstance(workload, workloads.LargeQuery):
        return [workloads.digest_of(workload.unit_csv(j, {})) for j in range(workload.UNITS)]
    fingerprints = []
    speed = workloads.HostSpeed()
    for item in workload.items:
        _, text, outcome = workload.run_item(item, speed.current())
        speed.mark()
        if outcome == "exception":
            raise SystemExit(f"{workload.argv(item)} raised")
        if outcome == "miss":
            fingerprints.append(None)
            continue
        ok, fp = workload.check(item, text)
        if not ok:
            raise SystemExit(f"{workload.argv(item)} disagrees with its closed form")
        fingerprints.append(fp)
    return fingerprints


def record(name: str, seeds, inputs: Path) -> dict:
    """Reference document of workload ``name`` for ``seeds``."""
    cls = workloads.WORKLOADS[name]
    recorded = {}
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            workload = cls(seed, reference={"seeds": {}})
            workload.generate(inputs)
            workload.load(inputs)
            recorded[str(seed)] = record_seed(workload)
            print(f"{name} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    doc = {"params": workload.params(), "seeds": recorded}
    if not isinstance(workload, workloads.LargeQuery):
        rows = csv.reader(io.StringIO(workload.unit_csv(0, {})))
        doc["configs"] = [[r[0], r[1]] for r in list(rows)[1:]]
    return doc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    inputs = Path(__file__).resolve().parent / "_work" / f"record-{args.workload}"
    doc = record(args.workload, range(first, last + 1), inputs)
    path = workloads.reference_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    seeds = doc.pop("seeds")
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in seeds.items())
    with open(path, "w") as fh:
        # one line per seed keeps the file short and its diffs readable
        fh.write(json.dumps(doc, indent=1)[:-2] + ',\n "seeds": {\n' + body + "\n }\n}\n")


if __name__ == "__main__":
    main()
