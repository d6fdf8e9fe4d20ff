"""Record the sweep workloads' reference values in ``reference.json``.

For every key 0..REFERENCE_KEYS-1 this runs each sweep workload's
full-size command through the CLI and stores each member's
``[deficit, fraenkel]``.  ``run.py`` checks every sweep row against
these values.  Run it from the repository root; it takes about ten
minutes on one core:

    python3 bench/make_reference.py

Re-record only in a change that alters the benchmark, never in one that
claims a speed-up.
"""

from __future__ import annotations

import json
import shutil
import sys

from workloads import (REFERENCE_KEYS, REFERENCE_PATH, ROOT, Sweep, WORKLOADS,
                       import_cli, run_cli)


def main() -> int:
    cli = import_cli()
    out_dir = ROOT / ".bench_out" / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for wl in WORKLOADS.values():
        if not isinstance(wl, Sweep):
            continue
        keys = {}
        for key in range(REFERENCE_KEYS):
            rc, _, err = run_cli(cli, wl.argv(key, out_dir, wl.count))
            if rc != 0:
                print(f"{wl.name} key {key}: exit code {rc}: {err}", file=sys.stderr)
                return 1
            with open(out_dir / "sweep.json") as fh:
                rows = json.load(fh)["rows"]
            keys[str(key)] = [[float(r["deficit"]), float(r["fraenkel"])] for r in rows]
            print(f"{wl.name} key {key} done", flush=True)
        reference[wl.name] = {"count": wl.count, "keys": keys}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
