"""Write the reference outputs and counts the benchmark checks against.

Run from the root of a checkout, at the commit whose behaviour is the
reference:

    python3 bench/make_reference.py

It runs every task of every workload once, at workload seed 0, and keeps
each atlas panel dump, gzipped, as
``bench/reference/atlas-b<budget>-seed<s>.txt.gz``; a build that fails
keeps no dump.  ``bench/reference/expected.json`` records, per workload
and task, whether it passed and the work counts that must repeat exactly.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    run.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        workdir = Path(tmp)
        cli, _ = run.prepare("lattice", 0, workdir)  # imports src/sphcodes
        import workloads
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        expected: dict = {}
        for name, make in workloads.WORKLOADS.items():
            tasks = (make(0, workdir, use_reference=False) if name == "spoiling"
                     else make(0, workdir))
            attempts, _ = run.run_loop(tasks, 0.0, cli.main, workdir)
            run.check_attempts(attempts)
            for a in attempts:
                if a.check_failed:
                    raise SystemExit(f"error: {a.task.label}: {a.error}")
                record = {"ok": a.error is None, **a.counts}
                expected.setdefault(name, {})[a.task.label] = record
                print(f"{a.task.label}: {a.seconds:.2f} s {record} {a.error or ''}")
                if a.task.label.startswith("atlas seed") and a.error is None:
                    seed = a.task.label.split()[-1]
                    path = workloads.REFERENCE_DIR / (
                        f"atlas-b{workloads.ATLAS_BUDGET}-seed{seed}.txt.gz")
                    path.write_bytes(gzip.compress(a.outs[0].read_bytes(), mtime=0))
        (workloads.REFERENCE_DIR / "expected.json").write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
