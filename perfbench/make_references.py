"""Write the stored references for the seeded workloads.

    python3 perfbench/make_references.py

Runs one op of every seeded workload at each seed in
``workloads.REFERENCE_SEEDS`` against the current ``src/`` and writes its
outputs to ``perfbench/references/<workload>.seed<seed>.json``.  The
``oracle`` reference comes from ``oracle_reference.py`` instead, which does
not use the package.  Only regenerate references from a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl


def main() -> int:
    pkg = wl.load_package()
    wl.REFERENCES.mkdir(exist_ok=True)
    for name, cls in wl.WORKLOADS.items():
        if not cls.uses_seed:
            continue
        for seed in wl.REFERENCE_SEEDS:
            workdir = wl.ROOT / ".perfbench" / f"reference-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                workload = cls(pkg, seed, workdir)
                workload.setup()
                workload.before_op()
                result = workload.op()
                workload.check(result, None)
                path = wl.reference_path(name, seed)
                path.write_text(json.dumps(workload.summarize(result), indent=1) + "\n")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"wrote {path.relative_to(wl.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
