"""Record the reference outputs that runs on the default seed compare with.

    python3 perfbench/make_reference.py

Builds every workload on the default seed, runs each request once, checks
it, and writes the numeric outputs to ``reference_seed0.json``.  Run it only
at a commit whose outputs are the agreed reference; a later run of the
benchmark on seed 0 counts any output that moved beyond the tolerance in
``workloads.REF_REL_TOL`` as a failed request.
"""

import json
import shutil
import sys
import tempfile

from run import HERE, WORK  # also puts src/ on sys.path for workloads

import workloads


def main():
    WORK.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        work = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=WORK)
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, work)
            reference[name] = {}
            for req in wl.requests:
                errors, values = req.check(req.call())
                if errors:
                    sys.exit(f"{req.key} fails its check: {errors}")
                reference[name][req.key] = values
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference_seed0.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
