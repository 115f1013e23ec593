"""Run one qat8 benchmark workload and print its result.

    python3 perfbench/run.py --workload batch-eval --seed 3 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is the run record (versions, BLAS, threads, timings with
their sample counts, the workload's named figures). A traced run also
writes its spans to ``.bench_out/`` in the checkout.

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

# One BLAS thread: the GEMMs are small, the machine may be shared, and the
# thread count must be fixed before NumPy loads its BLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import qat8
    except ImportError as exc:
        print(f"qat8 not found under {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(qat8.__file__).resolve().parent != SRC / "qat8":
        print(f"qat8 imported from {qat8.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "qat8").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "git_commit": _git_commit(), "src_sha256": _source_sha256()}


def main(argv=None) -> int:
    _import_package()
    from workloads import WORKLOADS, run_workload

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = dict(result.pop("record"), **_environment())
    tracer = result.pop("tracer", None)
    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        record["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
