"""The taxidest benchmark: one command, named workloads, one JSON result.

    python3 perfbench/run.py --workload mlp-porto --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                       # every workload, seed 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Progress goes to standard error.  Exit code 0
when no operation failed, 1 when a stage raised or a check failed, 2 (with
no result line) when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _single_blas_thread() -> int:
    """One BLAS thread.  The program runs one op at a time from Python; on a
    few shared CPUs a second BLAS thread, which has to meet the first at
    every GEMM, made train times follow the load of the other CPU more than
    the program (see README)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _import_program():
    """Import taxidest from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "taxidest" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'taxidest'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import taxidest

    if Path(taxidest.__file__).resolve().parent != (src / "taxidest").resolve():
        print(f"perfbench: taxidest imported from {taxidest.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def _run_one(args) -> int:
    threads = _single_blas_thread()
    _import_program()
    import pipeline
    import spans
    from taxidest import _kernels

    wl = pipeline.WORKLOADS[args.workload]
    print(
        f"perfbench {wl.name} seed {args.seed}: {args.seconds} s, trace {args.trace}, "
        f"BLAS threads {threads}, kernel backend {_kernels.backend()}",
        file=sys.stderr,
    )
    work = OUT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        st, e2e = pipeline.run(wl, args.seed, args.seconds, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        st.check("trace_coverage", spans.check_coverage, tracer)
        tracer.save(OUT / f"trace-{wl.name}-seed{args.seed}.npz")
    if not e2e:  # the first round did not complete: counts, but no metrics
        metrics = {}
    elif tracer is not None:
        metrics = spans.layer_metrics(tracer, wl.batches)
    else:
        metrics = e2e
    for e in st.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": st.correct,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if st.correct else 1


def _run_all(args) -> int:
    """Every workload in its own process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in ("mlp-porto", "brnn-long", "memnet-10k"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        code = max(code, proc.returncode)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all", "mlp-porto", "brnn-long", "memnet-10k"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0, help="how long to keep starting rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
