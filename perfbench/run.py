"""Client-to-kernel benchmark of the Tile-H solve service.

Run from the repository root::

    python3 perfbench/run.py --workload warm_http --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no benchmark tracing;
``--trace 1`` is the separate traced run that prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any reply or count check fails.  See
``perfbench/README.md`` for the workloads and metrics.

This file is also the ``__main__`` that spawned executor workers re-import,
so it does nothing at import time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_STRIPPED = "PERFBENCH_STRIPPED_ENV"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_http", "gp_window", "cold_build"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # Program processes (and this one, which hosts gp_window's service) run
    # with the caller's BLAS/OpenMP thread pinning removed: re-exec without
    # it before numpy loads.
    present = [v for v in _BLAS_ENV if v in os.environ]
    if present:
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_ENV}
        env[_STRIPPED] = ",".join(present)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))

    import harness
    import workloads

    harness.OUT.mkdir(parents=True, exist_ok=True)
    stripped = [v for v in os.environ.get(_STRIPPED, "").split(",") if v]
    env = harness.environment(stripped)
    run = workloads.WORKLOADS[args.workload][args.trace]
    harness.adopt_orphans()
    try:
        res = run(args.seed % (1 << 63), args.seconds, harness.OUT)
    finally:
        killed = harness.reap_children()
    if killed:
        res.problems.append(f"processes {killed} were still running after the workload")

    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {k: {"value": float(res.metrics[k]), "unit": u} for k, u in names.items()}
    correct = not res.problems
    print(f"workload  : {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env       : " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in res.info.items():
        if k != "self_seconds_by_span":
            print(f"info      : {k} = {v}")
    for k, v in sorted(res.info.get("self_seconds_by_span", {}).items()):
        print(f"self time : {k:<22} {v:10.4f} s")
    for k, m in metrics.items():
        print(f"metric    : {k:<24} {m['value']:>14.6g} {m['unit']}")
    for k, v in res.notes.items():
        print(f"not here  : {k}: {v}")
    for p in res.problems:
        print(f"FAILED    : {p}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "info": res.info, "notes": res.notes,
              "problems": res.problems, "metrics": metrics}
    path = harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": int(res.attempted),
                      "failed": int(res.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
