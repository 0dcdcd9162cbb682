"""gxbtc benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run starts one fresh interpreter (benchmark/worker.py) that
sets up the workload's inputs from the seed and then runs rounds of all
of the workload's operations until the rounds' timed intervals add up to
``--seconds``.  With ``--trace 0`` the run then starts set-up-only
interpreters until it has ``SETUP_SAMPLES`` set-up times (or
``SETUP_PROBE_BUDGET_S`` has passed), and reports the median round's
``wall_s``, the median ``setup_s`` and the ``peak_rss_mb`` of the first
round.  With ``--trace 1`` the rounds are traced and the run reports
per-layer metrics instead; no end-to-end figure comes from a traced run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(provenance, per-operation exit codes, spans of a traced run) is written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
SETUP_PROBE_BUDGET_S = 3    # set-up-only workers start only within this time
WORKER_TIMEOUT_S = 165
RUN_BUDGET_S = 150          # no set-up-only worker starts after this much of the run
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

sys.path.insert(0, str(HERE))
from tracer import combine, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RunError(Exception):
    pass


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args):
    import numpy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(args, rundir, tag, extra):
    """Run one worker to completion and return its result record."""
    result = rundir / f"{tag}.json"
    log = rundir / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(rundir / tag),
           "--result", str(result)] + extra
    with open(log, "w") as fh:
        spawned = time.monotonic_ns()
        try:
            done = subprocess.run(cmd + ["--spawned-ns", str(spawned)], cwd=ROOT,
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"{tag} did not finish in {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not result.exists():
        tail = log.read_text()[-4000:]
        raise RunError(f"{tag} exited {done.returncode}:\n{tail}")
    return json.loads(result.read_text())


def run(args, rundir):
    """The measuring worker, then set-up-only workers for more set-up samples."""
    start = time.monotonic()
    extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    main_run = spawn(args, rundir, "run", extra)
    setups = [main_run["setup_s"]]
    probe_start = time.monotonic()
    while (not args.trace and len(setups) < SETUP_SAMPLES
           and time.monotonic() - probe_start < SETUP_PROBE_BUDGET_S
           and time.monotonic() - start < RUN_BUDGET_S):
        setups.append(spawn(args, rundir, f"setup{len(setups)}", ["--setup-only"])["setup_s"])
    return main_run, setups


def summarize(args, main_run, setups):
    rounds = main_run["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if op["status"] != "ok")
    if args.trace:
        units = metric_units()
        values = combine(main_run["setup_layers"], [r["per_layer"] for r in rounds])
        values["import.s"] = main_run["import_s"]
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in rounds)
    else:
        units = END_TO_END_UNITS
        values = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
    return {
        "correct": all(op["status"] != "wrong" for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_workload(args):
    """Run one workload, write its record and print its result."""
    outdir = ROOT / ".bench_out"
    rundir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        main_run, setups = run(args, rundir)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    spans = main_run.pop("spans", None)
    summary = summarize(args, main_run, setups)
    record = {
        "provenance": provenance(args),
        "run": main_run,
        "setup_samples": setups,
        "result": summary,
    }
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (outdir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    codes = [[op["exit"] for op in r["ops"]] for r in main_run["rounds"]]
    print(json.dumps({"provenance": record["provenance"], "rounds": len(codes),
                      "setup_samples": len(setups), "exit_codes": codes,
                      "attempted": summary["attempted"], "failed": summary["failed"]}))
    for name, metric in summary["metrics"].items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="a workload, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gxbtc" / "cli.py").is_file():
        print(f"benchmark: no gxbtc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
