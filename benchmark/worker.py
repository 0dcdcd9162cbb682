"""One run of one workload in a fresh interpreter started by run.py.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S
        --workdir DIR --result FILE --spawned-ns T [--trace] [--setup-only]

``--spawned-ns`` is ``time.monotonic_ns()`` just before the parent started
this process, so set-up time covers interpreter start, ``import
gxbtc.cli`` and building the inputs.  After set-up the worker runs rounds
of the workload's operations until the rounds' timed intervals add up to
``--seconds``.  Every operation starts with the program's module-level
caches empty, as a fresh ``gxbtc`` process would.  A round's outputs are
checked after the round, outside its timed interval: in full in the first
round, and in later rounds by comparing SHA-256 digests with the checked
first-round outputs of the same inputs (any output that differs is
checked in full).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
import weakref
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

ROUND_BUDGET_S = 120   # no round starts once this much time has passed since spawn


def clear_program_caches():
    """Empty every module-level cache of gxbtc (lru caches, *_CACHE dicts)."""
    for name, mod in list(sys.modules.items()):
        if not (name == "gxbtc" or name.startswith("gxbtc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif "CACHE" in attr.upper() and isinstance(
                    value, (dict, weakref.WeakKeyDictionary, weakref.WeakValueDictionary)):
                value.clear()


def run_round(cli, ops):
    """Exit code (None for an uncaught exception) and duration per operation."""
    codes, times = [], []
    for op in ops:
        clear_program_caches()
        begin = time.perf_counter()
        try:
            code = cli.main(op.argv) if op.argv is not None else op.call()
        except Exception:  # an uncaught program error fails this operation only
            traceback.print_exc()
            code = None
        times.append(time.perf_counter() - begin)
        codes.append(code)
    return codes, times


def check_round(ops, codes, times, checked):
    """Per-operation records; ``checked`` maps op name -> digest of a checked output."""
    records = []
    for op, code, seconds in zip(ops, codes, times):
        record = {"name": op.name, "exit": code, "expected": op.expected_exit,
                  "s": seconds}
        if code != op.expected_exit:
            record["status"] = "failed"
            records.append(record)
            continue
        try:
            data = Path(op.output).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if checked.get(op.name) != digest:
                op.check(json.loads(data))
                checked[op.name] = digest
            record["status"] = "ok"
        except Exception as exc:  # any error while checking marks the output wrong
            if not isinstance(exc, CheckFailed):
                traceback.print_exc()
            record["status"] = "wrong"
            record["reason"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import gxbtc.cli as cli
    import_s = time.perf_counter() - t_import

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](workdir, args.seed)
    gc.collect()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s, "import_s": import_s, "operations": len(ops)}
    if tracer is not None:
        result["setup_layers"] = tracer.cut(keep=True)
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    rounds = []
    checked = {}
    measured = 0.0
    while not rounds or (measured < args.seconds and
                         time.monotonic_ns() - args.spawned_ns < ROUND_BUDGET_S * 1e9):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        codes, times = run_round(cli, ops)
        wall_s = time.perf_counter() - t0
        measured += wall_s
        record = {"wall_s": wall_s}
        if not rounds:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.active = False
            record["per_layer"] = tracer.cut(keep=not rounds)
        t_check = time.perf_counter()
        record["ops"] = check_round(ops, codes, times, checked)
        record["check_s"] = time.perf_counter() - t_check
        rounds.append(record)
    result["rounds"] = rounds
    if tracer is not None:
        result["spans"] = tracer.kept_spans()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
