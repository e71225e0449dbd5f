"""Run one benchmark workload, or all of them in turn, and print its metrics.

    python3 bench/run.py --workload score-dense-s22 --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --seed 1 --seconds 38      # all three, one process each

A workload runs in this fresh, single-threaded process, in a closed loop
with one operation in flight. After one untimed warm-up op it repeats
whole rounds of its operations for at most about --seconds, and checks
every result against `oracle`. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; setup_s is the median over fresh processes that
each import intension, make the inputs and load them. With --trace 1 the run spends half its time
untraced and half traced, and reports the per-layer metrics of `spans`
and trace.overhead_ratio; the spans are written to bench/out/.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
TRACED_SETUPS = 3
IMPORT_FLOOR_REPEATS = 3
# an allocation sized by unchecked input (one of the cli-small faults asks
# for 8 TiB) must fail in this process, not exhaust a shared machine
ADDRESS_SPACE_LIMIT = 4 << 30
# glibc's default malloc moves its mmap and trim thresholds as blocks are
# freed, so whether a freed block goes back to the kernel, to be faulted in
# again by the next op, depends on the heap's history: a 0.4 ms
# algorithmic_inheritance call flipped between 0.42 and 0.82 ms with the
# order of two imports. A fixed policy makes the figures independent of
# that history.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_POLICY = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 1 << 30}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


FAILED = object()  # the result of an operation that raised instead of returning


def confine():
    """A fixed malloc policy here; one CPU, one worker thread and a capped address space here and in every child."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        print("bench: no glibc mallopt; malloc keeps its default, history-dependent policy", file=sys.stderr)
    else:
        for param, value in MALLOC_POLICY.items():
            mallopt(param, value)
    if hasattr(os, "sched_setaffinity"):
        # one CPU, inherited by every child: on a shared 2-CPU VM, unpinned CLI
        # processes spread more (IQR/median 0.19 against 0.14, over 340 each in
        # alternating 6 s windows) at the same median
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def import_program():
    """Import `intension` from this checkout's src/, and nowhere else."""
    if not (SRC / "intension" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'intension'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import intension
    import intension.cli

    if Path(intension.__file__).resolve().parent != SRC / "intension":
        sys.exit(f"bench: imported intension from {intension.__file__}, not from {SRC}")
    return intension


def set_up(workload, api, seed, workdir):
    """Make the inputs, write them and load them into the program."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.prepare(seed, workdir)
    return inputs, workload.load(api, inputs)


def setup_seconds(args) -> float:
    """Median time, over fresh processes, from process start to ready for the first op.

    Each probe is this script with --probe: it imports intension, makes
    the inputs, loads them and prints "ready". One probe runs at a time.
    """
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - begin)
            proc.communicate(timeout=120)
        if not ready or proc.returncode != 0:
            sys.exit(f"bench: set-up probe exited {proc.returncode}")
    return statistics.median(times)


def timed_rounds(workload, ops, expected, seconds, tracer=None, warm_up=True):
    """Whole rounds of ops, one in flight, for at most about `seconds`.

    With `warm_up`, the first op runs once untimed and uncounted (its
    result is still checked), so lazy set-up inside the program and the
    page cache are settled before timing. A further round starts only if,
    at the pace of the round before, it ends within `seconds`. Each result
    is checked as soon as its op returns, outside the op's time, and then
    dropped, so memory does not grow with the op count.
    """
    tally = SimpleNamespace(latencies=[], failed=0, wrong=0, errors=[])

    def check(index, result):
        if result is FAILED or workload.crashed(result):
            return False
        errors = workload.errors(expected[index], result)
        tally.wrong += bool(errors)
        tally.errors += [f"op {index}: {e}" for e in errors][: max(0, 10 - len(tally.errors))]
        return True

    if warm_up:
        check(0, ops[0]())
    begin = time.perf_counter()
    while True:
        round_begin = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(tally.latencies)
            start = time.perf_counter_ns()
            try:
                result = op()
            except Exception:  # counted as a failed op; the run goes on
                result = FAILED
            tally.latencies.append(time.perf_counter_ns() - start)
            tally.failed += not check(index, result)
        now = time.perf_counter()
        if now + (now - round_begin) - begin > seconds:
            return tally


def ops_per_second(latencies, per_round: int) -> float:
    """Ops per second of one round in which each op takes its median latency over the run.

    With one op in flight this is the closed loop's throughput; taking each
    op's median over the whole run, instead of timing whole rounds, keeps
    a burst on the shared host from moving it.
    """
    slots = [statistics.median(latencies[index::per_round]) for index in range(per_round)]
    return per_round / (sum(slots) / 1e9)


def import_floor() -> float:
    """Median wall time of a process that only imports intension."""
    times = []
    for _ in range(IMPORT_FLOOR_REPEATS):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import intension"], check=True, timeout=120)
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, name in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_bytes", "B")):
        if metric.endswith(suffix):
            return name
    return "count"


def run_workload(args) -> dict:
    confine()
    import workloads
    from spans import Tracer

    api = import_program()
    workload = workloads.WORKLOADS[args.workload]()
    workload.in_process = bool(args.trace)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, state = set_up(workload, api, args.seed, workdir)
        if args.probe:
            print("ready", flush=True)
            return {}
        expected = workload.expected(inputs)
        if not args.trace:
            ops = workload.ops(api, state)
            tally = timed_rounds(workload, ops, expected, args.seconds)
            tallies = [tally]
            who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliSmall) else resource.RUSAGE_SELF
            metrics = {
                "ops_per_s": ops_per_second(tally.latencies, len(ops)),
                "op_p50_s": statistics.median(tally.latencies) / 1e9,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            }
            metrics = {"setup_s": setup_seconds(args), **metrics}
        else:
            plain = timed_rounds(workload, workload.ops(api, state), expected, args.seconds / 2)
            tracer = Tracer()
            tracer.install(api)
            try:
                for _ in range(TRACED_SETUPS):
                    state = None
                    inputs, state = set_up(workload, api, args.seed, workdir)
                tracer.start_ops()
                traced = timed_rounds(workload, workload.ops(api, state), expected, args.seconds / 2, tracer, warm_up=False)
            finally:
                tracer.remove()
            tallies = [plain, traced]
            metrics = tracer.layer_metrics(len(traced.latencies))
            metrics["cli.import_floor_s"] = import_floor()
            metrics["trace.overhead_ratio"] = statistics.median(traced.latencies) / statistics.median(plain.latencies)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", workload=args.workload, seed=args.seed)
            for name, row in sorted(tracer.summary().items()):
                print(f"# span {name:<40} calls {row['calls']:>8}  total {row['total_s']:.6f} s  self {row['self_s']:.6f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for tally in tallies:
        for error in tally.errors:
            print(f"bench: {args.workload}: {error}", file=sys.stderr)
    return {
        "correct": not any(tally.wrong for tally in tallies),
        "attempted": sum(len(tally.latencies) for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    import workloads

    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        summary[name] = result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workloads": summary}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    result = run_workload(args)
    if args.probe:
        return 0
    for metric, m in result["metrics"].items():
        print(f"{metric:<36} {m['value']:.6g} {m['unit']}")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
