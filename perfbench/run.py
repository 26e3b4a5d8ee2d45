"""Benchmark for hlvertex.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and README.md for why each was chosen):

  certify   relation instances and identities applied to Schur functions
  kostka    Kostka keys computed by both engines
  rewrite   rewrite_dominant / shift_support / swap_factors on two-factor words
  cli_cold  one `python -m hlvertex.cli ... --json` process per op

The seed makes one op list.  A round runs the whole list, closed loop with
one client; for the in-process workloads a round is a fresh interpreter,
so it starts cold and its memo caches fill across its ops.  Rounds repeat
the same list until --seconds of timed rounds have passed.  The speed of
a shared machine drifts by 10-40% within seconds and between minutes, so
every op's wall time is scaled to a reference CPU speed by a fixed loop
timed beside it (refclock.py), rounds alternate between the CPUs, and each
timing is the median over rounds: ops_per_s_at_ref from the median round
time, and each op's latency its median over rounds before the median and
tail over ops are taken.  The same figures in plain wall time are in the
record.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced rounds and prints the per-layer metrics, with the tracing overhead
as the median traced round time over the median untraced one.  The last line
of stdout is the result object; the line before it is the run's record,
which is also written to .bench_out/ with the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import refclock
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END_UNITS = {"ops_per_s_at_ref": "1/s", "op_p50_s_at_ref": "s",
                    "op_tail_s_at_ref": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES_PER_ROUND = 5  # spread over the run, so one slow spell moves few
MAX_ROUNDS = 40
CHILD_TIMEOUT_S = 120  # a single child taking longer is a hang


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- statistics -------------------------------------------------------------


def tail_latency(latencies):
    """(value, percentile, samples beyond) for the highest percentile that
    has at least ten samples beyond it.  With fewer than eleven samples it
    is the maximum, with fewer than ten beyond."""
    xs = sorted(latencies)
    if not xs:
        raise ValueError("no latencies")
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def latency_metrics(rounds) -> dict:
    """ops_per_s, op_p50_s and op_tail_s from each round's op latencies
    (one list per round, the same ops in the same order): the throughput
    of the median round, and the median and tail over ops of each op's
    median latency over the rounds.  "tail" holds the tail's percentile
    and the samples beyond it."""
    per_op = [statistics.median(lats) for lats in zip(*rounds)]
    tail, pct, beyond = tail_latency(per_op)
    return {"ops_per_s": len(per_op) / statistics.median(sum(lats) for lats in rounds),
            "op_p50_s": statistics.median(per_op), "op_tail_s": tail, "tail": (pct, beyond)}


# -- child processes ----------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HLVERTEX_CACHE_DIR"}
    env["PYTHONPATH"] = SRC
    return env


def spawn_json(args, payload=None, timeout=CHILD_TIMEOUT_S):
    """Run the worker with a JSON payload on stdin; its last stdout line
    is JSON.  Returns (spawn time, parsed line)."""
    t_spawn = monotonic()
    with subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(
                None if payload is None else json.dumps(payload), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {args[0]} timed out after {timeout}s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def run_process(argv, timeout=CHILD_TIMEOUT_S):
    """Run a command to completion.  Returns (seconds from spawn to exit,
    exit code, stdout, stderr, peak RSS in MB)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
            tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (elapsed, proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_maxrss / 1024.0)


def _spawn_split(t_spawn: float, got) -> dict:
    """Spawn-to-import time of a child, split into interpreter start and
    import, from the clock readings it reported."""
    return {"setup_s": got["t_imported"] - t_spawn,
            "interpreter_s": got["t_start"] - t_spawn,
            "import_s": got["t_imported"] - got["t_start"]}


def probe_setup(module: str) -> dict:
    """Spawn a fresh interpreter that imports `module`, on this CPU, with
    the reference loop timed before and after."""
    refs = [refclock.reference_s()]
    t_spawn, got = spawn_json(["probe", module])
    refs.append(refclock.reference_s())
    if not os.path.abspath(got["file"]).startswith(SRC + os.sep):
        raise BenchError(f"{module} was imported from {got['file']}, not from {SRC}")
    out = _spawn_split(t_spawn, got)
    out["setup_s_at_ref"] = refclock.scale([out["setup_s"]], refs)[0]
    return out


def build() -> None:
    """Byte-compile the sources once, as an installed package would be, so
    no measured import pays for compiling."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "hlvertex"),
                    HERE], cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


# -- workload runs ------------------------------------------------------------


def gate_sample(ops, seed: int) -> list:
    """A seeded sample of the rewriting ops small enough to certify."""
    candidates = [i for i, op in enumerate(ops) if "word" in op
                  and sum(sum(b) for b in op["word"]) <= workloads.GATE_MAX_WEIGHT]
    rng = random.Random(seed)
    return sorted(rng.sample(candidates, min(workloads.GATE_SIZE, len(candidates))))


def round_in_process(workload, ops, trace: bool, gate) -> dict:
    """One round in a fresh worker process."""
    t_spawn, got = spawn_json(["run"], {"workload": workload, "ops": ops,
                                        "trace": trace, "gate": gate})
    got["failed"] += got["gate"]["failed"]
    got["setup"] = [_spawn_split(t_spawn, got)]
    return got


def round_cli(ops, trace: bool, gate) -> dict:
    """One round of fresh `python -m hlvertex.cli` processes, one per op."""
    part = os.path.join(OUT_DIR, "cli-trace-part.json")
    out = {"latencies": [], "refs": [refclock.reference_s()], "failed": 0, "errors": [],
           "setup": [], "peak_rss_mb": 0.0, "stats": {}, "spans": []}
    cases = []
    for i, op in enumerate(ops):
        if trace:
            argv = [sys.executable, WORKER, "cli", part, *op["argv"], "--json"]
        else:
            argv = [sys.executable, "-m", "hlvertex.cli", *op["argv"], "--json"]
        t_spawn = monotonic()
        elapsed, code, stdout, stderr, rss = run_process(argv)
        out["refs"].append(refclock.reference_s())  # the child ran on this CPU
        out["latencies"].append(elapsed)
        out["peak_rss_mb"] = max(out["peak_rss_mb"], rss)
        try:
            if code != 0:
                raise BenchError(f"exit {code}: {stderr.strip()[-500:]}")
            payload = json.loads(stdout)
        except (BenchError, ValueError) as exc:
            out["failed"] += 1
            out["errors"].append(f"op {i} {' '.join(op['argv'])}: {exc}")
        else:
            if i in gate:
                cases.append({"word": op["word"], "terms": payload["terms"]})
        if trace:
            try:
                with open(part, encoding="utf-8") as fh:
                    got = json.load(fh)
                os.remove(part)
            except (OSError, ValueError) as exc:
                raise BenchError(f"traced op {i} left no trace: {exc}") from None
            out["setup"].append(_spawn_split(t_spawn, got))
            tracer.merge(out["stats"], got["stats"])
            out["spans"].append({"op": i, "spans": got["spans"]})
    out["wall_s"] = sum(out["latencies"])
    # certify the sampled rewriting outputs, outside the timed section
    verdicts = spawn_json(["certify"], {"cases": cases})[1] if cases else []
    out["gate"] = {"checked": len(verdicts), "failed": verdicts.count(False)}
    out["failed"] += verdicts.count(False)
    return out


def run_rounds(workload, ops, seconds, trace: bool, gate_seed, probe=None) -> tuple:
    """Rounds on the same op list until `seconds` of timed rounds have
    passed; traced runs alternate traced and untraced rounds and make at
    least one of each.  Each round is pinned to the next CPU in turn, so a
    CPU slowed by a neighbour does not hold every sample of an op.  Before
    each round, set-up probes import `probe` when it is given.  Returns
    (rounds, probes)."""
    gate = gate_sample(ops, gate_seed)
    rounds, probes, timed = [], [], 0.0
    cpus = sorted(os.sched_getaffinity(0))
    while len(rounds) < (2 if trace else 1) or (timed < seconds and len(rounds) < MAX_ROUNDS):
        os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        if probe:
            probes += [probe_setup(probe) for _ in range(SETUP_PROBES_PER_ROUND)]
        traced = trace and len(rounds) % 2 == 0
        gate_now = gate if not rounds else []  # the rounds repeat the same ops
        if workload == "cli_cold":
            r = round_cli(ops, traced, gate_now)
        else:
            r = round_in_process(workload, ops, traced, gate_now)
        r["traced"] = traced
        rounds.append(r)
        timed += r["wall_s"]
    os.sched_setaffinity(0, cpus)
    return rounds, probes


# -- the record -----------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; a
    checkout without .git gives "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "hlvertex", "__init__.py")):
        print(f"error: no hlvertex sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    ops = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    module = "hlvertex.cli" if args.workload == "cli_cold" else "hlvertex"
    rounds, probes = run_rounds(args.workload, ops, args.seconds, bool(args.trace),
                                gate_seed=args.seed * 1000 + 7,
                                probe=None if args.trace else module)
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]][:3]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "op_list": {"digest": workloads.digest(ops), "length": len(ops),
                    "mix": workloads.mix(ops)},
        "rounds": [{"wall_s": r["wall_s"], "traced": r["traced"]} for r in rounds],
        "errors": errors, "gate": rounds[0]["gate"],
    }
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        stats = {}
        for r in traced:
            tracer.merge(stats, r["stats"])
        traced_s = statistics.median(r["wall_s"] for r in traced)
        plain_s = statistics.median(r["wall_s"] for r in plain)
        overhead = traced_s / plain_s
        procs = [p for r in traced for p in r["setup"]]  # processes that ran traced ops
        metrics = tracer.layer_metrics(
            stats, len(ops) * len(traced),
            statistics.median(p["interpreter_s"] for p in procs),
            statistics.median(p["import_s"] for p in procs), overhead)
        trace_path = os.path.join(OUT_DIR, f"trace_{tag}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "functions": stats,
                       "rounds": [r["spans"] for r in traced]}, fh)
        record.update({
            "trace_overhead": {"traced_ops_per_s": len(ops) / traced_s,
                               "untraced_ops_per_s": len(ops) / plain_s, "ratio": overhead},
            "trace_file": os.path.relpath(trace_path, ROOT),
            "should_move": {k: v[2] for k, v in tracer.LAYER_METRICS.items()},
        })
    else:
        scaled = latency_metrics(
            [refclock.scale(r["latencies"], r["refs"]) for r in rounds])
        tail_pct, tail_beyond = scaled.pop("tail")
        setups = [p["setup_s_at_ref"] for p in probes]
        values = {k + "_at_ref": v for k, v in scaled.items()}
        values.update(setup_s=statistics.median(setups),
                      peak_rss_mb=max(r["peak_rss_mb"] for r in rounds))
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        # the same figures in plain wall time, for reading, not for comparing
        wall = latency_metrics([r["latencies"] for r in rounds])
        del wall["tail"]
        wall["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        refs = [x for r in rounds for x in r["refs"]]
        record["wall"] = wall
        record["reference_loop_s"] = {"median": statistics.median(refs), "min": min(refs),
                                      "max": max(refs), "nominal": refclock.NOMINAL_S}
        record["op_tail"] = {"percentile": tail_pct, "samples_beyond": tail_beyond}
        record["samples"] = {"ops_per_s_at_ref": len(rounds), "op_p50_s_at_ref": len(ops),
                             "op_tail_s_at_ref": len(ops), "setup_s": len(setups),
                             "peak_rss_mb": len(rounds) * (len(ops) if args.workload == "cli_cold"
                                                           else 1)}
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
