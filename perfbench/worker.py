"""The benchmark's child process; every mode starts a fresh interpreter.

    worker.py probe MODULE        time interpreter start and `import MODULE`
    worker.py run                 run one workload round (JSON on stdin)
    worker.py cli TRACE_OUT ARGS  run the CLI once under the tracer
    worker.py certify             certify rewriting outputs (JSON on stdin)

The first statements take the clock, so the parent can split a spawn into
interpreter start and import.  The clock is CLOCK_MONOTONIC, which is
shared by every process on the machine.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _emit(payload) -> None:
    import json

    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def probe(module: str) -> None:
    mod = __import__(module, fromlist=["_"])
    t_imported = _now()
    _emit({"t_start": T_START, "t_imported": t_imported, "file": mod.__file__})


# -- rewriting certificates ---------------------------------------------------


def certify_rewrites(cases, degree: int) -> list:
    """For each {"word", "terms"} case (terms in OpSum JSON form), whether
    the rewritten sum acts like the word on every Schur function of degree
    at most `degree`."""
    from hlvertex.coeffs import QRat
    from hlvertex.rewrite import OpSum, normalize, operators_equal

    verdicts = []
    for case in cases:
        word = tuple(tuple(b) for b in case["word"])
        out = OpSum({tuple(tuple(b) for b in t["word"]): QRat.from_json(t["coeff"])
                     for t in case["terms"]})
        verdicts.append(operators_equal(normalize({word: QRat.one()}), out, degree))
    return verdicts


# -- workload ops -------------------------------------------------------------


def _relation(rw, op):
    """The relation or identity of a certify op, as an OpSum that must act
    as zero."""
    kind, p = op["kind"], op["params"]
    if kind in ("com1", "com2", "move", "bigmove"):
        return rw.relation_instance(kind, **{k: tuple(v) if isinstance(v, list) else v
                                             for k, v in p.items()})
    from hlvertex.coeffs import QRat

    q, a, k = QRat.q(), p["a"], p["k"]
    if kind == "same-width":
        n = p["n"]
        return rw.OpSum({((a,) * n, (a,) * k): 1}) - rw.OpSum({((a,) * k, (a,) * n): 1})
    if kind == "one-more":
        return (rw.OpSum({((a,) * k, (a + 1,) * k): 1})
                - rw.OpSum({((a + 1,) * k, (a,) * k): q ** k}))
    if kind == "quad":
        rhs = (rw.OpSum({((a,) * (k + 1), (a,) * (k - 1)): 1})
               + rw.OpSum({((a + 1,) * k, (a - 1,) * k): q ** k}))
        return rw.OpSum({((a,) * k, (a,) * k): 1}) - rhs
    raise ValueError(f"unknown certify op {kind!r}")


class GateFailure(Exception):
    pass


def make_runner(workload: str, degree: int):
    """A function running one op of the workload.  Library functions are
    looked up on their modules at call time, so a tracer's wrappers see
    every call."""
    import importlib

    rw = importlib.import_module("hlvertex.rewrite")
    kk = importlib.import_module("hlvertex.kostka")
    sf = importlib.import_module("hlvertex.symfunc")
    wt = importlib.import_module("hlvertex.weights")

    if workload == "certify":
        taus = [t for d in range(degree + 1) for t in wt.partitions_of(d)]

        def run(op):
            rel = _relation(rw, op)
            for tau in taus:
                if not rw.evaluate(rel, sf.schur(tau)).is_zero():
                    raise GateFailure(f"{op} does not vanish on s{tau}")

    elif workload == "kostka":

        def run(op):
            # method "both" raises when the two engines disagree
            kk.kostka(tuple(op["lam"]), tuple(tuple(b) for b in op["gamma"]),
                      method="both")

    elif workload == "rewrite":

        def run(op):
            word = tuple(tuple(b) for b in op["word"])
            algorithm = op["algorithm"]
            if algorithm == "dominant":
                return rw.rewrite_dominant(word)
            if algorithm == "shift":
                side = "left" if len(word[0]) > len(word[1]) else "right"
                return rw.shift_support(word, side)
            return rw.swap_factors(word)

    else:
        raise ValueError(f"no in-process runner for {workload!r}")
    return run


def run_round(job, t_imported: float) -> dict:
    """Run every op of the job in order, closed loop with one client, with
    the reference loop timed before the first op and after each; then
    certify the outputs of the ops listed under "gate".  The round's wall
    time is the sum of its op latencies."""
    import resource

    from refclock import reference_s
    from workloads import CERTIFY_DEGREE, GATE_DEGREE

    workload, ops = job["workload"], job["ops"]
    run = make_runner(workload, CERTIFY_DEGREE)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    gate = set(job["gate"])
    kept, latencies, errors = {}, [], []
    failed = 0
    clock = time.perf_counter
    refs = [reference_s()]
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i, workload)
        start = clock()
        try:
            out = run(op)
        except Exception as exc:  # a failed op is counted, and the run goes on
            failed += 1
            if len(errors) < 3:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            out = None
        end = clock()
        if tracer:
            tracer.end_op()
        latencies.append(end - start)
        refs.append(reference_s())
        if i in gate and out is not None:
            kept[i] = out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"t_start": T_START, "t_imported": t_imported, "latencies": latencies,
              "refs": refs, "wall_s": sum(latencies), "failed": failed, "errors": errors,
              "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.uninstall()
        result["stats"] = tracer.function_stats()
        result["spans"] = tracer.spans
    # the gate runs untraced and outside the timed section
    cases = [{"word": ops[i]["word"], "terms": kept[i].to_json()["terms"]} for i in sorted(kept)]
    verdicts = certify_rewrites(cases, GATE_DEGREE) if cases else []
    result["gate"] = {"checked": len(verdicts), "failed": verdicts.count(False)}
    return result


def traced_cli(trace_out: str, argv) -> int:
    cli = __import__("hlvertex.cli", fromlist=["_"])
    t_imported = _now()
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, "cli " + argv[0])
    try:
        code = cli.main(argv)  # the wrapped main: install() rebound it
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "t_imported": t_imported,
                       "stats": tracer.function_stats(), "spans": tracer.spans}, fh)
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "probe":
        probe(argv[1])
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "run":
        __import__("hlvertex")
        t_imported = _now()  # before the job is read: setup ends here
        import json

        _emit(run_round(json.load(sys.stdin), t_imported))
        return 0
    import json

    job = json.load(sys.stdin)
    if mode == "certify":
        from workloads import GATE_DEGREE

        _emit(certify_rewrites(job["cases"], GATE_DEGREE))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
