"""The part of the benchmark that runs in a fresh interpreter beside plantprop.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and reads
what it writes. Three modes:

    child.py setup
        import plantprop, finish one tiny run, then probe the host's speed;
        print the engine and the probe as JSON
    child.py cli ARGS...
        call plantprop.cli.main(ARGS), as the `plantprop` console script
        does; with PERFBENCH_TRACE=PREFIX set, trace it and its pool workers
        into PREFIX.*.json; with PERFBENCH_PROBE=PREFIX set, probe the
        host's speed before each run (speed.RunProbe), pool workers writing
        their sums to PREFIX.*.json; write peak memory and this process's
        probe sums to PERFBENCH_USAGE
    child.py runs IN.json OUT.json
        time single plantprop.run calls, each after a speed probe, round
        after round for the seconds IN.json gives; with "trace" set,
        alternate untraced and traced rounds
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _usage() -> dict:
    return {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def cmd_setup() -> int:
    import plantprop
    from plantprop import engine

    plantprop.run(plantprop.PpaConfig(budget=100),
                  plantprop.make_function("sphere", 2), 1)
    started = time.perf_counter()
    import speed

    probe = speed.probe()
    picked = getattr(engine, "DEFAULT_BACKEND", None)
    print(json.dumps({
        "engine": picked or ("compiled" if engine.HAVE_KERNEL else "python"),
        "have_kernel": bool(engine.HAVE_KERNEL),
        "version": getattr(plantprop, "__version__", None),
        "probe_s": probe,
        "probe_cost_s": time.perf_counter() - started,
    }))
    return 0


def cmd_cli(argv: list[str]) -> int:
    from plantprop import cli

    import spans

    prober = None
    if os.environ.get("PERFBENCH_PROBE"):
        import speed

        prober = speed.RunProbe()
        prober.install()
        spans.follow_forks(prober, os.environ["PERFBENCH_PROBE"])
    prefix = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if prefix:
        tracer = spans.Tracer()
        tracer.install()
        spans.follow_forks(tracer, prefix)
    try:
        rc = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(f"{prefix}.{os.getpid()}.json")
        usage_path = os.environ.get("PERFBENCH_USAGE")
        if usage_path:
            with open(usage_path, "w", encoding="utf-8") as fh:
                json.dump(_usage() | {"probe": prober and prober.doc()}, fh)
    return rc


def _result_record(result) -> dict:
    return {
        "best_value": result.best_value.hex(),
        "best_point": [v.hex() for v in result.best_point],
        "trajectory": [[int(i), float(v).hex()] for i, v in result.trajectory],
        "evaluations_used": result.evaluations_used,
        "seed": result.seed,
    }


def cmd_runs(in_path: str, out_path: str) -> int:
    import plantprop
    import speed

    with open(in_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    calls = []
    for r in spec["runs"]:
        schedule = (plantprop.SteepeningSchedule.vanilla() if r["factor"] is None
                    else plantprop.SteepeningSchedule.linear(r["factor"]))
        config = plantprop.PpaConfig(budget=spec["budget"],
                                     pop_size=spec["pop_size"],
                                     n_max=spec["n_max"], schedule=schedule)
        function = plantprop.make_function(r["function"], r["dimension"])
        calls.append((config, function, r["seed"], r["backend"]))

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
    clock = time.perf_counter
    rounds = []
    first = None
    consistent = True
    started = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        run_s = []
        probe_s = []
        records = []
        for config, function, seed, backend in calls:
            probe_s.append(speed.probe())
            t = clock()
            result = plantprop.run(config, function, seed, backend=backend)
            run_s.append(clock() - t)
            records.append(result)
        if traced:
            tracer.uninstall()
        rounds.append({"run_s": run_s, "probe_s": probe_s, "traced": traced})
        if first is None:
            first = records
        elif records != first:
            consistent = False
        enough = clock() - started >= spec["seconds"]
        if enough and (tracer is None or len(rounds) >= 2):
            break

    doc = {
        "rounds": rounds,
        "results": [_result_record(r) for r in first],
        "consistent": consistent,
        "usage": _usage(),
        "spans": None,
    }
    if tracer is not None:
        doc["spans"] = tracer.doc()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: child.py setup | cli ARGS... | runs IN OUT", file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return cmd_setup()
    if mode == "cli":
        return cmd_cli(rest)
    if mode == "runs":
        return cmd_runs(*rest)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
