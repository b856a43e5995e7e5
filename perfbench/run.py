"""End-to-end benchmark of the ringqpe command line, plus a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

--trace 0 (end to end): a closed loop with one client. Each command is
`python -m ringqpe ...` (PYTHONPATH=src) in a fresh child process, started
only after the previous one has exited, and timed from spawn to exit, so
interpreter start, `import ringqpe`, compute and output writing all count.
CPU time and peak RSS come from the child's own rusage (os.wait4). Fresh
interpreters that only `import ringqpe`, started at even intervals through
the loop, measure setup_s; their time is left out of throughput_cps.

--trace 1 (per layer): the same commands run in this process through
ringqpe.cli.main, alternately with and without tracing, and time is
attributed to ringqpe's public functions (see tracing.py). `python -X
importtime -c "import ringqpe"` gives the import figures.

Every command's exit code and outputs are checked against the truth built
into the generated problems (workloads.py, check.py). The timed commands stay
clear of the two known defects, so `failed` counts regressions and `correct`
is false when any timed command fails. The defects themselves (merged ring
peaks for components 1-9 lobes apart, the register norm check from t = 18
on) are shown by a fixed defect probe that --trace 1 runs in-process on every
workload: defect.merged_peak.failed and defect.register_norm.failed count
its known failures, and an unexplained probe failure also makes `correct`
false.

Children and the traced run use one BLAS thread (OPENBLAS_NUM_THREADS and
the like are set to 1): on a few shared cores a multi-threaded BLAS pool
measures the scheduler more than the program.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics BENCHMARK.json lists for the mode. A results file
with provenance, every metric and every command's record is written to
.perfbench_runs/ (and, when tracing, the span file).

Workloads and why they were chosen:

  cli-small      problems/*.json and seeded n in {2,3,4} problems through
                 ring-sim, qpe and compare at CLI defaults. Start-up and import
                 dominate; kernel changes should not move it. Two-eigenvector
                 states have components 16-24 lobes of l = 50 apart.
  ring-wide      compare -l 1000 -N 65536 --t-bits 16 on n = 32 Hermitian
                 problems: the ring (build_hamiltonian, evolve_block,
                 position_density) dominates; the register runs compute-only.
  register-deep  qpe --t-bits 16 on n in {2,4}: the controlled stage and the
                 2^16-row distribution export are the in-process work; the
                 ring is idle.

Which per-layer figure should move which end-to-end figure:

  cli.import_s, cli.import_scipy_s   setup_s everywhere; latency, throughput
                                     and CPU on cli-small (~90% of a command),
                                     25-40% of them elsewhere.
  ring.build_hamiltonian, ring.evolve_block self_s
                                     latency, CPU and peak_rss_mib (the
                                     (2l+1) n^2 block stack) on ring-wide;
                                     nothing on register-deep.
  ring.evolve_block.calls, encode_*.calls
                                     repeated work in ring-sim; milliseconds
                                     on cli-small.
  ring.extract_peaks                 little time; its correctness moves
                                     defect.merged_peak.failed, and
                                     phase_err_max_rad and weight_err_max
                                     on cli-small.
  qpe.write_distribution_csv self_s and file_bytes, qpe.controlled_unitary_all
  self_s                             latency on register-deep; the controlled
                                     stage also on ring-wide, and its
                                     half-register copies peak_rss_mib.

Seeds 1-10 were used while tuning. Seed 9001 is held out for gain claims.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

import provenance

# before numpy is imported here, so children and the traced run agree
for _name in provenance.THREAD_ENV:
    os.environ[_name] = "1"

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12
IMPORTTIME_PROBES = 5
COMMAND_TIMEOUT_S = 60.0
HELD_OUT_SEED = 9001
RESULTS_DIR = ".perfbench_runs"

# name -> unit for every end-to-end figure the closed loop computes
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_cps": "1/s",
    "cpu_s_p50": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "ratio",
    "phase_err_max_rad": "rad",
    "weight_err_max": "weight",
}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn_timed(argv: list, env: dict, log_dir: str) -> dict:
    """Run argv to completion in a child; wall time, rusage and stderr."""
    os.makedirs(log_dir, exist_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    err_path = os.path.join(log_dir, "stderr.txt")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(log_dir, "stdout.txt"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)  # a kill through the pidfd cannot hit a reused pid
    timer = threading.Timer(COMMAND_TIMEOUT_S, signal.pidfd_send_signal,
                            (pidfd, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
        os.close(pidfd)
    wall = time.perf_counter() - start
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "stderr": stderr,
    }


def latency_tail(walls: list) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return None, None
    ordered = sorted(walls)
    return ordered[n - 11], 100.0 * (n - 10) / n


def closed_loop(commands: list, seconds: float, env: dict, work: str) -> dict:
    probe_argv = [sys.executable, "-c", "import ringqpe"]
    probe_dir = os.path.join(work, "setup")
    setup, records = [], []
    probe_s = 0.0

    def probe():
        nonlocal probe_s
        rec = spawn_timed(probe_argv, env, probe_dir)
        if rec["exit"] != 0:
            raise RuntimeError(f"`import ringqpe` failed: {rec['stderr'][-500:]}")
        setup.append(rec["wall_s"])
        probe_s += rec["wall_s"]

    # set-up probes are spread evenly through the run, so setup_s samples the
    # whole run rather than a few seconds of it; they are neither commands
    # nor part of the time throughput is computed over
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            probe()
            continue
        cmd = commands[len(records) % len(commands)]
        out_dir = os.path.join(work, f"c{len(records)}")
        argv = [sys.executable, "-m", "ringqpe"] + cmd.argv(out_dir)
        rec = spawn_timed(argv, env, out_dir)
        rec.update(check.check(cmd, rec["exit"], rec["stderr"], out_dir))
        rec.update(command=cmd.cid, sub=cmd.sub, problem=cmd.problem.name,
                   stderr=rec["stderr"][-300:] if not rec["ok"] else "")
        shutil.rmtree(out_dir)
        records.append(rec)
    wall = time.perf_counter() - start
    command_wall = wall - probe_s
    while len(setup) < SETUP_PROBES:  # a long last command can crowd one out
        probe()

    walls = [r["wall_s"] for r in records]
    tail, tail_pct = latency_tail(walls)
    summary = check.summarize(records)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "throughput_cps": sum(r["ok"] for r in records) / command_wall,
        "cpu_s_p50": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mib": max(r["maxrss_kib"] for r in records) / 1024.0,
        "fail_ratio": summary["fail_ratio"],
        "phase_err_max_rad": summary["phase_err_max_rad"],
        "weight_err_max": summary["weight_err_max"],
    }
    return {
        "metrics": metrics,
        "units": E2E_UNITS,
        "latency_tail": {"percentile": tail_pct, "samples": len(walls)},
        "setup_probes_s": setup,
        "run_wall_s": wall,
        "command_wall_s": command_wall,
        "summary": summary,
        "commands": records,
    }


def import_profile(env: dict, work: str) -> dict:
    """Medians of `ringqpe` and `scipy.linalg` cumulative import time, seconds."""
    totals, scipy_part = [], []
    for i in range(IMPORTTIME_PROBES):
        log = os.path.join(work, f"importtime{i}")
        rec = spawn_timed([sys.executable, "-X", "importtime", "-c",
                           "import ringqpe"], env, log)
        if rec["exit"] != 0:
            raise RuntimeError(f"`import ringqpe` failed: {rec['stderr'][-500:]}")
        cumulative = {}
        for line in rec["stderr"].splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        totals.append(cumulative.get("ringqpe", 0.0))
        scipy_part.append(cumulative.get("scipy.linalg", 0.0))
    return {"cli.import_s": statistics.median(totals),
            "cli.import_scipy_s": statistics.median(scipy_part)}


def traced_run(commands: list, seconds: float, env: dict, work: str,
               root: str) -> dict:
    layers = import_profile(env, work)
    sys.path.insert(0, os.path.join(root, "src"))
    import ringqpe.cli

    main = ringqpe.cli.main
    tracer = tracing.Tracer()

    def one(i: int, traced: bool):
        cmd = commands[i % len(commands)]
        out_dir = os.path.join(work, f"c{i}-{int(traced)}")
        argv = cmd.argv(out_dir)
        if traced:
            code, stderr, _ = tracer.run_main(main, argv, i)
            elapsed = 0.0
        else:
            code, stderr, elapsed = tracing.call_main(main, argv)
        res = check.check(cmd, code, stderr, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return res, elapsed

    one(0, False)  # warm-up: lazy imports inside numpy and the stdlib
    probe = defect_probe(main, work)
    results, untraced_s = [], 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        # alternate which side runs first so drift does not favour one
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            res, elapsed = one(i, traced)
            results.append(res)
            untraced_s += elapsed
        i += 1

    traced_s = sum(s["end"] - s["start"] for s in tracer.spans
                   if s["name"] == tracing.ROOT)
    layers.update(tracing.layer_metrics(tracer.spans))
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    for kind in ("merged_peak", "register_norm"):
        layers[f"defect.{kind}.failed"] = probe["failed_by_kind"].get(kind, 0)
    functions_s, main_s = tracing.self_time_split(tracer.spans)
    return {
        "metrics": layers,
        "commands_traced": i,
        "in_process_untraced_s": untraced_s,
        "in_process_traced_s": traced_s,
        "functions_self_share": functions_s / untraced_s,
        "cli_main_self_share": main_s / untraced_s,
        "summary": check.summarize(results),
        "defect_probe": probe,
        "spans": tracer.spans,
    }


def defect_probe(main, work: str) -> dict:
    """Run workloads.defect_probe in-process, untraced; its checked summary."""
    commands = workloads.defect_probe(os.path.join(work, "probe"))
    records = []
    for cmd in commands:
        out_dir = os.path.join(work, f"probe-c{cmd.cid}")
        code, stderr, _ = tracing.call_main(main, cmd.argv(out_dir))
        rec = check.check(cmd, code, stderr, out_dir)
        rec.update(command=cmd.cid, sub=cmd.sub, problem=cmd.problem.name,
                   phases=cmd.problem.phases)
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append(rec)
    summary = check.summarize(records)
    summary["commands"] = records
    return summary


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and value != 0 and (abs(value) < 1e-3 or
                                                     abs(value) >= 1e6):
        return f"{value:.4e}"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringqpe", "__init__.py")):
        print(f"perfbench: no src/ringqpe under {root}; run from the root of "
              f"a ringqpe source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(root, RESULTS_DIR)
    work = os.path.join(results_dir, f"work-{tag}-{os.getpid()}")
    try:
        commands = workloads.build(args.workload, args.seed,
                                   os.path.join(work, "problems"), root)
        env = _child_env(root)
        if args.trace:
            result = traced_run(commands, args.seconds, env, work, root)
        else:
            result = closed_loop(commands, args.seconds, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = result["summary"]
    metrics = result["metrics"]
    result.update(workload=args.workload, seconds=args.seconds,
                  held_out_seed=HELD_OUT_SEED,
                  provenance=provenance.collect(root, args.seed))
    spans = result.pop("spans", None)
    with open(os.path.join(results_dir, f"results-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(os.path.join(results_dir, f"spans-{tag}.json"), "w") as fh:
            json.dump(spans, fh)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    if args.trace:
        for name in sorted(metrics):
            print(f"  {name:48s} {_fmt(metrics[name])}")
        print(f"  {result['commands_traced']} commands run traced and untraced; "
              f"of their untraced in-process time "
              f"({result['in_process_untraced_s']:.4f} s), the traced functions' "
              f"self times are {result['functions_self_share']:.4f} and "
              f"cli.main's own {result['cli_main_self_share']:.4f}")
    else:
        for name, unit in E2E_UNITS.items():
            print(f"  {name:20s} {_fmt(metrics[name]):>12s} {unit}")
        tail = result["latency_tail"]
        print(f"  latency_tail_s is p{_fmt(tail['percentile'])} of "
              f"{tail['samples']} commands")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']} "
          f"{summary['failed_by_kind']}")
    correct = summary["failed"] == 0
    probe = result.get("defect_probe")
    if probe is not None:
        print(f"  defect probe: attempted {probe['attempted']}, failed "
              f"{probe['failed']} {probe['failed_by_kind']}")
        correct = correct and "unexplained" not in probe["failed_by_kind"]

    units = {m["name"]: m["unit"] for m in wanted}
    line = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
