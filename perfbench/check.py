"""Check one command's exit code and output files against the built-in truth.

A command fails when its exit code differs from the expected one, an output
file is missing or malformed, or a reported phase is off the truth by more
than its route's resolution: 2 pi/(2l+1) for the ring, 2 pi/2^t for the
register. Each failure is given a kind:

  merged_peak    the known merged-peak defect: the state's components lie
                 within one default peak window of each other, every output
                 parsed, and the only symptoms are a ring phase off the truth
                 and, for compare, exit 0 or 3 where 4 (ambiguous) was due;
  register_norm  the known norm-check defect: the register norm check
                 (1e-10) rejected the problem with exit 1;
  unexplained    anything else: a wrong exit code, a missing or malformed
                 output, a register phase off the truth, a crash.

The timed workloads avoid both defects, so any failure there makes a run
incorrect; the kinds sort the failures of the defect probe.
"""

from __future__ import annotations

import json
import os

from workloads import (
    RING_SIM_TIMES,
    TWO_PI,
    WINDOW_LOBES,
    Command,
    circular_distance,
    fejer_mode_phase,
)


class Malformed(Exception):
    pass


def _csv_rows(path: str, header: str, rows: int) -> None:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise Malformed(f"missing {os.path.basename(path)}: {exc}") from exc
    if not data.startswith(header.encode()):
        raise Malformed(f"{os.path.basename(path)} lacks header {header!r}")
    found = data.count(b"\n") - 1
    if found != rows:
        raise Malformed(f"{os.path.basename(path)} has {found} rows, "
                        f"expected {rows}")


def _json(path: str, keys: tuple) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise Malformed(f"cannot read {os.path.basename(path)}: {exc}") from exc
    missing = [k for k in keys if k not in obj]
    if missing:
        raise Malformed(f"{os.path.basename(path)} lacks {missing}")
    return obj


def _fail(res: dict, symptom: str, reason: str) -> None:
    res["symptoms"].append(symptom)
    res["reasons"].append(reason)


def _ring_errors(cmd: Command, phi: float, res: dict) -> None:
    err = circular_distance(phi, cmd.problem.dominant)
    res["phase_errs"].append(err)
    if err > TWO_PI / (2 * cmd.ring_l + 1):
        _fail(res, "ring_phase", f"ring phase {phi:.6f} off truth by {err:.3e}")


def _register_errors(cmd: Command, phi: float, res: dict) -> None:
    p = cmd.problem
    truth = fejer_mode_phase(p.phases, p.weights, cmd.t_bits)
    err = circular_distance(phi, truth)
    res["phase_errs"].append(err)
    if err > TWO_PI / (1 << cmd.t_bits):
        _fail(res, "register_phase",
              f"register phase {phi:.6f} off truth by {err:.3e}")


def _check_outputs(cmd: Command, out_dir: str, res: dict) -> None:
    born = sorted(cmd.problem.weights, reverse=True)
    if cmd.sub == "ring-sim":
        for i in range(RING_SIM_TIMES):
            _csv_rows(os.path.join(out_dir, f"density_{i:02d}.csv"),
                      "phi,density", cmd.ring_n)
        if not os.path.isfile(os.path.join(out_dir, "summary.txt")):
            raise Malformed("missing summary.txt")
        peaks = _json(os.path.join(out_dir, "peaks.json"), ("peaks",))["peaks"]
        if not peaks:
            raise Malformed("peaks.json lists no peak")
        _ring_errors(cmd, float(peaks[0]["phi"]), res)
        for i, w in enumerate(born):
            got = float(peaks[i]["weight"]) if i < len(peaks) else 0.0
            res["weight_errs"].append(abs(got - w))
    elif cmd.sub == "qpe":
        _csv_rows(os.path.join(out_dir, "qpe_distribution.csv"),
                  "k,probability", 1 << cmd.t_bits)
        est = _json(os.path.join(out_dir, "qpe_estimate.json"), ("k", "phi", "t"))
        if est["t"] != cmd.t_bits:
            raise Malformed(f"qpe_estimate.json reports t = {est['t']}")
        _register_errors(cmd, float(est["phi"]), res)
    else:
        rep = _json(os.path.join(out_dir, "compare.json"),
                    ("phi_ring", "phi_qpe", "secondary_weight", "ok"))
        _ring_errors(cmd, float(rep["phi_ring"]), res)
        _register_errors(cmd, float(rep["phi_qpe"]), res)
        second = born[1] if len(born) > 1 else 0.0
        res["weight_errs"].append(abs(float(rep["secondary_weight"]) - second))


def check(cmd: Command, exit_code: int, stderr: str, out_dir: str) -> dict:
    """Return {ok, kind, reasons, symptoms, phase_errs, weight_errs} for one command."""
    res = {"ok": True, "kind": None, "reasons": [], "symptoms": [],
           "phase_errs": [], "weight_errs": []}
    if exit_code != cmd.expected_exit:
        # compare exits 4 only when it sees the secondary peak; a merged peak
        # hides it, and compare then exits 0 or 3
        missed_second = (cmd.sub == "compare" and cmd.expected_exit == 4
                         and exit_code in (0, 3))
        _fail(res, "missed_second_peak" if missed_second else "exit",
              f"exit {exit_code}, expected {cmd.expected_exit}: "
              f"{stderr.strip()[-200:]}")
    if exit_code in (0, 3, 4):
        try:
            _check_outputs(cmd, out_dir, res)
        except Malformed as exc:
            _fail(res, "malformed", str(exc))
    if res["reasons"]:
        res["ok"] = False
        res["kind"] = _failure_kind(cmd, exit_code, stderr, res["symptoms"])
    return res


def _failure_kind(cmd: Command, exit_code: int, stderr: str,
                  symptoms: list) -> str:
    if (exit_code == 1 and cmd.expected_exit == 0 and cmd.t_bits is not None
            and "register norm" in stderr):
        return "register_norm"
    if cmd.ring_l is not None:
        window = WINDOW_LOBES * TWO_PI / (2 * cmd.ring_l + 1)
        if (cmd.problem.min_gap < window
                and set(symptoms) <= {"ring_phase", "missed_second_peak"}):
            return "merged_peak"
    return "unexplained"


def summarize(results: list) -> dict:
    """Correctness figures over checked commands: counts, fail ratio, errors."""
    failed = [r for r in results if not r["ok"]]
    kinds = {}
    for r in failed:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    phase = [e for r in results for e in r["phase_errs"]]
    weight = [e for r in results for e in r["weight_errs"]]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "failed_by_kind": kinds,
        "fail_ratio": len(failed) / len(results) if results else None,
        "phase_err_max_rad": max(phase) if phase else None,
        "weight_err_max": max(weight) if weight else None,
    }
