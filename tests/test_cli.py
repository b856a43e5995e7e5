"""Command line behavior: exit codes, outputs, precedence, determinism."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ringqpe as rq
import ringqpe.cli as cli
import ringqpe.encode as encode_module
import ringqpe.qpe as qpe_module
import ringqpe.ring as ring_module
from ringqpe.cli import main

from conftest import (
    SIGMA_X,
    forbid_spectra,
    random_hermitian,
    random_state,
    random_unitary,
    read_csv,
    write_problem,
)

TWO_PI = 2.0 * np.pi
PROBLEM_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


@pytest.fixture
def sigma_x_file(tmp_path, sigma_x_problem):
    return write_problem(tmp_path, sigma_x_problem, "sigma_x.json")


@pytest.fixture
def sigma_z_file(tmp_path, sigma_z_problem):
    return write_problem(tmp_path, sigma_z_problem, "sigma_z.json")


def run_python(args):
    """Run this interpreter on the ringqpe these tests import, not an installed copy."""
    paths = [os.path.dirname(os.path.dirname(rq.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=env)


def subcommand_parsers():
    """The subcommands' parsers by name, as build_parser makes them."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def read_summary_value(out_dir, label):
    text = (out_dir / "summary.txt").read_text()
    for line in text.splitlines():
        if line.startswith(label):
            return float(line.split("=")[-1])
    raise AssertionError(f"no {label!r} line in summary:\n{text}")


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ring-sim" in capsys.readouterr().out

    def test_subcommand_help(self, capsys):
        assert main(["compare", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--t-bits" in out

    def test_every_option_has_help(self):
        for name, sub in subcommand_parsers().items():
            for action in sub._actions:
                assert action.help, (name, action.option_strings)

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["ring-sim", "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_figure_is_no_longer_a_subcommand(self, tmp_path, sigma_x_file,
                                              capsys):
        # ring-sim writes the same density snapshots
        out = tmp_path / "out"
        assert main(["figure", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)]) == 1
        assert "invalid choice: 'figure'" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self):
        proc = run_python(["-m", "ringqpe", "--help"])
        assert proc.returncode == 0
        assert "ring-sim" in proc.stdout

    def test_import_loads_no_scipy(self):
        code = ("import sys, ringqpe, ringqpe.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'))")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_defers_bench_until_a_bench_name_is_used(self):
        # only the bench subcommand needs bench (and csv, logging, statistics)
        code = ("import sys, ringqpe, ringqpe.cli; "
                "print('ringqpe.bench' in sys.modules); "
                "print(ringqpe.run_scaling_suite.__module__); "
                "print('ringqpe.bench' in sys.modules); "
                "print('ringqpe.qpe' in sys.modules)")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        # bench times the two ring routes and never loads the register
        assert proc.stdout.split() == ["False", "ringqpe.bench", "True", "False"]

    def test_import_loads_neither_numpy_nor_a_submodule(self):
        code = ("import sys, ringqpe; "
                "print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] in ('numpy', 'ringqpe')))")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['ringqpe']"

    def test_every_exported_name_resolves(self):
        code = ("import ringqpe; "
                "print(all(getattr(ringqpe, n) is not None for n in ringqpe.__all__)); "
                "print(set(ringqpe.__all__) <= set(dir(ringqpe)))")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize("sub,unused", [("qpe", "ringqpe.ring"),
                                            ("ring-sim", "ringqpe.qpe")])
    def test_command_loads_only_its_route(self, tmp_path, sub, unused):
        problem = os.path.join(PROBLEM_DIR, "sigma_x_ground_state.json")
        proc = run_python(["-X", "importtime", "-m", "ringqpe", sub,
                           "--problem", problem, "--out-dir", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rpartition("|")[2].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert f"ringqpe.{sub.partition('-')[0]}" in loaded
        assert unused not in loaded

    def test_module_entry_point_freezes_the_start_up_heap(self):
        code = "import gc, ringqpe.__main__; print(gc.get_freeze_count() > 0)"
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_import_builds_no_csv_tables(self):
        # the CSV writer's power-of-ten and digit tables are made on first use
        code = ("import ringqpe, ringqpe.cli, ringqpe.linalg as linalg; "
                "print(linalg._float_tables.cache_info().currsize)")
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestProblemIo:
    def test_missing_problem_flag(self, tmp_path, capsys):
        assert main(["ring-sim", "--out-dir", str(tmp_path)]) == 1
        assert "--problem" in capsys.readouterr().err

    def test_nonexistent_problem_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["ring-sim", "--problem", str(missing),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_corrupt_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        code = main(["qpe", "--problem", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--problem", "--config"])
    def test_file_that_is_not_utf8_is_io_error(self, tmp_path, sigma_x_file,
                                               flag, capsys):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(bytes(range(128, 256)))  # 0x80 cannot start UTF-8
        # the last --problem wins, and --config is read before any problem
        code = main(["qpe", "--problem", str(sigma_x_file), flag, str(bad),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ringqpe: I/O error: ") and "bytes.json" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_semantically_invalid_problem(self, tmp_path, capsys):
        bad = tmp_path / "skew.json"
        bad.write_text(json.dumps({
            "hamiltonian": rq.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
            "E_R": 1.0,
            "state": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
        }))
        assert main(["ring-sim", "--problem", str(bad),
                     "--out-dir", str(tmp_path)]) == 2


class TestRingSim:
    def test_ground_state_read_out(self, tmp_path, sigma_x_file, capsys):
        out = tmp_path / "out"
        code = main(["ring-sim", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "dominant eigenphase (signed)" in stdout

        signed = read_summary_value(out, "dominant eigenphase (signed)")
        assert abs(signed - (-2.0)) < TWO_PI / 101
        energy = read_summary_value(out, "energy = E_R * phase")
        assert abs(energy - (-2.0)) < TWO_PI / 101

        for i in range(3):
            assert (out / f"density_{i:02d}.csv").exists()
        peaks = json.loads((out / "peaks.json").read_text())
        assert len(peaks["peaks"]) >= 1
        assert peaks["peaks"][0]["weight"] > 0.9

    def test_density_snapshots_are_normalized(self, tmp_path, sigma_x_file):
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)]) == 0
        header, data = read_csv(out / "density_00.csv")
        assert header[:2] == ["phi", "density"]
        integral = data[:, 1].sum() * TWO_PI / len(data)
        assert abs(integral - 1.0) < 1e-8

    def test_packet_drifts_to_the_revival_peak(self, tmp_path, sigma_x_file):
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)]) == 0
        argmaxes = []
        for i in range(3):  # the default times 0, 0.5 and 1 of t_R
            _, data = read_csv(out / f"density_{i:02d}.csv")
            argmaxes.append(data[int(np.argmax(data[:, 1])), 0])
        # packet drifts from the origin to the full-revival peak
        assert abs(argmaxes[0] - 0.0) < 1e-12
        assert abs(argmaxes[1] - (np.pi - 1.0)) < 3 * TWO_PI / 512
        assert abs(argmaxes[2] - (TWO_PI - 2.0)) < 3 * TWO_PI / 512
        assert argmaxes[0] < argmaxes[1] < argmaxes[2]

    def test_zero_hamiltonian_reads_out_zero_energy(self, tmp_path):
        problem = rq.EnergyProblem(
            np.zeros((2, 2)), 1.0, np.array([1.0, 0.0])
        )
        path = write_problem(tmp_path, problem, "zero.json")
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path),
                     "--out-dir", str(out)]) == 0
        signed = read_summary_value(out, "dominant eigenphase (signed)")
        assert abs(signed) < TWO_PI / 512
        energy = read_summary_value(out, "energy = E_R * phase")
        assert abs(energy) < TWO_PI / 512

    def test_unitary_problem_has_no_energy_line(self, tmp_path, capsys):
        u = np.diag(np.exp(1j * np.array([np.pi / 2, -np.pi / 2])))
        spec = rq.UnitarySpec(u, np.array([1.0, 0.0]))
        path = write_problem(tmp_path, spec, "diag.json")
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path),
                     "--out-dir", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "dominant eigenphase" in summary
        assert "energy" not in summary
        signed = read_summary_value(out, "dominant eigenphase (signed)")
        assert abs(signed - np.pi / 2) < TWO_PI / 101

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    def test_aliased_energy_is_not_printed_as_a_value(self, tmp_path, capsys):
        # H / E_R = diag(4, -1) has radius 4 >= pi: the ring reads 4 - 2 pi,
        # which was printed as "energy = E_R * phase = -2.283185"
        problem = rq.EnergyProblem(np.diag([4.0, -1.0]), 1.0, np.array([1.0, 0.0]))
        path = write_problem(tmp_path, problem, "aliased.json")
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path), "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        summary = (out / "summary.txt").read_text()
        assert stdout.startswith(summary)
        lines = summary.splitlines()
        assert lines[-2] == "dominant eigenphase (signed) = -2.283185"
        assert lines[-1] == ("energy: known only modulo 2 pi E_R = 6.283185 "
                             "(H/E_R has spectral radius 4 >= pi)")
        assert "energy = " not in summary

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("sub", ["ring-sim", "compare"])
    def test_aliasing_warning_is_one_line(self, tmp_path, sub):
        # Python's own report gave the warning's file and line, then echoed
        # the source line of the call that raised it
        problem = rq.EnergyProblem(np.diag([4.0, -1.0]), 1.0, np.array([1.0, 0.0]))
        path = write_problem(tmp_path, problem, "aliased.json")
        result = run_python(["-m", "ringqpe", sub, "--problem", str(path),
                             "--out-dir", str(tmp_path / "out")])
        assert result.returncode == 0
        assert result.stderr == (
            "ringqpe: warning: spectral radius of H/E_R is 4 >= pi; "
            "encoded eigenphases wrap around the circle\n")

    def test_unaliased_energy_stays_a_value(self, tmp_path):
        # just inside the window the plain energy line is kept
        problem = rq.EnergyProblem(np.diag([3.0, -1.0]), 1.0, np.array([1.0, 0.0]))
        path = write_problem(tmp_path, problem, "inside.json")
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path), "--out-dir", str(out)]) == 0
        assert problem.spectral_radius == 3.0
        assert abs(read_summary_value(out, "energy = E_R * phase") - 3.0) < 1e-6

    @pytest.mark.filterwarnings("ignore::ringqpe.PhaseAliasingWarning")
    @pytest.mark.parametrize("name", ["aliased", "sigma_z_superposition"])
    def test_snapshots_read_the_gauge_matrix_alone(self, tmp_path, monkeypatch,
                                                   name):
        # once the problem is encoded nothing is decomposed and its spectrum
        # is not read again, for the three snapshots as for the read-out
        if name == "aliased":
            path = write_problem(tmp_path, rq.EnergyProblem(
                np.diag([4.0, -1.0]), 1.0, np.array([0.6, 0.8])), "aliased.json")
        else:
            path = os.path.join(PROBLEM_DIR, f"{name}.json")
        encode = cli.encode_as_gauge

        def encode_then_forbid(problem):
            gauge = encode(problem)
            forbid_spectra(monkeypatch, problem)
            return gauge

        monkeypatch.setattr(cli, "encode_as_gauge", encode_then_forbid)
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path), "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "density_00.csv", "density_01.csv", "density_02.csv",
            "peaks.json", "summary.txt"]
        assert len(json.loads((out / "peaks.json").read_text())["peaks"]) == 2

    @pytest.mark.parametrize("times", [None, "0,0.25", "1,0,0.25,0,1"])
    def test_evolves_each_time_once_and_reads_peaks_at_t_r(
            self, tmp_path, sigma_x_file, sigma_x_problem, monkeypatch, times):
        calls = {"evolve_block": 0, "position_density": 0}

        def counted(name):
            fn = getattr(ring_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ring_module, name, counted(name))
        out = tmp_path / "out"
        argv = ["ring-sim", "--problem", str(sigma_x_file), "--out-dir", str(out)]
        assert main(argv + (["--times", times] if times else [])) == 0
        # the read-out takes one density at t_R, from U without evolving,
        # and every snapshot time is evolved once, a repeated one too; each
        # repeat writes the same bytes
        fractions = (times or "0,0.5,1").split(",")
        runs = 1 + len(fractions)
        assert calls == {"evolve_block": runs - 1, "position_density": runs}
        for i, fraction in enumerate(fractions):
            first = fractions.index(fraction)
            assert ((out / f"density_{i:02d}.csv").read_bytes()
                    == (out / f"density_{first:02d}.csv").read_bytes())

        library = rq.estimate_phase_via_ring(sigma_x_problem.u_matrix,
                                             sigma_x_problem.state, 50, 512)
        peaks = json.loads((out / "peaks.json").read_text())
        assert peaks == ring_module.peak_set_to_json(library)

    def test_no_snapshot_times_still_reads_the_peaks(self, tmp_path, sigma_x_file):
        # the up-front phase check covers the snapshot times alone, and with
        # none there is no largest time to check
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(sigma_x_file), "--out-dir",
                     str(out), "--times", ""]) == 0
        assert sorted(os.listdir(out)) == ["peaks.json", "summary.txt"]
        assert abs(read_summary_value(out, "energy = E_R * phase") + 2.0) < 1e-6

    def test_grid_too_coarse_for_cutoff(self, tmp_path, sigma_x_file, capsys):
        code = main(["ring-sim", "--problem", str(sigma_x_file),
                     "--out-dir", str(tmp_path), "-l", "50", "-N", "64"])
        assert code == 1
        assert "N >= 4l+1" in capsys.readouterr().err

    def test_grid_that_aliases_the_read_out_leaves_no_output(
            self, tmp_path, sigma_x_file, monkeypatch, capsys):
        # ring-sim evolved to t_R before the read-out refused N < 4l+1
        def forbidden(*args, **kwargs):
            raise AssertionError("evolved before the grid was checked")

        monkeypatch.setattr(ring_module, "evolve_block", forbidden)
        out = tmp_path / "out"
        code = main(["ring-sim", "--problem", str(sigma_x_file),
                     "--out-dir", str(out), "-l", "50", "-N", "150"])
        assert code == 1
        assert "N >= 4l+1" in capsys.readouterr().err
        assert not out.exists()

    def test_components_eight_lobes_apart_are_both_read(self, tmp_path, capsys):
        # the +-8-lobe peak window merged these into one peak at 1.305
        problem = rq.EnergyProblem(np.diag([1.0, 1.5]), 1.0,
                                   np.array([1.0, 1.0]) / math.sqrt(2.0))
        path = write_problem(tmp_path, problem, "pair.json")
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(path), "--out-dir", str(out),
                     "-l", "50", "-N", "512"]) == 0
        peaks = json.loads((out / "peaks.json").read_text())["peaks"]
        assert sorted(p["phi"] for p in peaks) == pytest.approx([1.0, 1.5], abs=1e-9)
        assert [p["weight"] for p in peaks] == pytest.approx([0.5, 0.5], abs=1e-9)
        energy = read_summary_value(out, "energy = E_R * phase")
        assert min(abs(energy - 1.0), abs(energy - 1.5)) < 1e-6


class TestQpe:
    def test_never_forms_u(self, tmp_path, sigma_x_file, monkeypatch):
        # the register reads the spectrum; exp(i H / E_R) is the ring's
        def forbidden(*args, **kwargs):
            raise AssertionError("formed U for the register")

        monkeypatch.setattr(encode_module, "unitary_exp", forbidden)
        assert main(["qpe", "--problem", str(sigma_x_file),
                     "--out-dir", str(tmp_path)]) == 0

    def test_exact_estimate(self, tmp_path, sigma_x_file):
        out = tmp_path / "out"
        code = main(["qpe", "--problem", str(sigma_x_file),
                     "--out-dir", str(out), "--t-bits", "10"])
        assert code == 0
        est = json.loads((out / "qpe_estimate.json").read_text())
        assert est["t"] == 10
        assert est["mode"] == "exact"
        assert est["k"] == round(1024 * (TWO_PI - 2.0) / TWO_PI)
        assert rq.circular_distance(est["phi"], TWO_PI - 2.0) <= TWO_PI / 1024

        with open(out / "qpe_distribution.csv") as fh:
            header = fh.readline().strip()
            rows = fh.read().splitlines()
        assert header == "k,probability"
        assert len(rows) == 1024

    def test_representable_phase_is_exact(self, tmp_path):
        u = np.diag(np.exp(1j * np.array([np.pi / 2, -np.pi / 2])))
        spec = rq.UnitarySpec(u, np.array([1.0, 0.0]))
        path = write_problem(tmp_path, spec, "diag.json")
        out = tmp_path / "out"
        assert main(["qpe", "--problem", str(path), "--out-dir", str(out),
                     "--t-bits", "10"]) == 0
        est = json.loads((out / "qpe_estimate.json").read_text())
        assert est["k"] == 256  # pi/2 = 2 pi * 256 / 1024 exactly

    def test_sampled_runs_are_reproducible(self, tmp_path, sigma_x_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["qpe", "--problem", str(sigma_x_file), "--t-bits", "8",
                "--shots", "1000", "--seed", "21"]
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        assert (out_a / "qpe_distribution.csv").read_bytes() \
            == (out_b / "qpe_distribution.csv").read_bytes()
        est = json.loads((out_a / "qpe_estimate.json").read_text())
        assert est["mode"] == "sampled"
        assert est["seed"] == 21

    def test_oversized_register_is_refused(self, tmp_path, sigma_x_file,
                                           capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("register allocated before the guard")

        # qpe_estimate allocates the register with np.empty
        monkeypatch.setattr(np, "empty", forbidden)
        code = main(["qpe", "--problem", str(sigma_x_file),
                     "--out-dir", str(tmp_path), "--t-bits", "24"])
        assert code == 1
        assert "guard" in capsys.readouterr().err


class TestCompare:
    def test_eigenstate_routes_agree(self, tmp_path, sigma_x_file, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["ok"] is True
        assert report["ambiguous"] is False
        assert max(report["distances"].values()) <= report["bound"]
        assert abs(report["phi_eig"] - (TWO_PI - 2.0)) < 1e-9
        stdout = capsys.readouterr().out
        assert "phi_ring" in stdout and "bound" in stdout

    def test_checks_the_spectrum_once(self, tmp_path, sigma_x_file, monkeypatch):
        # the problem decomposes H and forms its Born weights once; neither
        # route decomposes or re-checks the spectrum again
        calls = []
        check = rq.eig_hermitian

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        for module in [m for key, m in list(sys.modules.items())
                       if key == "ringqpe" or key.startswith("ringqpe.")]:
            for attr, value in list(vars(module).items()):
                if value is check:
                    monkeypatch.setattr(module, attr, counted)
        assert main(["compare", "--problem", str(sigma_x_file),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_superposition_is_ambiguous(self, tmp_path, sigma_z_file, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--problem", str(sigma_z_file),
                     "--out-dir", str(out)])
        assert code == 4
        report = json.loads((out / "compare.json").read_text())
        assert report["ambiguous"] is True
        assert report["secondary_weight"] >= 0.1
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize("energies,weight", [
        ((1.0, -2.78), 0.94), ((2.0, -2.0), 0.95),
    ], ids=["0.94", "0.95"])
    def test_weak_contamination_reads_the_dominant_eigenphase(
        self, tmp_path, energies, weight
    ):
        # a few percent of a second eigencolor stays under the ambiguity
        # threshold; the angle of the weighted phasor sum would sit past the
        # bound, but phi_eig is the eigenphase both routes read
        state = np.array([math.sqrt(weight), math.sqrt(1.0 - weight)])
        problem = rq.EnergyProblem(np.diag(energies), 1.0, state)
        path = write_problem(tmp_path, problem, "mixed.json")
        out = tmp_path / "out"
        code = main(["compare", "--problem", str(path), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["ambiguous"] is False
        assert report["secondary_weight"] < 0.1
        assert report["ok"] is True
        assert abs(report["phi_eig"] - energies[0]) < 1e-12

    @pytest.mark.parametrize("gap_lobes", [1, 2, 3, 5, 9])
    def test_close_pair_is_ambiguous_and_reads_its_dominant_phase(
            self, tmp_path, gap_lobes):
        # lobes of compare's default l = 200; the peak window merged pairs
        # closer than 16 of them and put phi_ring between the two
        energies = np.array([0.4, 0.4 + gap_lobes * TWO_PI / 401])
        rng = np.random.default_rng(gap_lobes)
        v = random_unitary(rng, 3)
        h = (v[:, :2] * energies) @ v[:, :2].conj().T + 2.5 * np.outer(v[:, 2], v[:, 2].conj())
        state = v[:, :2] @ np.sqrt([0.7, 0.3])
        path = write_problem(tmp_path, rq.EnergyProblem(h, 1.0, state), "pair.json")
        out = tmp_path / "out"
        code = main(["compare", "--problem", str(path), "--out-dir", str(out)])
        assert code == 4
        report = json.loads((out / "compare.json").read_text())
        assert abs(report["phi_ring"] - energies[0]) < 1e-9
        assert abs(report["secondary_weight"] - 0.3) < 1e-6

    def test_injected_register_error_trips_mismatch(
        self, tmp_path, sigma_x_file, monkeypatch, capsys
    ):
        exact = qpe_module.qpe_estimate

        def shifted(*args):
            est = exact(*args)
            return est._replace(phi_estimate=(est.phi_estimate + 0.1) % TWO_PI)

        monkeypatch.setattr(qpe_module, "qpe_estimate", shifted)
        out = tmp_path / "out"
        code = main(["compare", "--problem", str(sigma_x_file),
                     "--out-dir", str(out)])
        assert code == 3
        report = json.loads((out / "compare.json").read_text())
        assert report["ok"] is False
        assert report["distances"]["qpe_eig"] > report["bound"]
        assert report["distances"]["ring_eig"] <= report["bound"]
        assert "disagree" in capsys.readouterr().err

    def test_phi_eig_at_phase_zero_is_zero_not_two_pi(self, tmp_path):
        # the state is U's phase-0 eigenvector; the angle of its spectral sum
        # comes out as -1e-17 here, which % 2 pi rounds up to 2 pi itself
        q = random_unitary(np.random.default_rng([1, 0]), 2)
        u = (q * np.exp(1j * np.array([0.0, 1.3]))) @ q.conj().T
        path = write_problem(tmp_path, rq.UnitarySpec(u, q[:, 0]), "seam.json")
        out = tmp_path / "out"
        assert main(["compare", "--problem", str(path), "--out-dir", str(out)]) == 0
        phi_eig = json.loads((out / "compare.json").read_text())["phi_eig"]
        assert 0.0 <= phi_eig < 1e-12

    @pytest.mark.parametrize("step", [0.0, 1e-6], ids=["degenerate", "spread"])
    def test_eigenvalue_split_over_eigenvectors_reads_as_one(self, tmp_path, step):
        # H = diag(1 x 10, -1) with 0.0905 on each of the ten and 0.095 on
        # -1: phi_eig took the heaviest eigenvector, -1, where both routes
        # see the ten as one eigenvalue of weight 0.905, and compare exited 3
        energies = np.append(1.0 + step * np.arange(10), -1.0)
        v = random_unitary(np.random.default_rng(31), 11) if step else np.eye(11)
        h = (v * energies) @ v.conj().T
        state = v @ np.sqrt(np.append(np.full(10, 0.0905), 0.095))
        path = write_problem(tmp_path, rq.EnergyProblem(h, 1.0, state), "split.json")
        out = tmp_path / "out"
        assert main(["compare", "--problem", str(path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        # the ten's weighted circular mean, to O(step^3)
        assert abs(report["phi_eig"] - (1.0 + 4.5 * step)) < 1e-12
        assert report["distances"]["ring_eig"] < 1e-9

    def test_degenerate_pair_outweighs_a_heavier_eigenvector(self, tmp_path):
        # 0.3 + 0.3 on the doubly degenerate 1 outweigh 0.4 on -1; the
        # secondary ring peak still makes this ambiguous
        state = np.sqrt([0.3, 0.3, 0.4])
        problem = rq.EnergyProblem(np.diag([1.0, 1.0, -1.0]), 1.0, state)
        out = tmp_path / "out"
        assert main(["compare", "--problem", str(write_problem(tmp_path, problem)),
                     "--out-dir", str(out)]) == 4
        report = json.loads((out / "compare.json").read_text())
        assert abs(report["phi_eig"] - 1.0) < 1e-12
        assert report["distances"]["ring_eig"] < 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_cluster_reads_as_the_ring_reads_it(self, tmp_path, seed):
        # 2-10 eigenvalues spread by 1e-12 to a quarter lobe of compare's
        # l = 200, in a random basis, beside a lone eigenvalue heavier than
        # each of them but lighter than their sum. Over 300 seeds the ring
        # and the direct route agreed within 7.6e-8 rad, 1/3000 of a lobe:
        # the pencil's poles for a cluster spread near a quarter lobe only
        # approximate its members, and their weighted mean absorbs most of
        # that. Reading the heaviest eigenvector put phi_eig on the lone
        # eigenvalue, up to 3.1 rad off
        rng = np.random.default_rng([13, seed])
        k = int(rng.integers(2, 11))
        lobe = TWO_PI / 401
        spread = 10 ** rng.uniform(-12, math.log10(0.2499 * lobe))
        centre = rng.uniform(-np.pi, np.pi)
        cluster = centre + np.sort(rng.uniform(0, spread, k))
        phases = np.append(cluster, [centre + rng.uniform(1, np.pi), centre - 1.0])
        members = rng.dirichlet(np.ones(k))
        low = members.max() / (1 + members.max())
        lone = low + (0.5 - low) * rng.uniform(0.1, 0.9)
        weights = np.append(members * (1 - lone), [lone, 0.0])
        v = random_unitary(rng, k + 2)
        state = v @ np.sqrt(weights)
        if seed % 2:
            problem = rq.UnitarySpec((v * np.exp(1j * phases)) @ v.conj().T, state)
        else:
            h = (v * rq.wrap_to_signed(phases)) @ v.conj().T
            problem = rq.EnergyProblem(h, 1.0, state)
        out = tmp_path / "out"
        # 4: the lone eigenvalue is a secondary ring peak above 0.1
        assert main(["compare", "--problem", str(write_problem(tmp_path, problem)),
                     "--out-dir", str(out)]) == 4
        report = json.loads((out / "compare.json").read_text())
        assert report["distances"]["ring_eig"] < 1e-6

    @pytest.mark.parametrize("name", ["sigma_x_ground_state", "diag_quarter_turn"])
    def test_eigensolver_error_is_caught_by_the_ring(
            self, tmp_path, monkeypatch, capsys, name):
        # the ring reads U itself, so eigenphases 0.05 off, more than twice
        # the bound, set it apart from the register and the direct route;
        # when the ring read the spectrum too, all three moved together and
        # compare exited 0
        def shifted(solve):
            def run(matrix):
                theta, v = solve(matrix)
                return rq.EigenDecomposition(theta + 0.05, v)
            return run

        for fn in ("eig_hermitian", "eig_unitary"):
            monkeypatch.setattr(encode_module, fn, shifted(getattr(encode_module, fn)))
        out = tmp_path / "out"
        code = main(["compare", "--problem", os.path.join(PROBLEM_DIR, f"{name}.json"),
                     "--out-dir", str(out)])
        assert code == 3
        report = json.loads((out / "compare.json").read_text())
        assert report["distances"]["ring_eig"] > report["bound"]
        assert report["distances"]["qpe_eig"] <= report["bound"]
        assert "disagree" in capsys.readouterr().err

    def test_register_finer_than_grid_is_compared(self, tmp_path, sigma_x_file):
        # N >= 2^t was refused, though neither the bound nor the ring's
        # read-out reads N beyond N >= 4l+1
        code = main(["compare", "--problem", str(sigma_x_file),
                     "--out-dir", str(tmp_path), "-l", "10", "-N", "64",
                     "--t-bits", "10"])
        assert code == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["ok"] and max(report["distances"].values()) <= report["bound"]


class TestRingArguments:
    @pytest.mark.parametrize("argv,message", [
        (["ring-sim", "-l", "0"], "mode cutoff must be >= 1"),
        (["ring-sim", "--times", "nan"], "is not finite"),
        (["ring-sim", "--times", "0,inf"], "is not finite"),
        (["ring-sim", "--times", "1e308"], "is not finite"),
        # t is finite, but E t overflows at the last snapshot only
        (["ring-sim", "--times", "0,0.5,1e305"], "phase E t is not finite"),
        (["compare", "-l", "0"], "mode cutoff must be >= 1"),
    ], ids=["ring-sim-l0", "nan", "inf", "overflow", "late-phase", "compare-l0"])
    def test_refused_before_any_output(self, tmp_path, sigma_x_file, capsys,
                                       argv, message):
        # these were refused only after the output directory was made
        out = tmp_path / "out"
        code = main(argv + ["--problem", str(sigma_x_file), "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ringqpe: error: ") and message in err
        assert not out.exists()

    def test_late_snapshot_is_written(self, tmp_path, sigma_z_file):
        # a million return times: the evolved packet kept its norm only
        # once W was held on the unitary group
        out = tmp_path / "out"
        assert main(["ring-sim", "--problem", str(sigma_z_file), "--out-dir",
                     str(out), "--times", "1e6,1e100"]) == 0
        assert (out / "density_01.csv").exists()

    def test_non_finite_phase_is_one_error_line(self, tmp_path, sigma_x_file):
        # numpy's "overflow encountered in multiply" reached stderr ahead of
        # the error; run as a process to see stderr as a user does
        out = tmp_path / "out"
        proc = run_python(
            ["-m", "ringqpe", "ring-sim",
             "--problem", str(sigma_x_file), "--out-dir", str(out),
             "--times", "0,0.5,1e305"]
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("ringqpe: error: phase E t is not finite")
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["ring-sim"])
    @pytest.mark.parametrize("flags,message", [
        # hbar = 1 in natural units, so the overflow of E t / hbar that a
        # tiny hbar caused is now reached by a huge first snapshot time
        (["--times", "1e306"], "phase E t is not finite"),
    ], ids=["hbar"])
    def test_extreme_constants_leave_one_line_and_no_output(
            self, tmp_path, sigma_x_file, sub, flags, message):
        out = tmp_path / "out"
        proc = run_python(
            ["-m", "ringqpe", sub, "--problem", str(sigma_x_file),
             "--out-dir", str(out)] + flags
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"ringqpe: error: {message}")
        assert not out.exists()


class TestMemoryGuards:
    @pytest.mark.parametrize("sub", ["ring-sim", "compare"])
    def test_oversized_grid_is_refused_before_allocating(
            self, tmp_path, sigma_x_file, capsys, monkeypatch, sub):
        # numpy's memory error used to end ring-sim with a traceback
        def forbidden(*args, **kwargs):
            raise AssertionError("grid allocated before the guard")

        monkeypatch.setattr(np, "zeros", forbidden)
        monkeypatch.setattr(np, "empty", forbidden)
        out = tmp_path / "out"
        code = main([sub, "--problem", str(sigma_x_file), "--out-dir", str(out),
                     "-N", str(2 ** 40)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ringqpe: error: ") and "guard" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["ring-sim", "compare"])
    def test_large_cutoff_times_colors_is_refused_before_allocating(
            self, tmp_path, capsys, monkeypatch, sub):
        # 1290555 modes x 32 colors: evolve_block alone would take about
        # 2.8 GiB, though the grid, N = 4l+1 as the read-out needs, is by
        # itself well inside the guard
        rng = np.random.default_rng(16)
        problem = rq.EnergyProblem(random_hermitian(rng, 32, 0.1), 1.0,
                                   random_state(rng, 32))
        path = write_problem(tmp_path, problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the guard")

        for name in ("tile", "zeros", "empty"):
            monkeypatch.setattr(np, name, forbidden)
        out = tmp_path / "out"
        code = main([sub, "--problem", str(path), "--out-dir", str(out),
                     "-l", "645277", "-N", "2581109"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ringqpe: error: ") and "guard" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_ring_sim_peak_stays_under_the_guard(self, tmp_path, sigma_x_file):
        # the grid-bound side: the density at t_R with its grid, and the
        # peak read-out's shifted copies of the density
        import tracemalloc

        l, n_grid = 3, 1 << 16
        tracemalloc.start()
        try:
            code = main(["ring-sim", "--problem", str(sigma_x_file),
                         "--out-dir", str(tmp_path / "out"),
                         "-l", str(l), "-N", str(n_grid)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        bound = (ring_module._BYTES_PER_MODE_COLOR * (2 * l + 1) * 2
                 + ring_module._BYTES_PER_POINT * n_grid)
        assert peak <= bound

    def test_ring_sim_holds_one_snapshot_at_a_time(self, tmp_path, sigma_x_file):
        # every snapshot used to be held until all were written, 16 bytes a
        # point more for each time
        import tracemalloc

        n_grid = 1 << 18
        peaks = []
        for times in ("0,0.5,1", ",".join(str(i / 10) for i in range(10))):
            tracemalloc.start()
            try:
                code = main(["ring-sim", "--problem", str(sigma_x_file),
                             "--out-dir", str(tmp_path / times),
                             "-l", "3", "-N", str(n_grid), "--times", times])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + n_grid

    def test_shots_past_the_sampler_are_refused(self, tmp_path, sigma_x_file):
        # numpy's multinomial raised an OverflowError traceback on these
        out = tmp_path / "out"
        proc = run_python(
            ["-m", "ringqpe", "qpe", "--problem", str(sigma_x_file),
             "--out-dir", str(out), "--shots", "99999999999999999999"]
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("ringqpe: error: shots must be in")
        assert not out.exists()


class TestRegisterWidth:
    @pytest.mark.parametrize("sub", ["qpe", "compare"])
    @pytest.mark.parametrize("t_bits", ["-1", "0"])
    def test_bad_register_width_is_refused(self, tmp_path, sigma_x_file,
                                           capsys, sub, t_bits):
        # compare formed 2^t before checking t, so -1 raised "negative
        # shift count" with a traceback
        out = tmp_path / "out"
        code = main([sub, "--problem", str(sigma_x_file),
                     "--out-dir", str(out), "--t-bits", t_bits])
        assert code == 1
        err = capsys.readouterr().err
        assert "ringqpe: error: t_bits must be in" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBench:
    def test_small_suite_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bench", "--out-dir", str(out), "--sizes", "24,48",
                     "--repeats", "3"])
        assert code == 0
        assert (out / "bench.csv").exists()
        with open(out / "bench.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "method,size,median_s,spread,op_count,seed"
        # two methods, two sizes each
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["dense_expm", "22"], ["dense_expm", "46"],
            ["block_evolve", "22"], ["block_evolve", "46"]]
        fits = json.loads((out / "bench_fits.json").read_text())
        assert fits == []  # two points per method cannot support a fit
        assert "wrote" in capsys.readouterr().out

    def test_fits_name_no_axis(self, tmp_path, capsys):
        # both methods fit log(time) against log(dimension), so no fit or
        # printed slope labels its axis
        out = tmp_path / "out"
        assert main(["bench", "--out-dir", str(out), "--sizes", "24,32,40,48",
                     "--repeats", "3"]) == 0
        fits = json.loads((out / "bench_fits.json").read_text())
        assert [f["method"] for f in fits] == ["dense_expm", "block_evolve"]
        for f in fits:
            assert set(f) == {"method", "slope", "intercept", "r_squared"}
        slopes = [line for line in capsys.readouterr().out.splitlines()
                  if "slope=" in line]
        assert len(slopes) == 2
        assert not any(" vs " in line for line in slopes)

    def test_bench_rejects_bad_sizes(self, tmp_path, capsys):
        code = main(["bench", "--out-dir", str(tmp_path), "--sizes", "0,24",
                     "--repeats", "3"])
        assert code == 1

    def test_refused_suite_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench", "--out-dir", str(out), "--sizes", "0,24",
                     "--repeats", "3"]) == 1
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("argv", [
        ["qpe", "--shots", "10"],
        ["qpe"],
        ["compare", "--shots", "10"],
        ["bench", "--sizes", "24", "--repeats", "3"],
    ])
    def test_negative_seed_is_refused_before_any_output(
            self, tmp_path, sigma_x_file, capsys, argv):
        # numpy's generators refuse a negative seed with a traceback, so it
        # is refused as a usage error before any output exists, also where
        # exact mode would never sample
        out = tmp_path / "out"
        argv = argv + ["--seed", "-1", "--out-dir", str(out)]
        if argv[0] != "bench":
            argv += ["--problem", str(sigma_x_file)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "ringqpe: error: bad seed value -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ring_sim_samples_nothing_so_takes_no_seed(
            self, tmp_path, sigma_x_file, capsys):
        out = tmp_path / "out"
        argv = ["ring-sim", "--problem", str(sigma_x_file), "--out-dir", str(out)]
        assert main(argv + ["--seed", "3"]) == 1
        err = capsys.readouterr().err
        # reported under ring-sim's usage, not the top-level one
        assert err.startswith("usage: ringqpe ring-sim [-h]")
        assert "unrecognized arguments: --seed 3" in err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        assert main(argv + ["--config", str(config)]) == 1
        assert "keys not used by ring-sim: ['seed']" in capsys.readouterr().err
        assert not out.exists()
        dests = {a.dest for a in subcommand_parsers()["ring-sim"]._actions}
        dests.discard("help")
        assert dests == {"problem", "out_dir", "config", "mode_cutoff_l",
                         "grid_size_n", "times"}


class TestOneDecompositionPerProblem:
    @pytest.mark.parametrize("sub", ["ring-sim", "qpe", "compare"])
    @pytest.mark.parametrize("name", sorted(os.listdir(PROBLEM_DIR)))
    def test_each_command_decomposes_the_problem_once(
            self, tmp_path, monkeypatch, sub, name):
        calls = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ringqpe" or key.startswith("ringqpe.")]
        for fn in (rq.eig_hermitian, rq.eig_unitary):
            def counted(*args, _fn=fn, **kwargs):
                calls.append(_fn.__name__)
                return _fn(*args, **kwargs)

            # wherever a module bound the function by name
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        code = main([sub, "--problem", os.path.join(PROBLEM_DIR, name),
                     "--out-dir", str(tmp_path)])
        # compare finds the shipped superposition ambiguous
        assert code == (4 if sub == "compare" and "superposition" in name else 0)
        assert len(calls) == 1, calls


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path, sigma_x_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode_cutoff_l": 10}))

        out_config = tmp_path / "via_config"
        assert main(["ring-sim", "--problem", str(sigma_x_file),
                     "--config", str(config), "--out-dir", str(out_config)]) == 0
        summary = (out_config / "summary.txt").read_text()
        assert "mode cutoff l = 10" in summary

        out_flag = tmp_path / "via_flag"
        assert main(["ring-sim", "--problem", str(sigma_x_file),
                     "--config", str(config), "--out-dir", str(out_flag),
                     "-l", "12"]) == 0
        summary = (out_flag / "summary.txt").read_text()
        assert "mode cutoff l = 12" in summary

    def test_config_can_name_the_problem(self, tmp_path, sigma_x_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": str(sigma_x_file)}))
        out = tmp_path / "out"
        assert main(["qpe", "--config", str(config), "--out-dir", str(out)]) == 0
        assert (out / "qpe_estimate.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, sigma_x_file, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode_cutoff": 10}))
        code = main(["ring-sim", "--problem", str(sigma_x_file),
                     "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "mode_cutoff" in capsys.readouterr().err

    def test_null_config_value_means_the_subcommand_default(
            self, tmp_path, sigma_x_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode_cutoff_l": None, "seed": None}))
        out = tmp_path / "out"
        assert main(["compare", "--problem", str(sigma_x_file),
                     "--config", str(config), "--out-dir", str(out)]) == 0
        report = json.loads((out / "compare.json").read_text())
        # compare's l = 200, not ring-sim's 50
        assert report["bound"] == TWO_PI / 1024 + TWO_PI / 401

        config.write_text(json.dumps({"seed": None}))
        assert main(["qpe", "--problem", str(sigma_x_file), "--shots", "10",
                     "--config", str(config), "--out-dir", str(out)]) == 0
        assert json.loads((out / "qpe_estimate.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("sub,key,value", [
        ("compare", "mode_cutoff_l", "abc"),
        ("ring-sim", "times", "0,x"),
        ("ring-sim", "out_dir", ["x", 1]),
        ("qpe", "t_bits", 1e400),
        ("ring-sim", "mode_cutoff_l", 10.7),
        ("qpe", "t_bits", True),
        ("qpe", "seed", 0.5),
        ("bench", "sizes", [64, 128.5]),
        ("bench", "sizes", [64, False]),
        ("bench", "count_ops", "false"),
        ("qpe", "problem", 5),
        # open and os.makedirs raised a bare ValueError on a NUL byte
        ("qpe", "problem", "a\0b"),
        ("qpe", "out_dir", "a\0b"),
        ("ring-sim", "times", [True, False]),
        # a line break in the value is escaped, not printed
        ("ring-sim", "times", "0,\nx"),
        # a tuple is a flag and its value, cast as the config value is
        *(pytest.param(sub, key, flag, id=sub + "=".join(flag))
          for sub, key, flag in [
              ("ring-sim", "mode_cutoff_l", ("-l", "abc")),
              ("ring-sim", "mode_cutoff_l", ("-l", "10.7")),
              ("qpe", "t_bits", ("--t-bits", "true")),
              ("qpe", "seed", ("--seed", "0.5")),
              ("ring-sim", "times", ("--times", "0,x")),
              ("bench", "sizes", ("--sizes", "64,128.5")),
              ("bench", "repeats", ("--repeats", "x")),
          ]),
    ])
    def test_wrong_typed_config_value_is_usage_error(
            self, tmp_path, sigma_x_file, capsys, monkeypatch, sub, key, value):
        # an out_dir list made a directory named "['x', 1]" and wrote into it
        monkeypatch.delenv("RINGQPE_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        flag = value if isinstance(value, tuple) else ()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({} if flag else {key: value}))
        argv = [sub, *flag, "--config", str(config)]
        if key != "out_dir":
            argv += ["--out-dir", str(tmp_path / "out")]
        if sub != "bench" and key != "problem":
            argv += ["--problem", str(sigma_x_file)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"ringqpe: error: bad {key} value")
        assert "Traceback" not in captured.err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "sigma_x.json"]

    @pytest.mark.parametrize("key,value,want", [
        ("mode_cutoff_l", 12.0, 12),
        ("mode_cutoff_l", "12", 12),
        ("sizes", [64.0, "128"], (64, 128)),
        ("sizes", "64, 128", (64, 128)),
    ])
    def test_integral_config_values_become_ints(self, tmp_path, key, value, want):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        sub = "bench" if key == "sizes" else "ring-sim"
        cfg = cli._resolve_config(
            cli.build_parser().parse_args([sub, "--config", str(config)])
        )
        got = getattr(cfg, key)
        assert got == want
        assert all(type(x) is int for x in (got if key == "sizes" else [got]))

    @pytest.mark.parametrize("sub", sorted(cli._DEFAULTS))
    def test_no_flags_resolve_to_the_defaults_row(self, sub, tmp_path, monkeypatch):
        monkeypatch.delenv("RINGQPE_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = cli._resolve_config(cli.build_parser().parse_args([sub]))
        for key, value in cli._DEFAULTS[sub].items():
            if key != "out_dir":
                assert getattr(cfg, key) == value
                assert type(getattr(cfg, key)) is type(value)
        assert cfg.out_dir == str(tmp_path)

    @pytest.mark.parametrize("sub", sorted(cli._DEFAULTS))
    def test_physical_constants_are_refused(self, tmp_path, sigma_x_file, capsys,
                                            sub):
        # the ring runs at hbar = q = r = m_q = 1, which no output could see
        argv = [sub, "--out-dir", str(tmp_path / "out")]
        if sub != "bench":
            argv += ["--problem", str(sigma_x_file)]
        assert main(argv + ["--radius", "5"]) == 1
        assert "unrecognized arguments: --radius 5" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hbar": 2.0}))
        assert main(argv + ["--config", str(config)]) == 1
        assert f"keys not used by {sub}: ['hbar']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bench_refuses_a_problem_key(self, tmp_path, capsys):
        # only the subcommands that take --problem read the key
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": "nope.json"}))
        out = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "keys not used by bench: ['problem']" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_config_is_io_error(self, tmp_path, sigma_x_file):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        code = main(["ring-sim", "--problem", str(sigma_x_file),
                     "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_out_dir_env_fallback(self, tmp_path, sigma_x_file, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("RINGQPE_OUT_DIR", str(env_dir))
        assert main(["qpe", "--problem", str(sigma_x_file),
                     "--t-bits", "6"]) == 0
        assert (env_dir / "qpe_estimate.json").exists()

    def test_out_dir_flag_beats_env(self, tmp_path, sigma_x_file, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("RINGQPE_OUT_DIR", str(env_dir))
        assert main(["qpe", "--problem", str(sigma_x_file),
                     "--t-bits", "6", "--out-dir", str(flag_dir)]) == 0
        assert (flag_dir / "qpe_estimate.json").exists()
        assert not env_dir.exists()


class TestDeterminism:
    def test_ring_sim_reruns_byte_identical(self, tmp_path, sigma_x_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["ring-sim", "--problem", str(sigma_x_file),
                         "--out-dir", str(out)]) == 0
        for name in ["density_00.csv", "density_01.csv", "density_02.csv",
                     "peaks.json", "summary.txt"]:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


class TestNoTestOnlyApi:
    def test_every_public_name_has_a_caller_in_src_or_is_documented(self):
        # a name counts as used where src/ loads it outside its own def or
        # class; imports and the __all__ strings are not uses
        src_dir = os.path.dirname(rq.__file__)
        used, public = set(), set(rq.__all__)

        def visit(node, enclosing):
            for child in ast.iter_child_nodes(node):
                inner = enclosing
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = enclosing | {child.name}
                elif isinstance(child, ast.Name) and child.id not in enclosing:
                    used.add(child.id)
                elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                    used.add(child.attr)
                visit(child, inner)

        for name in sorted(os.listdir(src_dir)):
            if name.endswith(".py"):
                with open(os.path.join(src_dir, name)) as fh:
                    tree = ast.parse(fh.read())
                public |= {node.name for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and not node.name.startswith("_")}
                visit(tree, frozenset())

        with open(README) as fh:
            library = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        unused = sorted(name for name in public - used
                        if not re.search(rf"\b{name}\b", library))
        assert unused == [], f"public names with neither a caller in src/ " \
                             f"nor a mention in README's Library section: {unused}"
