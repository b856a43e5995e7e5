"""Benchmark harness: fits on synthetic data, seeded suite smoke runs."""

import csv
import math

import numpy as np
import pytest

import ringqpe as rq
import ringqpe.bench as bench
from ringqpe import opcount
from ringqpe.bench import (
    ALL_METHODS,
    METHOD_BLOCK,
    METHOD_DENSE,
    append_bench_csv,
)
from ringqpe.cli import main

from conftest import eigenbasis_evolve, random_hermitian, random_state


def synthetic_points(method, sizes, exponent, prefactor=1e-9):
    return [
        rq.BenchPoint(method, s, prefactor * s ** exponent, 0, 3, 0.0)
        for s in sizes
    ]


class TestBenchPoint:
    def test_guards(self):
        with pytest.raises(rq.PreconditionError, match="method"):
            rq.BenchPoint("fft", 10, 1.0, 0, 3, 0.0)
        # bench times the two ring routes only
        with pytest.raises(rq.PreconditionError, match="method"):
            rq.BenchPoint("qpe_statevector", 10, 1.0, 0, 3, 0.0)
        with pytest.raises(rq.PreconditionError, match="size"):
            rq.BenchPoint(METHOD_DENSE, 0, 1.0, 0, 3, 0.0)
        with pytest.raises(rq.PreconditionError, match="time"):
            rq.BenchPoint(METHOD_DENSE, 10, 0.0, 0, 3, 0.0)
        with pytest.raises(rq.PreconditionError, match="repeats"):
            rq.BenchPoint(METHOD_DENSE, 10, 1.0, 0, 2, 0.0)
        with pytest.raises(rq.PreconditionError, match="spread"):
            rq.BenchPoint(METHOD_DENSE, 10, 1.0, 0, 3, -0.1)


class TestFitScaling:
    def test_cubic_synthetic(self):
        points = synthetic_points(METHOD_DENSE, [50, 100, 200, 400], 3.0)
        fit = rq.fit_scaling(points)
        assert abs(fit.slope - 3.0) < 1e-12
        assert abs(fit.intercept - math.log(1e-9)) < 1e-9
        assert fit.r_squared > 1.0 - 1e-12

    def test_linear_synthetic(self):
        points = synthetic_points(METHOD_BLOCK, [50, 100, 200, 400], 1.0)
        fit = rq.fit_scaling(points)
        assert abs(fit.slope - 1.0) < 1e-12

    def test_needs_four_points(self):
        points = synthetic_points(METHOD_DENSE, [50, 100, 200], 3.0)
        with pytest.raises(rq.PreconditionError, match="4 points"):
            rq.fit_scaling(points)

    def test_rejects_mixed_methods(self):
        points = synthetic_points(METHOD_DENSE, [50, 100], 3.0) \
            + synthetic_points(METHOD_BLOCK, [50, 100], 1.0)
        with pytest.raises(rq.PreconditionError, match="one method"):
            rq.fit_scaling(points)


class TestRunScalingSuite:
    def test_smoke_all_methods(self):
        assert ALL_METHODS == (METHOD_DENSE, METHOD_BLOCK)
        points = rq.run_scaling_suite((24, 48), repeats=3, seed=7)
        # size_param records the realized dimension (2l+1) * n_colors
        assert [(p.method, p.size_param) for p in points] == [
            (METHOD_DENSE, 22), (METHOD_DENSE, 46),
            (METHOD_BLOCK, 22), (METHOD_BLOCK, 46)]
        for p in points:
            assert p.wall_time_s > 0
            assert p.spread >= 0
            assert p.repeats == 3
            assert type(p.op_count) is int and p.op_count > 0

    def test_operation_counts_are_reproducible(self):
        kwargs = dict(repeats=3, seed=3)
        a = rq.run_scaling_suite((24, 48), **kwargs)
        b = rq.run_scaling_suite((24, 48), **kwargs)
        assert [(p.method, p.size_param, p.op_count) for p in a] \
            == [(p.method, p.size_param, p.op_count) for p in b]
        assert all(p.op_count > 0 for p in a)

    def test_block_ops_grow_linearly_with_modes(self):
        points = rq.run_scaling_suite(
            (50, 100), repeats=3, seed=0, methods=(METHOD_BLOCK,)
        )
        assert [p.size_param for p in points] == [50, 98]
        ratio = points[1].op_count / points[0].op_count
        assert ratio <= 2.5

    def test_operation_counts_are_those_of_one_run(self):
        # what a separate counting run after validation recorded when the
        # counts were optional, at seed 2. The block counts were 200, 248
        # and 440 while evolve_block also formed A^2 and exp(-i t A^2 / 2);
        # the dense ones did not move when its blocks lost A^2 / 2
        points = rq.run_scaling_suite((24, 48, 96), repeats=3, seed=2)
        assert [(p.method, p.size_param, p.op_count) for p in points] == [
            (METHOD_DENSE, 22, 131809), (METHOD_DENSE, 46, 1397265),
            (METHOD_DENSE, 94, 13575041), (METHOD_BLOCK, 22, 138),
            (METHOD_BLOCK, 46, 186), (METHOD_BLOCK, 94, 330)]

    @pytest.mark.parametrize("method,name", [(METHOD_BLOCK, "evolve_block"),
                                             (METHOD_DENSE, "evolve_dense")])
    def test_each_point_evolves_warm_up_repeats_and_validation_once(
            self, monkeypatch, method, name):
        # counting rides on the validation run, so a point evolves
        # repeats + 2 times, and only its last run is counted
        evolve, counted = getattr(bench, name), []

        def recording(*args):
            counted.append(opcount._active is not None)
            return evolve(*args)

        monkeypatch.setattr(bench, name, recording)
        points = rq.run_scaling_suite((24, 48), repeats=4, methods=(method,))
        assert len(points) == 2
        # both warm-ups, the round-robin repeats, then one check per size
        assert counted == [False] * (2 + 4 * 2) + [True] * 2

    @pytest.mark.parametrize("method,name", [(METHOD_BLOCK, "evolve_block"),
                                             (METHOD_DENSE, "evolve_dense")])
    def test_a_wrong_result_is_refused_and_nothing_recorded(
            self, tmp_path, monkeypatch, capsys, method, name):
        # the block result was once checked against evolve_block itself, so
        # a wrong block route was timed and recorded
        evolve = getattr(bench, name)

        def perturbed(*args):
            coeffs = evolve(*args).coeffs.copy()
            coeffs[-1] *= np.exp(1e-3j)  # still a unit vector
            return rq.RingState(coeffs)

        monkeypatch.setattr(bench, name, perturbed)
        with pytest.raises(rq.PreconditionError,
                           match=f"{method} at size 48 drifted .* eigenbasis"):
            rq.run_scaling_suite((48,), repeats=3, methods=(method,))
        out = tmp_path / "out"
        assert main(["bench", "--out-dir", str(out), "--sizes", "48",
                     "--repeats", "3"]) == 1
        assert f"{method} at size 48 drifted" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_matches_the_tests_eigenbasis_reference(self):
        # two independent writings of the same closed form
        for i in range(5):
            rng = np.random.default_rng([2600, i])
            n, l = 1 + i, 3 + 7 * i
            a = random_hermitian(rng, n, scale=0.3)
            color = random_state(rng, n)
            got = bench._eigenbasis_evolve(rq.GaugeField(a), color, l, rq.RETURN_TIME)
            want = eigenbasis_evolve(a, color, l, rq.RETURN_TIME)
            assert np.max(np.abs(got - want)) < 1e-13, f"case {i}"

    def test_too_small_sizes_are_skipped(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="ringqpe.bench"):
            points = rq.run_scaling_suite(
                (2, 24), repeats=3, seed=0, methods=(METHOD_BLOCK,)
            )
        assert [p.size_param for p in points] == [22]
        assert any("no ring fits" in r.message for r in caplog.records)

    def test_argument_guards(self):
        with pytest.raises(rq.PreconditionError, match="sizes"):
            rq.run_scaling_suite((), repeats=3)
        with pytest.raises(rq.PreconditionError, match="repeats"):
            rq.run_scaling_suite((24,), repeats=2)
        with pytest.raises(rq.PreconditionError, match="methods"):
            rq.run_scaling_suite((24,), repeats=3, methods=("fft",))
        # numpy would refuse these with a bare ValueError or TypeError
        for seed in (-1, True, 2.5, "7"):
            with pytest.raises(rq.PreconditionError, match="seed"):
                rq.run_scaling_suite((24,), repeats=3, seed=seed)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(sizes=(24.9,)), "sizes"),       # was truncated to 24 and run
        (dict(sizes=(True,)), "sizes"),       # was size 1, skipped silently
        (dict(sizes=("24",)), "sizes"),       # was parsed by int()
        (dict(repeats=3.5), "repeats"),       # was a TypeError in range()
        (dict(repeats="5"), "repeats"),       # was a TypeError in the compare
    ], ids=["size-fraction", "size-bool", "size-str", "repeats-fraction",
            "repeats-str"])
    def test_malformed_counts_are_refused(self, kwargs, name):
        args = dict(sizes=(24,), repeats=3, seed=0, methods=(METHOD_BLOCK,))
        args.update(kwargs)
        with pytest.raises(rq.PreconditionError, match=name):
            rq.run_scaling_suite(**args)


class TestSerialization:
    def test_csv_append_and_header(self, tmp_path):
        path = tmp_path / "bench.csv"
        first = synthetic_points(METHOD_DENSE, [50, 100], 3.0)
        second = [rq.BenchPoint(METHOD_BLOCK, 50, 0.25, 1234, 3, 0.1)]
        append_bench_csv(first, path, seed=7)
        append_bench_csv(second, path, seed=8)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "size", "median_s", "spread", "op_count", "seed"]
        assert len(rows) == 4
        assert rows[1][0] == METHOD_DENSE and rows[1][5] == "7"
        assert rows[3] == [METHOD_BLOCK, "50", "0.25", "0.1", "1234", "8"]
        # float columns survive a text round trip exactly
        assert float(rows[1][2]) == first[0].wall_time_s
