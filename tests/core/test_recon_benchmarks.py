"""Benchmarks for HMPI_Recon: the default unit benchmark and the factories."""

import numpy as np
import pytest

from repro.cluster import uniform_network
from repro.core import run_hmpi
from repro.core.recon import kernel_benchmark, matmul_kernel
from repro.mpi import run_mpi


class TestUnitBenchmark:
    def test_charges_declared_volume(self):
        # Without a benchmark, recon charges `volume` units of pure
        # computation: 5 units at speed 100 take 0.05 s.
        def app(hmpi):
            t0 = hmpi.env.wtime()
            speed = hmpi.recon(volume=5.0)
            return speed, hmpi.env.wtime() - t0

        res = run_hmpi(app, uniform_network([100.0]))
        speed, elapsed = res.results[0]
        assert speed == pytest.approx(100.0)
        assert elapsed == pytest.approx(0.05)


class TestKernelBenchmark:
    def test_runs_kernel_and_charges(self):
        calls = []
        cluster = uniform_network([50.0])
        bench = kernel_benchmark(lambda: calls.append(1), volume=2.0)

        def app(env):
            bench(env)
            return env.wtime()

        res = run_mpi(app, cluster)
        assert calls == [1]
        assert res.results[0] == pytest.approx(0.04)


class TestKernels:
    def test_matmul_kernel_shape_and_determinism(self):
        k1 = matmul_kernel(r=5, seed=3)
        k2 = matmul_kernel(r=5, seed=3)
        out1, out2 = k1(), k2()
        assert out1.shape == (5, 5)
        assert (out1 == out2).all()

    def test_matmul_kernel_is_a_product(self):
        k = matmul_kernel(r=4, seed=0)
        out = k()
        assert np.isfinite(out).all()
