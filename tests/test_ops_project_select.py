"""Tests for the projection and selection operators (Sections 4.1 and 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.project import gpu_project_model
from repro.models.select import gpu_select_model
from repro.ops.cpu import cpu_project, cpu_select
from repro.ops.cpu.project import sigmoid
from repro.ops.gpu import gpu_project, gpu_select, gpu_select_independent_threads


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(5)
    n = 1 << 16
    return rng.random(n).astype(np.float32), rng.random(n).astype(np.float32)


class TestProjectCorrectness:
    def test_cpu_linear_combination(self, columns):
        x1, x2 = columns
        result = cpu_project(x1, x2, variant="naive")
        assert np.allclose(result.value, 2 * x1 + 3 * x2, rtol=1e-5)

    def test_cpu_udf(self, columns):
        x1, x2 = columns
        result = cpu_project(x1, x2, udf=sigmoid, variant="opt")
        assert np.allclose(result.value, sigmoid(2 * x1 + 3 * x2), rtol=1e-5)

    def test_gpu_matches_cpu(self, columns):
        x1, x2 = columns
        cpu = cpu_project(x1, x2, variant="opt")
        gpu = gpu_project(x1, x2)
        assert np.allclose(cpu.value, gpu.value, rtol=1e-5)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            cpu_project(np.zeros(4, dtype=np.float32), np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError):
            gpu_project(np.zeros(4, dtype=np.float32), np.zeros(5, dtype=np.float32))

    def test_unknown_variant(self, columns):
        x1, x2 = columns
        with pytest.raises(ValueError):
            cpu_project(x1, x2, variant="bogus")


class TestProjectPerformanceShape:
    def test_optimized_cpu_not_slower(self, columns):
        x1, x2 = columns
        naive = cpu_project(x1, x2, udf=sigmoid, variant="naive")
        opt = cpu_project(x1, x2, udf=sigmoid, variant="opt")
        assert opt.seconds <= naive.seconds

    def test_gpu_faster_than_cpu(self, columns):
        x1, x2 = columns
        cpu = cpu_project(x1, x2, variant="opt")
        gpu = gpu_project(x1, x2)
        assert gpu.seconds < cpu.seconds

    def test_gpu_close_to_bandwidth_model(self, columns):
        x1, x2 = columns
        gpu = gpu_project(x1, x2)
        model = gpu_project_model(len(x1))
        # Within 2x of the bandwidth-saturated bound (launch overhead dominates
        # at this small execution size).
        assert gpu.seconds <= model.seconds * 3 + 1e-4

    def test_traffic_matches_footprint(self, columns):
        x1, x2 = columns
        result = gpu_project(x1, x2)
        assert result.traffic.sequential_read_bytes == pytest.approx(x1.nbytes * 2)
        assert result.traffic.sequential_write_bytes == pytest.approx(x1.nbytes)


class TestSelectCorrectness:
    @pytest.mark.parametrize("variant", ["if", "pred", "simd_pred"])
    def test_cpu_variants_match_numpy(self, columns, variant):
        y, _ = columns
        result = cpu_select(y, 0.3, variant)
        assert np.array_equal(result.value, y[y < 0.3])

    @pytest.mark.parametrize("variant", ["if", "pred"])
    def test_gpu_variants_match_numpy(self, columns, variant):
        y, _ = columns
        result = gpu_select(y, 0.3, variant)
        assert np.array_equal(np.sort(result.value), np.sort(y[y < 0.3]))

    def test_independent_threads_matches(self, columns):
        y, _ = columns
        result = gpu_select_independent_threads(y, 0.7)
        assert np.array_equal(np.sort(result.value), np.sort(y[y < 0.7]))

    def test_unknown_variants(self, columns):
        y, _ = columns
        with pytest.raises(ValueError):
            cpu_select(y, 0.5, "vectorized")
        with pytest.raises(ValueError):
            gpu_select(y, 0.5, "simd")

    def test_selectivity_stat(self, columns):
        y, _ = columns
        result = cpu_select(y, 0.5, "pred")
        assert result.stat("selectivity") == pytest.approx(0.5, abs=0.02)

    @settings(max_examples=20, deadline=None)
    @given(threshold=st.floats(min_value=0.0, max_value=1.0))
    def test_all_variants_agree(self, columns, threshold):
        y, _ = columns
        reference = y[y < threshold]
        for variant in ("if", "pred", "simd_pred"):
            assert np.array_equal(cpu_select(y, threshold, variant).value, reference)
        assert np.array_equal(np.sort(gpu_select(y, threshold).value), np.sort(reference))


class TestSelectPerformanceShape:
    def test_branching_pays_at_half_selectivity(self, columns):
        y, _ = columns
        branching = cpu_select(y, 0.5, "if")
        predicated = cpu_select(y, 0.5, "pred")
        assert branching.seconds > predicated.seconds

    def test_simd_is_fastest_cpu_variant(self, columns):
        y, _ = columns
        simd = cpu_select(y, 0.5, "simd_pred")
        assert simd.seconds <= cpu_select(y, 0.5, "pred").seconds
        assert simd.seconds <= cpu_select(y, 0.5, "if").seconds

    def test_gpu_branching_does_not_matter(self, columns):
        """Paper: GPU If and GPU Pred perform identically (no branch predictor)."""
        y, _ = columns
        branching = gpu_select(y, 0.5, "if")
        predicated = gpu_select(y, 0.5, "pred")
        assert branching.seconds == pytest.approx(predicated.seconds, rel=0.01)

    def test_crystal_beats_independent_threads(self, columns):
        y, _ = columns
        crystal = gpu_select(y, 0.5)
        independent = gpu_select_independent_threads(y, 0.5)
        assert crystal.seconds < independent.seconds

    def test_runtime_grows_with_selectivity(self, columns):
        y, _ = columns
        low = cpu_select(y, 0.1, "simd_pred")
        high = cpu_select(y, 0.9, "simd_pred")
        assert high.seconds > low.seconds

    def test_gpu_tracks_model(self, columns):
        y, _ = columns
        result = gpu_select(y, 0.5)
        model = gpu_select_model(len(y), 0.5)
        assert result.seconds <= model.seconds * 3 + 1e-4
