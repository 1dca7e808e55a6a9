"""Tests for traffic counters, time breakdowns, and PCIe."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.counters import TrafficCounter
from repro.hardware.interconnect import PCIeLink
from repro.sim.timing import TimeBreakdown


class TestTrafficCounter:
    def test_merge_accumulates_extensive_quantities(self):
        a = TrafficCounter(sequential_read_bytes=100, random_accesses=10, random_working_set_bytes=1000)
        b = TrafficCounter(sequential_read_bytes=50, random_accesses=30, random_working_set_bytes=500)
        a.merge(b)
        assert a.sequential_read_bytes == 150
        assert a.random_accesses == 40
        # Working set keeps the largest value (it is intensive).
        assert a.random_working_set_bytes == 1000

    def test_merge_weights_access_bytes(self):
        a = TrafficCounter(random_accesses=10, random_access_bytes=8)
        b = TrafficCounter(random_accesses=30, random_access_bytes=16)
        a.merge(b)
        assert a.random_access_bytes == pytest.approx((10 * 8 + 30 * 16) / 40)

    def test_add_operator_does_not_mutate(self):
        a = TrafficCounter(sequential_read_bytes=100)
        b = TrafficCounter(sequential_read_bytes=50)
        c = a + b
        assert c.sequential_read_bytes == 150
        assert a.sequential_read_bytes == 100

    def test_scaled_preserves_intensive_quantities(self):
        counter = TrafficCounter(
            sequential_read_bytes=100, random_accesses=10,
            random_working_set_bytes=1000, branch_miss_rate=0.3, data_dependent_branches=10,
        )
        scaled = counter.scaled(4)
        assert scaled.sequential_read_bytes == 400
        assert scaled.random_accesses == 40
        assert scaled.random_working_set_bytes == 1000
        assert scaled.branch_miss_rate == 0.3

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            TrafficCounter().scaled(-1)

    @given(factor=st.floats(min_value=0, max_value=1e6),
           reads=st.floats(min_value=0, max_value=1e12))
    def test_scaling_is_linear(self, factor, reads):
        counter = TrafficCounter(sequential_read_bytes=reads)
        assert counter.scaled(factor).sequential_read_bytes == pytest.approx(reads * factor)


class TestTimeBreakdown:
    def test_add_and_total(self):
        time = TimeBreakdown()
        time.add("a", 0.5).add("b", 0.25).add("a", 0.5)
        assert time.components["a"] == 1.0
        assert time.total_seconds == pytest.approx(1.25)
        assert time.total_ms == pytest.approx(1250.0)

    def test_add_rejects_negative(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("a", -1.0)

    def test_merge_with_prefix(self):
        a = TimeBreakdown({"x": 1.0})
        b = TimeBreakdown({"y": 2.0})
        a.merge(b, prefix="phase.")
        assert a.components == {"x": 1.0, "phase.y": 2.0}

    def test_scaled(self):
        time = TimeBreakdown({"x": 1.0, "y": 3.0})
        scaled = time.scaled(0.5)
        assert scaled.total_seconds == pytest.approx(2.0)
        assert time.total_seconds == pytest.approx(4.0)

    def test_addition_operator(self):
        total = TimeBreakdown({"x": 1.0}) + TimeBreakdown({"x": 2.0, "y": 1.0})
        assert total.components == {"x": 3.0, "y": 1.0}

    def test_single_constructor(self):
        assert TimeBreakdown.single("only", 2.0).total_seconds == 2.0


class TestPCIeLink:
    def test_transfer_seconds_includes_latency(self):
        link = PCIeLink(bandwidth_bytes_per_s=10e9, latency_s=1e-5)
        assert link.transfer_seconds(10e9) == pytest.approx(1.0 + 1e-5)
        assert link.transfer_seconds(0) == 0.0

    def test_overlap_with_kernel_takes_max(self):
        link = PCIeLink(bandwidth_bytes_per_s=10e9, latency_s=0.0)
        assert link.overlapped_with_kernel(10e9, 0.5) == pytest.approx(1.0)
        assert link.overlapped_with_kernel(10e9, 2.0) == pytest.approx(2.0)

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            PCIeLink(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            PCIeLink().transfer_seconds(-1)
