"""Tests for the cavity-QPU hardware model."""

import pytest

from repro.core.exceptions import DeviceError
from repro.hardware import (
    CavityQPU,
    Cavity,
    CoherenceParams,
    GateTimings,
    Mode,
    linear_cavity_array,
)


class TestCoherenceParams:
    def test_valid(self):
        params = CoherenceParams(t1=1e-3, t2=1.5e-3)
        assert params.t1 == 1e-3

    def test_t2_bound(self):
        with pytest.raises(DeviceError):
            CoherenceParams(t1=1e-3, t2=3e-3)

    def test_positive_lifetimes(self):
        with pytest.raises(DeviceError):
            CoherenceParams(t1=0.0, t2=1.0)

    def test_negative_thermal(self):
        with pytest.raises(DeviceError):
            CoherenceParams(t1=1.0, t2=1.0, n_thermal=-0.1)

    def test_scaled(self):
        params = CoherenceParams(t1=1e-3, t2=1e-3).scaled(2.0)
        assert params.t1 == 2e-3
        with pytest.raises(DeviceError):
            params.scaled(0.0)


class TestGateTimings:
    def test_known_gates(self):
        timings = GateTimings()
        assert timings.duration_of("snap") == timings.snap
        assert timings.duration_of("csum") == timings.csum
        assert timings.duration_of("move") == timings.beamsplitter

    def test_unknown_gate(self):
        with pytest.raises(DeviceError):
            GateTimings().duration_of("frobnicate")

    def test_displacement_much_faster_than_snap(self):
        timings = GateTimings()
        assert timings.displacement < timings.snap / 5


class TestDeviceConstruction:
    def test_mode_count_validation(self):
        cavities = [Cavity(0, 2, CoherenceParams(1e-4, 1e-4))]
        modes = [Mode(0, 0, 3, CoherenceParams(1e-3, 1e-3))]
        with pytest.raises(DeviceError):
            CavityQPU(cavities, modes)

    def test_unknown_cavity_reference(self):
        cavities = [Cavity(0, 1, CoherenceParams(1e-4, 1e-4))]
        modes = [Mode(5, 0, 3, CoherenceParams(1e-3, 1e-3))]
        with pytest.raises(DeviceError):
            CavityQPU(cavities, modes)

    def test_mode_dim_validation(self):
        with pytest.raises(DeviceError):
            Mode(0, 0, 1, CoherenceParams(1e-3, 1e-3))

    def test_empty_device(self):
        with pytest.raises(DeviceError):
            CavityQPU([], [])


class TestLinearArray:
    def test_shape(self):
        device = linear_cavity_array(3, 2, 4)
        assert device.n_cavities == 3
        assert device.n_modes == 6
        assert device.mode_dims() == (4,) * 6

    def test_connectivity_kinds(self):
        device = linear_cavity_array(3, 2, 3)
        assert device.edge_kind(0, 1) == "colocated"
        assert device.edge_kind(1, 2) == "adjacent"
        assert not device.are_connected(0, 4)  # cavity 0 to cavity 2

    def test_distance(self):
        device = linear_cavity_array(4, 1, 3)
        assert device.distance(0, 3) == 3
        assert device.distance(0, 0) == 0

    @pytest.mark.parametrize("modes", [(0, 99), (-1, 0)])
    def test_distance_unknown_mode(self, modes):
        device = linear_cavity_array(2, 2, 3)
        with pytest.raises(DeviceError, match="out of range"):
            device.distance(*modes)

    def test_two_mode_duration_penalty(self):
        device = linear_cavity_array(2, 2, 3)
        coloc = device.two_mode_duration(0, 1, 1e-6)
        adj = device.two_mode_duration(1, 2, 1e-6)
        assert adj == 2 * coloc

    def test_edge_kind_unconnected(self):
        device = linear_cavity_array(3, 1, 3)
        with pytest.raises(DeviceError):
            device.edge_kind(0, 2)

    def test_modes_in_cavity(self):
        device = linear_cavity_array(2, 3, 3)
        assert device.modes_in_cavity(1) == [3, 4, 5]
        with pytest.raises(DeviceError):
            device.modes_in_cavity(5)

    def test_coherence_spread_produces_variation(self):
        device = linear_cavity_array(2, 2, 3, coherence_spread=0.5, seed=0)
        t1s = {mode.coherence.t1 for mode in device.modes}
        assert len(t1s) > 1

    def test_zero_spread_uniform(self):
        device = linear_cavity_array(2, 2, 3, coherence_spread=0.0)
        t1s = {mode.coherence.t1 for mode in device.modes}
        assert len(t1s) == 1

    def test_spread_reproducible(self):
        d1 = linear_cavity_array(2, 2, 3, coherence_spread=0.5, seed=3)
        d2 = linear_cavity_array(2, 2, 3, coherence_spread=0.5, seed=3)
        assert [m.coherence.t1 for m in d1.modes] == [
            m.coherence.t1 for m in d2.modes
        ]

    def test_invalid_shape(self):
        with pytest.raises(DeviceError):
            linear_cavity_array(0, 2, 3)


class TestCapacity:
    def test_hilbert_dimension(self):
        device = linear_cavity_array(2, 2, 3)
        assert device.hilbert_dimension() == 81

    def test_qubit_equivalent(self):
        device = linear_cavity_array(1, 2, 4)
        assert abs(device.qubit_equivalent() - 4.0) < 1e-12
