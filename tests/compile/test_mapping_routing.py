"""Tests for noise-aware mapping, routing, resources, and the transpiler."""

import numpy as np
import pytest

from repro.compile import (
    estimate_resources,
    noise_aware_map,
    route_circuit,
    score_layout,
    swap_network_layers,
    transpile,
    trivial_map,
)
from repro.core import QuditCircuit, Statevector
from repro.core.exceptions import CompilationError
from repro.hardware import linear_cavity_array


def chain_circuit(n=4, d=3):
    qc = QuditCircuit([d] * n)
    for i in range(n):
        qc.fourier(i)
    for i in range(n - 1):
        qc.csum(i, i + 1)
    return qc


@pytest.fixture()
def spread_device():
    return linear_cavity_array(3, 2, 3, coherence_spread=0.5, seed=11)


class TestScoreLayout:
    def test_rejects_duplicate_modes(self, spread_device):
        qc = chain_circuit(2)
        with pytest.raises(CompilationError):
            score_layout(qc, spread_device, [0, 0])

    def test_rejects_wrong_length(self, spread_device):
        with pytest.raises(CompilationError):
            score_layout(chain_circuit(2), spread_device, [0])

    def test_rejects_dimension_infeasible(self):
        device = linear_cavity_array(1, 2, 2)
        qc = chain_circuit(2, d=3)
        with pytest.raises(CompilationError):
            score_layout(qc, device, [0, 1])

    def test_distance_penalty(self, spread_device):
        """A layout with distant interacting wires scores worse."""
        qc = QuditCircuit([3, 3])
        qc.csum(0, 1)
        near = score_layout(qc, spread_device, [0, 1])
        far = score_layout(qc, spread_device, [0, 5])
        assert near > far

    def test_log_fidelity_nonpositive(self, spread_device):
        score = score_layout(chain_circuit(3), spread_device, [0, 1, 2])
        assert score <= 0.0


class TestMapping:
    def test_noise_aware_beats_or_ties_trivial(self, spread_device):
        qc = chain_circuit(4)
        smart = noise_aware_map(qc, spread_device, seed=0)
        naive = trivial_map(qc, spread_device)
        assert smart.log_fidelity >= naive.log_fidelity - 1e-12

    def test_layout_is_permutation(self, spread_device):
        result = noise_aware_map(chain_circuit(5), spread_device, seed=1)
        assert len(set(result.layout)) == 5

    def test_too_many_wires(self):
        device = linear_cavity_array(1, 2, 3)
        with pytest.raises(CompilationError):
            noise_aware_map(chain_circuit(4), device)

    def test_fidelity_property(self, spread_device):
        result = noise_aware_map(chain_circuit(3), spread_device, seed=2)
        assert 0.0 < result.fidelity <= 1.0

    def test_prefers_long_lived_modes(self):
        """With one clearly better mode, a single-wire circuit lands on it."""
        device = linear_cavity_array(2, 1, 3, coherence_spread=1.2, seed=3)
        t1s = [m.coherence.t1 for m in device.modes]
        best_mode = int(np.argmax(t1s))
        qc = QuditCircuit([3])
        for _ in range(5):
            qc.fourier(0)
        result = noise_aware_map(qc, device, seed=4)
        assert result.layout[0] == best_mode


class TestRouting:
    def test_connected_gates_pass_through(self, spread_device):
        qc = QuditCircuit([3, 3])
        qc.csum(0, 1)
        routed = route_circuit(qc, spread_device, [0, 1])
        assert routed.n_swaps == 0
        assert len(routed.circuit) == 1

    def test_distant_gate_gets_swaps(self, spread_device):
        qc = QuditCircuit([3, 3])
        qc.csum(0, 1)
        routed = route_circuit(qc, spread_device, [0, 5])
        assert routed.n_swaps + routed.n_moves >= 1
        assert routed.final_layout != (0, 5)
        # every two-qudit gate in the routed circuit must be connected
        mode_of = list(routed.initial_layout)
        for inst in routed.circuit:
            if inst.name == "move":
                mode_of[inst.qudits[0]] = inst.params["to_mode"]
            elif inst.kind == "unitary" and inst.num_qudits == 2:
                a, b = inst.qudits
                assert spread_device.are_connected(mode_of[a], mode_of[b])
                if inst.name == "swap":
                    mode_of[a], mode_of[b] = mode_of[b], mode_of[a]

    def test_routing_preserves_semantics(self):
        """Statevector after routed circuit matches (up to wire relabelling)."""
        device = linear_cavity_array(4, 1, 3)
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        routed = route_circuit(qc, device, [0, 3])
        ideal = Statevector.zero([3, 3]).evolve(qc)
        actual = Statevector.zero([3, 3]).evolve(routed.circuit)
        # Routed circuit acts on the same logical wires; SWAPs are real
        # gates so the final state is identical.
        assert actual.fidelity(ideal) > 1 - 1e-10

    def test_layout_length_mismatch(self, spread_device):
        with pytest.raises(CompilationError):
            route_circuit(chain_circuit(3), spread_device, [0, 1])

    @pytest.mark.parametrize("layout", [[0, 0], [0, 7], [-1, 2]])
    def test_layout_needs_distinct_device_modes(self, layout):
        device = linear_cavity_array(3, 1, 3)
        qc = QuditCircuit([3, 3])
        qc.csum(0, 1)
        with pytest.raises(CompilationError, match="distinct modes"):
            route_circuit(qc, device, layout)


class TestSwapNetwork:
    def test_layer_structure(self):
        layers = swap_network_layers(4)
        assert len(layers) == 4
        for layer in layers:
            wires = [w for pair in layer for w in pair]
            assert len(wires) == len(set(wires))  # disjoint pairs

    def test_full_network_reverses_order(self):
        n = 5
        order = list(range(n))
        for layer in swap_network_layers(n):
            for i, j in layer:
                order[i], order[j] = order[j], order[i]
        assert order == list(reversed(range(n)))

    def test_all_pairs_meet(self):
        n = 6
        order = list(range(n))
        met = set()
        for layer in swap_network_layers(n):
            for i, j in layer:
                met.add(tuple(sorted((order[i], order[j]))))
                order[i], order[j] = order[j], order[i]
        assert len(met) == n * (n - 1) // 2

    def test_too_small(self):
        with pytest.raises(CompilationError):
            swap_network_layers(1)


class TestResources:
    def test_estimate_fields(self, spread_device):
        qc = chain_circuit(3)
        est = estimate_resources(qc, spread_device, [0, 1, 2])
        assert est.n_entangling >= 2
        assert est.total_duration > 0
        assert 0 < est.fidelity < 1
        assert est.critical_wire_duration <= est.total_duration
        assert "entangling" in est.summary()

    def test_deeper_circuit_costs_more(self, spread_device):
        shallow = chain_circuit(3)
        deep = shallow.repeated(3)
        est_s = estimate_resources(shallow, spread_device, [0, 1, 2])
        est_d = estimate_resources(deep, spread_device, [0, 1, 2])
        assert est_d.total_duration > est_s.total_duration
        assert est_d.fidelity < est_s.fidelity

    def test_layout_validation(self, spread_device):
        with pytest.raises(CompilationError):
            estimate_resources(chain_circuit(2), spread_device, [0, 99])

    def test_coherence_fraction_scales(self, spread_device):
        qc = chain_circuit(3)
        est1 = estimate_resources(qc, spread_device, [0, 1, 2])
        est2 = estimate_resources(qc.repeated(4), spread_device, [0, 1, 2])
        assert est2.coherence_fraction > est1.coherence_fraction


class TestTranspile:
    def test_end_to_end(self, spread_device):
        result = transpile(chain_circuit(4), spread_device, seed=0)
        assert len(result.mapping.layout) == 4
        assert result.resources.fidelity > 0
        # routed circuit must execute: all two-qudit gates connected
        mode_of = list(result.routing.initial_layout)
        for inst in result.circuit:
            if inst.name == "move":
                mode_of[inst.qudits[0]] = inst.params["to_mode"]
            elif inst.kind == "unitary" and inst.num_qudits == 2:
                a, b = inst.qudits
                assert spread_device.are_connected(mode_of[a], mode_of[b])
                if inst.name == "swap":
                    mode_of[a], mode_of[b] = mode_of[b], mode_of[a]

    def test_trivial_mode(self, spread_device):
        result = transpile(chain_circuit(3), spread_device, noise_aware=False)
        assert result.mapping.method == "trivial"
