"""Tests for NDAR, the one-hot baseline, and the QRAC relaxation."""

import networkx as nx
import numpy as np
import pytest

from repro.core import DensityMatrix, QuditCircuit
from repro.core.exceptions import DimensionError, SimulationError
from repro.qaoa import (
    ColoringProblem,
    OneHotEncoding,
    QracEncoding,
    compare_validity,
    random_coloring_instance,
    run_ndar,
    sample_noisy_qaoa,
    simplex_vertices,
    solve_coloring_qrac,
    validity_probability,
)
from repro.qaoa.ndar import _attractor_permutation, _decode


@pytest.fixture()
def small_problem():
    return random_coloring_instance(5, 3, degree=2, seed=7)


class TestNdarInternals:
    def test_attractor_permutation_sends_zero_to_best(self):
        best = (2, 0, 1)
        perms = _attractor_permutation(best, 3)
        decoded = _decode((0, 0, 0), perms)
        assert decoded == best

    def test_permutations_are_valid(self):
        perms = _attractor_permutation((1, 2), 3)
        for perm in perms:
            assert sorted(perm) == [0, 1, 2]

    def test_decode_identity(self):
        identity = [list(range(3))] * 2
        assert _decode((1, 2), identity) == (1, 2)


class TestSampling:
    def test_sample_counts_total(self, small_problem):
        counts = sample_noisy_qaoa(
            small_problem, [0.4], [0.3], loss_per_layer=0.1, shots=20, seed=0
        )
        assert sum(counts.values()) == 20

    def test_heavy_loss_biases_to_zero(self, small_problem):
        """Strong photon loss drives samples toward |0...0> — the attractor."""
        counts = sample_noisy_qaoa(
            small_problem, [0.4], [0.3], loss_per_layer=0.9, shots=40, seed=1
        )
        zero_fraction = counts.get((0,) * 5, 0) / 40
        clean = sample_noisy_qaoa(
            small_problem, [0.4], [0.3], loss_per_layer=0.0, shots=40, seed=1
        )
        clean_zero = clean.get((0,) * 5, 0) / 40
        assert zero_fraction > clean_zero


class TestNdarLoop:
    def test_result_structure(self, small_problem):
        result = run_ndar(small_problem, n_rounds=2, shots=15, seed=0)
        assert len(result.rounds) == 2
        assert 0 <= result.best_cost <= small_problem.n_edges
        assert len(result.best_assignment) == 5

    def test_best_cost_monotone_across_rounds(self, small_problem):
        result = run_ndar(small_problem, n_rounds=3, shots=15, seed=1)
        costs = [r.best_cost_seen for r in result.rounds]
        assert costs == sorted(costs, reverse=True)

    def test_adaptive_attractor_tracks_incumbent(self, small_problem):
        result = run_ndar(small_problem, n_rounds=3, shots=15, seed=2)
        # after round 1 the attractor must equal the incumbent's cost
        assert result.rounds[-1].attractor_cost == result.rounds[-2].best_cost_seen

    def test_vanilla_mode_keeps_identity_gauge(self, small_problem):
        result = run_ndar(
            small_problem, n_rounds=2, shots=15, adaptive=False, seed=3
        )
        # vanilla attractor is always the all-zero coloring
        zero_cost = small_problem.cost((0,) * 5)
        assert all(r.attractor_cost == zero_cost for r in result.rounds)

    def test_validation(self, small_problem):
        with pytest.raises(SimulationError):
            run_ndar(small_problem, n_rounds=0)


class TestOneHot:
    @pytest.fixture()
    def encoding(self):
        return OneHotEncoding(ColoringProblem(nx.path_graph(3), 3))

    def test_qubit_budget_guard(self):
        big = random_coloring_instance(9, 3, seed=0)
        with pytest.raises(DimensionError):
            OneHotEncoding(big)

    def test_validity_check(self, encoding):
        assert encoding.is_valid((1, 0, 0, 0, 1, 0, 0, 0, 1))
        assert not encoding.is_valid((1, 1, 0, 0, 1, 0, 0, 0, 1))
        assert not encoding.is_valid((0, 0, 0, 0, 1, 0, 0, 0, 1))

    def test_decode(self, encoding):
        assert encoding.decode((1, 0, 0, 0, 1, 0, 0, 0, 1)) == (0, 1, 2)
        assert encoding.decode((1, 1, 0, 0, 1, 0, 0, 0, 1)) is None

    def test_noiseless_validity_is_one(self, encoding):
        assert validity_probability(encoding, 0.0, shots=25, seed=0) == 1.0

    def test_noise_decays_validity(self, encoding):
        noisy = validity_probability(encoding, 0.08, shots=40, seed=1)
        assert noisy < 1.0

    def test_depolarized_density_matches_plain_kraus(self):
        """The closed-form channels agree with the bare Kraus families."""
        encoding = OneHotEncoding(ColoringProblem(nx.path_graph(2), 2))
        noisy = encoding.with_depolarizing(
            encoding.qaoa_circuit([0.6], [0.4]), 0.05
        )
        depolarizing = [i for i in noisy if i.depolarizing_p is not None]
        assert depolarizing and all(i.depolarizing_p == 0.05 for i in depolarizing)
        plain = QuditCircuit(noisy.dims)
        for inst in noisy:
            if inst.kind == "channel":
                plain.channel(inst.kraus, inst.qudits, name=inst.name)
            else:
                plain.append(inst)
        closed = DensityMatrix.zero(noisy.dims).evolve(noisy)
        reference = DensityMatrix.zero(noisy.dims).evolve(plain)
        np.testing.assert_allclose(closed.matrix, reference.matrix, rtol=0, atol=1e-12)

    def test_compare_validity_sweep(self):
        problem = ColoringProblem(nx.path_graph(3), 3)
        sweep = compare_validity(problem, [0.0, 0.1], shots=30, seed=0)
        assert sweep[0].onehot_validity == 1.0
        assert sweep[1].onehot_validity < sweep[0].onehot_validity
        assert all(c.qudit_validity == 1.0 for c in sweep)
        assert sweep[1].advantage > 1.0


class TestQrac:
    def test_simplex_vertices_geometry(self):
        for d in (2, 3, 4):
            anchors = simplex_vertices(d)
            assert anchors.shape == (d, d - 1)
            for i in range(d):
                assert abs(np.linalg.norm(anchors[i]) - 1.0) < 1e-9
                for j in range(i + 1, d):
                    inner = anchors[i] @ anchors[j]
                    assert abs(inner + 1.0 / (d - 1)) < 1e-9

    def test_packing_density(self):
        problem = random_coloring_instance(20, 3, seed=0)
        encoding = QracEncoding(problem, qudit_dim=4)
        assert encoding.nodes_per_qudit == (16 - 1) // 2
        assert encoding.n_qudits == 3

    def test_slot_assignment_disjoint(self):
        problem = random_coloring_instance(10, 3, seed=1)
        encoding = QracEncoding(problem, qudit_dim=4)
        seen = set()
        for node in range(10):
            slot = encoding.slot_of(node)
            assert slot not in seen
            seen.add(slot)

    def test_observable_blocks_orthogonal(self):
        problem = random_coloring_instance(6, 3, seed=2)
        encoding = QracEncoding(problem, qudit_dim=4)
        a = encoding.observables_of(0)
        b = encoding.observables_of(1)
        for oa in a:
            for ob in b:
                assert abs(np.trace(oa @ ob)) < 1e-10

    def test_rounding_recovers_anchor_colorings(self):
        problem = ColoringProblem(nx.path_graph(4), 3)
        encoding = QracEncoding(problem, qudit_dim=8)
        anchors = simplex_vertices(3)
        target = (0, 1, 2, 0)
        vectors = np.array([anchors[c] for c in target])
        assert encoding.round_to_coloring(vectors) == target

    def test_solver_beats_random_on_path(self):
        """A path graph is trivially 3-colorable; QRAC should get near 0."""
        problem = ColoringProblem(nx.path_graph(8), 3)
        result = solve_coloring_qrac(
            problem, qudit_dim=4, n_restarts=2, maxiter=150, seed=0, best_cost=0
        )
        assert result.clashes <= 2  # random coloring averages ~2.3

    def test_too_small_carrier_rejected(self):
        problem = random_coloring_instance(6, 6, degree=3, seed=3)
        with pytest.raises(DimensionError):
            QracEncoding(problem, qudit_dim=2)
