import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bessim.plant
from bessim.allocator import (
    PsoParams,
    allocation_matrix_csv,
    balanced_allocation,
    fitness,
    grid_search_allocation,
    pso_allocate,
    repair,
)
from bessim.errors import DomainError, NoCapacityError
from bessim.plant import Plant, uniform_plant_config


def _assert_feasible(k, blocked):
    """An allocation is a plain (m,) float array on the simplex that gives
    blocked clusters nothing."""
    assert isinstance(k, np.ndarray)
    assert k.dtype == np.float64
    assert k.shape == blocked.shape
    assert np.all((k >= 0.0) & (k <= 1.0))
    assert k.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(k[blocked] == 0.0)


class TestBalancedAllocation:
    def test_uniform_split(self):
        k = balanced_allocation(np.zeros(100, dtype=bool))
        assert np.allclose(k, 0.01)

    def test_blocked_cluster_gets_zero(self):
        k = balanced_allocation(np.array([False, True, False, False]))
        assert k[1] == 0.0
        assert np.allclose(k[[0, 2, 3]], 1 / 3)

    def test_equal_split_bits(self):
        # a float array of 1/n_free over the free clusters, +0.0 elsewhere
        blocked = np.array([False, True, False, False, True, False, False])
        k = balanced_allocation(blocked)
        assert k.dtype == np.float64
        assert k.tobytes() == np.where(blocked, 0.0, 1.0 / 5).tobytes()

    def test_all_blocked_raises(self):
        with pytest.raises(NoCapacityError):
            balanced_allocation(np.ones(3, dtype=bool))

    @settings(max_examples=100)
    @given(st.lists(st.booleans(), min_size=1, max_size=40), st.data())
    def test_split_is_a_feasible_allocation(self, mask, data):
        blocked = np.array(mask)
        blocked[data.draw(st.integers(0, blocked.size - 1))] = False
        _assert_feasible(balanced_allocation(blocked), blocked)


class TestRepair:
    def test_clamp_and_renormalize(self):
        k = repair(np.array([0.5, 0.7, -0.2]), np.zeros(3, dtype=bool))
        assert k == pytest.approx([0.41667, 0.58333, 0.0], abs=1e-4)
        assert k.sum() == pytest.approx(1.0)

    def test_feasible_input_is_fixed_point(self):
        k0 = np.array([0.25, 0.25, 0.5])
        assert repair(k0, np.zeros(3, dtype=bool)) == pytest.approx(k0)

    def test_all_zero_falls_back_to_balanced(self):
        k = repair(np.zeros(4), np.array([False, False, True, False]))
        assert k == pytest.approx([1 / 3, 1 / 3, 0.0, 1 / 3])

    def test_max_share_cap_redistributes(self):
        k = repair(np.array([0.9, 0.05, 0.05]), np.zeros(3, dtype=bool),
                   max_share=np.array([0.5, 1.0, 1.0]))
        assert k[0] == pytest.approx(0.5)
        assert k.sum() == pytest.approx(1.0)
        assert np.all(k <= np.array([0.5, 1.0, 1.0]) + 1e-12)

    def test_insufficient_cap_raises(self):
        with pytest.raises(NoCapacityError):
            repair(np.array([0.5, 0.5]), np.zeros(2, dtype=bool),
                   max_share=np.array([0.3, 0.3]))


def _repair_row_reference(k_raw, blocked, max_share=None):
    """The one-row-at-a-time repair that the batched repair replaced, kept
    verbatim as the reference for its arithmetic."""
    blocked = np.asarray(blocked, dtype=bool)
    k = np.clip(np.asarray(k_raw, dtype=float), 0.0, 1.0)
    k[blocked] = 0.0
    total = k.sum()
    if total <= 0.0:
        k = balanced_allocation(blocked).copy()
    else:
        k = k / total
    if max_share is not None:
        cap = np.where(blocked, 0.0, np.asarray(max_share, dtype=float))
        if cap.sum() < 1.0 - 1e-9:
            raise NoCapacityError("caps too small")
        for _ in range(k.size):
            over = k > cap + 1e-15
            if not np.any(over):
                break
            excess = float(np.sum(k[over] - cap[over]))
            k[over] = cap[over]
            room = (~over) & (~blocked) & (k < cap)
            weights = np.where(room, np.maximum(k, 1e-12), 0.0)
            wsum = weights.sum()
            if wsum <= 0.0:
                room_cap = np.where(room, cap - k, 0.0)
                k = k + np.where(room, excess * room_cap / max(room_cap.sum(), 1e-30), 0.0)
            else:
                k = k + excess * weights / wsum
        k = np.minimum(k, cap)
        deficit = 1.0 - k.sum()
        if abs(deficit) > 1e-12:
            room = np.where(~blocked, cap - k, 0.0)
            if room.sum() > 0 and deficit > 0:
                k = k + deficit * room / room.sum()
    return k


@st.composite
def repair_batches(draw):
    """A raw (n, m) batch, a blocked mask with at least one free cluster and,
    unless None, caps whose sum over the free clusters is at least 1."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 8))
    free_at = draw(st.integers(0, m - 1))
    blocked = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    blocked[free_at] = False
    entry = st.one_of(st.just(0.0), st.floats(-0.5, 1.5))
    k_raw = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
    cap = None
    if draw(st.booleans()):
        raw_cap = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m,
                                         max_size=m)))
        slack = draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
        cap = raw_cap * slack / raw_cap[~blocked].sum()
    return k_raw, blocked, cap


class TestRepairProperties:
    @settings(max_examples=300)
    @given(repair_batches())
    def test_rows_are_feasible_and_match_row_repair(self, batch):
        k_raw, blocked, cap = batch
        k = repair(k_raw, blocked, cap)
        assert k.shape == k_raw.shape
        upper = np.ones(k.shape[1]) if cap is None else cap
        for row_raw, row in zip(k_raw, k):
            assert np.all(row >= 0.0)
            assert np.all(row <= upper + 1e-12)
            assert np.all(row[blocked] == 0.0)
            assert abs(row.sum() - 1.0) <= 1e-9
            np.testing.assert_allclose(row, repair(row_raw, blocked, cap),
                                       rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(
                row, _repair_row_reference(row_raw, blocked, cap),
                rtol=0.0, atol=1e-15)

    @settings(max_examples=100)
    @given(repair_batches(), st.floats(0.5, 0.999999))
    def test_insufficient_caps_raise(self, batch, shortfall):
        k_raw, blocked, _ = batch
        cap = np.where(blocked, 1.0, shortfall / np.sum(~blocked))
        with pytest.raises(NoCapacityError):
            repair(k_raw, blocked, cap)


class TestFitness:
    def test_balanced_charge_fitness_positive(self):
        plant = Plant(uniform_plant_config(2))
        f = fitness(np.array([0.5, 0.5]), 80_000.0, plant)
        assert f > 0

    def test_infeasible_allocation_scores_minus_inf(self):
        plant = Plant(uniform_plant_config(2))
        assert fitness(np.array([1.0, 0.0]), 120_000.0, plant) == -np.inf

    def test_does_not_mutate_plant_state(self):
        plant = Plant(uniform_plant_config(2))
        soc0 = plant.soc.copy()
        fitness(np.array([0.5, 0.5]), 80_000.0, plant)
        assert np.array_equal(plant.soc, soc0)


class TestPsoAllocate:
    PARAMS = PsoParams(particles=12, max_iterations=15, rng_seed=7)

    def test_single_cluster_shortcut(self):
        plant = Plant(uniform_plant_config(1))
        k, trace = pso_allocate(30_000.0, plant, self.PARAMS)
        assert k == pytest.approx([1.0])
        assert trace.size == 1

    def test_identical_clusters_prefer_even_split(self):
        plant = Plant(uniform_plant_config(2))
        k, _ = pso_allocate(60_000.0, plant, self.PARAMS)
        assert k == pytest.approx([0.5, 0.5], abs=1e-3)
        f_even = fitness(np.array([0.5, 0.5]), 60_000.0, plant)
        f_skew = fitness(np.array([0.8, 0.2]), 60_000.0, plant)
        assert f_even > f_skew

    def test_fitness_at_least_balanced(self):
        plant = Plant(uniform_plant_config(4))
        plant.soc = np.array([0.3, 0.5, 0.6, 0.8])
        plant.ipol = np.array([2.0, -1.0, 0.0, 0.5])
        k, trace = pso_allocate(-120_000.0, plant, self.PARAMS)
        blocked = plant.blocked_mask(-120_000.0)
        f_bal = fitness(balanced_allocation(blocked), -120_000.0, plant)
        assert trace[-1] >= f_bal - 1e-12
        assert k.sum() == pytest.approx(1.0, abs=1e-9)

    def test_trace_non_decreasing(self):
        plant = Plant(uniform_plant_config(3))
        plant.soc = np.array([0.4, 0.5, 0.7])
        _, trace = pso_allocate(90_000.0, plant, self.PARAMS)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_unequal_soc_discharge_leans_on_fuller_cluster(self):
        plant = Plant(uniform_plant_config(2))
        plant.soc = np.array([0.3, 0.8])
        k, _ = pso_allocate(-60_000.0, plant,
                            PsoParams(particles=20, max_iterations=40,
                                      rng_seed=3))
        assert k[1] >= k[0]

    def test_params_validation(self):
        with pytest.raises(DomainError):
            PsoParams(inertia=1.5)
        with pytest.raises(DomainError):
            PsoParams(particles=1)

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", -1), ("velocity_bound", 0.0),
        ("velocity_bound", -1.0), ("init_spread", -0.1), ("cognitive", -0.4),
        ("social", -0.5), ("rng_seed", -1), ("inertia", math.nan),
        ("cognitive", math.inf), ("velocity_bound", math.nan),
        ("init_spread", math.inf),
    ])
    def test_bad_params_name_the_field(self, field, value):
        with pytest.raises(DomainError) as e:
            PsoParams(**{field: value})
        assert e.value.field == field
        assert field in str(e.value)

    @pytest.mark.parametrize("p_sys_w", [90_000.0, -90_000.0])
    def test_power_is_split_once_per_call(self, p_sys_w):
        # the swarm is scored at the clusters' net power, taken once, not
        # once per evaluation; so are the grid and a single fitness
        plant = Plant(uniform_plant_config(3))
        plant.soc = np.array([0.4, 0.5, 0.7])
        with mock.patch.object(bessim.plant, "transformer_loss",
                               wraps=bessim.plant.transformer_loss) as tf:
            pso_allocate(p_sys_w, plant, self.PARAMS)
            assert tf.call_count == 1
            grid_search_allocation(p_sys_w, plant, resolution=0.1)
            assert tf.call_count == 2
            fitness(np.full(3, 1 / 3), p_sys_w, plant)
            assert tf.call_count == 3

    def test_returns_a_feasible_array(self):
        plant = Plant(uniform_plant_config(4))
        plant.soc = np.array([0.02, 0.5, 0.6, 0.8])
        blocked = plant.blocked_mask(-90_000.0)
        assert blocked.any()
        k, _ = pso_allocate(-90_000.0, plant, self.PARAMS)
        _assert_feasible(k, blocked)

    def test_zero_iterations_returns_initial_best(self):
        plant = Plant(uniform_plant_config(3))
        plant.soc = np.array([0.4, 0.5, 0.7])
        _, trace = pso_allocate(90_000.0, plant,
                                PsoParams(particles=4, max_iterations=0))
        assert trace.size == 1


PSO_REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "pso_regression.json").read_text())


@pytest.mark.parametrize("case", PSO_REGRESSION,
                         ids=lambda c: f"m{c['m']}_p{c['p_sys_w']:+.0f}")
def test_pso_allocate_reproduces_per_row_repair_results(case):
    """Best fitness and coefficients recorded from pso_allocate when it
    repaired one particle at a time; the batched repair must reproduce them."""
    m = case["m"]
    plant = Plant(uniform_plant_config(m))
    plant.soc = np.random.default_rng(case["soc_seed"]).uniform(0.3, 0.7, m)
    best, trace = pso_allocate(case["p_sys_w"], plant,
                               PsoParams(rng_seed=case["pso_seed"]))
    assert trace[-1] == pytest.approx(case["fitness_wh"], rel=1e-9)
    np.testing.assert_allclose(best, case["k"], rtol=0.0, atol=1e-9)


class TestGridSearch:
    def test_matches_pso_for_two_clusters(self):
        plant = Plant(uniform_plant_config(2))
        plant.soc = np.array([0.4, 0.6])
        k_grid, f_grid = grid_search_allocation(70_000.0, plant,
                                                resolution=1e-2)
        k_pso, trace = pso_allocate(70_000.0, plant,
                                    PsoParams(particles=20,
                                              max_iterations=30, rng_seed=0))
        assert trace[-1] >= f_grid - abs(f_grid) * 1e-2 - 1e-9
        assert k_grid.sum() == pytest.approx(1.0)

    def test_returns_a_feasible_array(self):
        plant = Plant(uniform_plant_config(3))
        plant.soc = np.array([0.02, 0.5, 0.7])
        blocked = plant.blocked_mask(-60_000.0)
        assert blocked.any()
        k, _ = grid_search_allocation(-60_000.0, plant, resolution=0.05)
        _assert_feasible(k, blocked)

    def test_large_m_rejected(self):
        plant = Plant(uniform_plant_config(4))
        with pytest.raises(DomainError):
            grid_search_allocation(1e5, plant)


class TestCsvHelpers:
    def test_matrix_csv_shape(self):
        text = allocation_matrix_csv(np.array([0.0, 60.0]),
                                     np.array([[1.0, 0.0], [0.5, 0.5]]))
        lines = text.strip().split("\n")
        assert lines[0] == "time_s,k_0,k_1"
        assert len(lines) == 3
