import json
import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpnn.optimizers import (
    METHOD_NAMES,
    OPTIMIZERS,
    make_optimizer,
    reflect,
)

BOUNDS = (0.0, 10000.0)
README = Path(__file__).resolve().parents[1] / "README.md"


def sphere(x):
    return float(np.sum((np.asarray(x) - 5.0) ** 2))


class CountingObjective:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def fresh_population(rng, size=20, dim=2, low=0.0, high=10.0):
    return rng.uniform(low, high, size=(size, dim))


class TestReflect:
    def test_negative_value_mirrors_at_lower_bound(self):
        assert reflect(np.array([-3.0]), *BOUNDS)[0] == pytest.approx(3.0)

    def test_identity_inside_bounds(self):
        assert reflect(np.array([5.0]), 0.0, 10.0)[0] == 5.0

    def test_mirror_at_upper_bound(self):
        assert reflect(np.array([10001.0]), *BOUNDS)[0] == pytest.approx(9999.0)

    @given(st.floats(-1e9, 1e9, allow_nan=False))
    @settings(max_examples=200)
    def test_always_in_bounds_and_idempotent(self, x):
        once = reflect(np.array([x]), 0.0, 10.0)
        assert 0.0 <= once[0] <= 10.0
        np.testing.assert_allclose(reflect(once, 0.0, 10.0), once, atol=1e-9)

    def test_large_excursion_folds_repeatedly(self):
        # 47 in [0, 10]: 47 -> fold -> 7 after two full periods plus a mirror
        assert reflect(np.array([47.0]), 0.0, 10.0)[0] == pytest.approx(7.0)


class TestDefaults:
    def test_pso_defaults(self):
        opt = make_optimizer("pso", 3, BOUNDS, 42)
        assert (opt.omega, opt.c1, opt.c2, opt.adjust_omega) == (1.0, 0.5, 1.0, True)

    def test_bat_defaults(self):
        opt = make_optimizer("bat", 3, BOUNDS, 42)
        assert opt.loudness == 10.0
        assert (opt.alpha, opt.gamma, opt.min_f, opt.max_f) == (0.9, 0.9, 0.0, 1.0)

    def test_bfo_defaults(self):
        opt = make_optimizer("bfo", 3, BOUNDS, 42)
        assert (opt.c_i, opt.p_ed, opt.n_c, opt.n_s) == (0.2, 0.25, 4, 4)
        assert (opt.d_a, opt.w_a, opt.h_r, opt.w_r) == (0.1, 0.2, 0.1, 10.0)

    def test_fpa_defaults(self):
        assert make_optimizer("fpa", 3, BOUNDS, 42).switch_p == 0.8

    def test_sa_defaults(self):
        opt = make_optimizer("sa", 3, BOUNDS, 42)
        assert opt.temperature == 100.0
        assert (opt.alpha, opt.s_t, opt.d) == (0.9, 1e-8, 0.01)

    def test_unknown_method_and_bad_params(self):
        with pytest.raises(ValueError):
            make_optimizer("cmaes", 3, BOUNDS, 42)
        with pytest.raises(ValueError):
            make_optimizer("pso", 3, BOUNDS, 42, params={"bogus": 1})

    def test_param_overrides(self):
        opt = make_optimizer("sa", 3, BOUNDS, 42, params={"temperature": 5.0})
        assert opt.temperature == 5.0

    def test_integer_valued_overrides_take_the_default_type(self):
        bfo = make_optimizer("bfo", 3, BOUNDS, 42, params={"n_c": 4.0})
        bat = make_optimizer("bat", 3, BOUNDS, 42, params={"loudness": 10})
        assert type(bfo.n_c) is int and bfo.n_c == 4
        assert type(bat.loudness) is float and bat.loudness == 10.0

    def test_readme_example_config_states_the_defaults(self):
        text = README.read_text(encoding="utf-8")
        block = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S)
        config = json.loads(block.group(1))
        for method, cls in OPTIMIZERS.items():
            assert config[method] == cls.defaults
            make_optimizer(method, 3, BOUNDS, 42, params=config[method])


@pytest.mark.parametrize("method", METHOD_NAMES)
class TestEveryMethod:
    def test_constant_objective_keeps_best_and_bounds(self, method):
        rng = np.random.default_rng(1)
        positions = fresh_population(rng)
        opt = make_optimizer(method, positions.shape[1], BOUNDS, 7)
        opt.run(positions, lambda x: 0.5, cap=20 * 30, eval_cost=1, target=0.0)
        assert opt.best_fitness == 0.5
        assert np.all(opt.positions >= BOUNDS[0])
        assert np.all(opt.positions <= BOUNDS[1])

    def test_budget_accounting_is_exact(self, method):
        rng = np.random.default_rng(2)
        positions = fresh_population(rng)
        opt = make_optimizer(method, positions.shape[1], BOUNDS, 11)
        counting = CountingObjective(sphere)
        opt.run(positions, counting, cap=20 * 50 * 17, eval_cost=17,
                target=-1.0)
        assert counting.calls * 17 == opt.evaluations
        assert opt.evaluations <= opt.cap + 20 * 17

    def test_elitism_is_monotone(self, method):
        rng = np.random.default_rng(3)
        positions = fresh_population(rng)
        opt = make_optimizer(method, positions.shape[1], BOUNDS, 13)
        best_seen, values = [], []

        def recording(x):
            best_seen.append(opt.best_fitness)
            values.append(sphere(x))
            return values[-1]

        opt.run(positions, recording, cap=20 * 41, eval_cost=1, target=-1.0)
        best_seen.append(opt.best_fitness)
        assert np.all(np.diff(best_seen) <= 0)
        assert opt.best_fitness == min(values)

    def test_bound_safety_under_outward_pressure(self, method):
        # objective rewards running past the lower bound
        rng = np.random.default_rng(4)
        positions = fresh_population(rng, low=0.0, high=100.0)
        opt = make_optimizer(method, positions.shape[1], (0.0, 100.0), 17)
        opt.run(positions, lambda x: float(np.sum(x)), cap=2000, eval_cost=1,
                target=-1.0)
        assert np.all(opt.positions >= 0.0)
        assert np.all(opt.positions <= 100.0)

    def test_determinism(self, method):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            positions = fresh_population(rng)
            opt = make_optimizer(method, positions.shape[1], BOUNDS, 19)
            opt.run(positions, sphere, cap=1500, eval_cost=1, target=0.0)
            results.append((opt.positions.copy(), opt.fitness.copy(),
                            opt.best_fitness))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        assert results[0][2] == results[1][2]

    def test_sphere_improves_90_percent(self, method):
        # search domain brackets the optimum so relative step sizes are sane
        rng = np.random.default_rng(6)
        positions = fresh_population(rng)
        opt = make_optimizer(method, positions.shape[1], (0.0, 10.0), 23)
        initial_best = min(sphere(x) for x in positions)
        opt.run(positions, sphere, cap=20 * 500, eval_cost=1, target=0.0)
        assert opt.best_fitness <= 0.1 * initial_best

    @pytest.mark.parametrize("calls", [20 * 3 + 7, 20 * 11 + 13, 20 * 40 + 1])
    def test_halt_mid_generation_keeps_fitness_current(self, method, calls):
        # the halt check precedes each member's draws and position writes, so
        # every cached fitness still belongs to its member's position
        rng = np.random.default_rng(14)
        positions = fresh_population(rng)
        opt = make_optimizer(method, positions.shape[1], (0.0, 10.0), 43)
        opt.run(positions, sphere, cap=calls, eval_cost=1, target=-1.0)
        assert opt.fitness.tolist() == [sphere(x) for x in opt.positions]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_objective_raises(self, method, value):
        positions = fresh_population(np.random.default_rng(15), size=5)
        opt = make_optimizer(method, positions.shape[1], BOUNDS, 47)
        with pytest.raises(ValueError, match=f"returned {value}"):
            opt.run(positions, lambda x: value, cap=100, target=0.0)

    def test_wrong_width_is_rejected_before_any_call(self, method):
        counting = CountingObjective(sphere)
        opt = make_optimizer(method, 3, BOUNDS, 49)
        positions = fresh_population(np.random.default_rng(17), dim=5)
        with pytest.raises(ValueError, match=r"\(n, 3\).*\(20, 5\)"):
            opt.run(positions, counting, 100, target=-1.0)
        assert counting.calls == 0

    @pytest.mark.parametrize("cap, eval_cost", [
        (100, 2.5), (100, True), (np.nan, 1), (-1, 1)],
        ids=["cost-fraction", "cost-bool", "cap-nan", "cap-negative"])
    def test_bad_cap_or_cost_is_rejected_before_any_call(self, method, cap,
                                                         eval_cost):
        counting = CountingObjective(lambda x: 0.5)
        opt = make_optimizer(method, 2, BOUNDS, 51)
        positions = fresh_population(np.random.default_rng(18))
        with pytest.raises(ValueError, match="eval_cost >= 1 and a cap >= 0"):
            opt.run(positions, counting, cap, eval_cost, target=0.0)
        assert counting.calls == 0

    def test_infinite_cap_stops_at_target(self, method):
        counting = CountingObjective(sphere)
        opt = make_optimizer(method, 2, BOUNDS, 53)
        positions = fresh_population(np.random.default_rng(19))
        opt.run(positions, counting, np.inf, 7, target=1e9)
        assert counting.calls == 1
        assert opt.evaluations == 7

    def test_prefilled_fitness_is_scored_again(self, method):
        # fitness set on the optimizer before run is discarded: the initial
        # pass scores every member once, in order, and each enters the archive
        positions = fresh_population(np.random.default_rng(16), size=5)
        members = positions.copy()
        opt = make_optimizer(method, positions.shape[1], (0.0, 100.0), 1)
        opt.fitness = np.ones(5)
        seen = []
        opt.run(positions, lambda x: seen.append(np.array(x)) or sphere(x),
                50, target=-1.0)
        np.testing.assert_array_equal(seen[:5], members)
        assert len(seen) == 50
        assert opt.best_fitness == min(sphere(x) for x in seen)


class TestStepContracts:
    def test_pso_converges_on_sphere(self):
        # desk-calibrated: 20 particles, 200 generations reach < 1% of the
        # initial best on the 2-D sphere
        rng = np.random.default_rng(8)
        positions = fresh_population(rng)
        opt = make_optimizer("pso", positions.shape[1], (0.0, 10.0), 29)
        initial_best = min(sphere(x) for x in positions)
        counting = CountingObjective(sphere)
        opt.run(positions, counting, cap=20 * 201, eval_cost=1,
                target=-np.inf)
        assert counting.calls == 20 * 201
        assert opt.best_fitness < 1e-2 * initial_best

    def test_single_batch_cap_runs_one_generation(self):
        # the cap covers the initial pass plus exactly one generation batch
        rng = np.random.default_rng(9)
        positions = fresh_population(rng)
        opt = make_optimizer("pso", positions.shape[1], BOUNDS, 31)
        counting = CountingObjective(sphere)
        opt.run(positions, counting, cap=2 * 20 * 3, eval_cost=3, target=0.0)
        assert counting.calls == 20 + 20  # the initial pass, one generation
        assert opt.evaluations == opt.cap

    def test_run_with_zero_cap_returns_unchanged(self):
        rng = np.random.default_rng(10)
        positions = fresh_population(rng)
        before = positions.copy()
        opt = make_optimizer("fpa", positions.shape[1], BOUNDS, 37)
        opt.run(positions, sphere, cap=0, eval_cost=1, target=0.0)
        assert opt.evaluations == 0
        np.testing.assert_array_equal(opt.positions, before)

    def test_run_stops_on_known_zero(self):
        rng = np.random.default_rng(12)
        positions = fresh_population(rng)
        zero_at = positions[3].copy()
        opt = make_optimizer("bat", positions.shape[1], BOUNDS, 41)
        counting = CountingObjective(
            lambda x: 0.0 if np.array_equal(x, zero_at) else 1.0)
        opt.run(positions, counting, cap=10 ** 6, eval_cost=1, target=0.0)
        assert counting.calls == 4  # members 0-3 of the initial pass
        assert opt.best_fitness == 0.0

    def test_budget_rejects_bad_cost(self):
        counting = CountingObjective(sphere)
        opt = make_optimizer("pso", 2, BOUNDS, 0)
        with pytest.raises(ValueError, match="eval_cost >= 1"):
            opt.run(fresh_population(np.random.default_rng(11)), counting, 10,
                    eval_cost=0)
        assert counting.calls == 0

    def test_empty_population_is_rejected(self):
        # a run over no members never halts, so bound the test by an alarm
        def hung(signum, frame):
            raise TimeoutError("run did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="n >= 1"):
                make_optimizer("pso", 2, (0.0, 10.0), 0).run(
                    np.empty((0, 2)), sphere, 100)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestLifecycle:
    def test_sa_cools_only_after_complete_sweeps(self):
        # the initial pass, three full sweeps and 7 members of a fourth
        positions = fresh_population(np.random.default_rng(20))
        opt = make_optimizer("sa", positions.shape[1], BOUNDS, 53)
        opt.run(positions, sphere, 20 + 3 * 20 + 7, target=-1.0)
        expected = opt.initial_temperature
        for _ in range(3):
            expected *= opt.alpha
        assert opt.temperature == expected

    def test_bfo_sweep_halted_part_way_still_advances_chemotaxis(self):
        # the initial pass, then member 0's tumble spends the budget
        positions = fresh_population(np.random.default_rng(21), size=5)
        opt = make_optimizer("bfo", positions.shape[1], BOUNDS, 59)
        opt.run(positions, sphere, 5 + 1, target=-1.0)
        assert opt.evaluations == 6
        assert opt._chem == 1

    def test_bat_pulse_rates_drawn_once_per_population_size(self):
        rng = np.random.default_rng(22)
        opt = make_optimizer("bat", 2, BOUNDS, 61)
        opt.run(fresh_population(rng), sphere, 50, target=-1.0)
        first = opt._pulse0
        opt.run(fresh_population(rng), sphere, 50, target=-1.0)
        assert opt._pulse0 is first
        opt.run(fresh_population(rng, size=10), sphere, 50, target=-1.0)
        assert opt._pulse0 is not first
        assert len(opt._pulse0) == 10
