import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpnn.optimizers import (
    METHOD_NAMES,
    FeBudget,
    Population,
    make_optimizer,
    reflect,
)

BOUNDS = (0.0, 10000.0)


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
    return Population(rng.uniform(low, high, size=(size, dim)))


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
        assert opt.initial_loudness == 10.0
        assert (opt.alpha, opt.gamma, opt.min_f, opt.max_f) == (0.9, 0.9, 0.0, 1.0)

    def test_bfo_defaults(self):
        opt = make_optimizer("bfo", 3, BOUNDS, 42)
        assert (opt.ed_s, opt.c_i, opt.p_ed, opt.n_c, opt.n_s) == (2, 0.2, 0.25, 4, 4)
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


@pytest.mark.parametrize("method", METHOD_NAMES)
class TestEveryMethod:
    def test_constant_objective_keeps_best_and_bounds(self, method):
        rng = np.random.default_rng(1)
        pop = fresh_population(rng)
        opt = make_optimizer(method, pop.dim, BOUNDS, 7)
        budget = FeBudget(cap=20 * 30, eval_cost=1)
        opt.run(pop, lambda x: 0.5, budget, target=0.0)
        assert opt.best_fitness == 0.5
        assert np.all(pop.positions >= BOUNDS[0])
        assert np.all(pop.positions <= BOUNDS[1])

    def test_budget_accounting_is_exact(self, method):
        rng = np.random.default_rng(2)
        pop = fresh_population(rng)
        opt = make_optimizer(method, pop.dim, BOUNDS, 11)
        counting = CountingObjective(sphere)
        budget = FeBudget(cap=20 * 50 * 17, eval_cost=17)
        opt.run(pop, counting, budget, target=-1.0)
        assert counting.calls * 17 == budget.used
        assert budget.used <= budget.cap + 20 * 17

    def test_elitism_is_monotone(self, method):
        rng = np.random.default_rng(3)
        pop = fresh_population(rng)
        opt = make_optimizer(method, pop.dim, BOUNDS, 13)
        budget = FeBudget(cap=10 ** 9, eval_cost=1)
        last = np.inf
        for _ in range(40):
            opt.step(pop, sphere, budget)
            assert opt.best_fitness <= last
            last = opt.best_fitness

    def test_bound_safety_under_outward_pressure(self, method):
        # objective rewards running past the lower bound
        rng = np.random.default_rng(4)
        pop = fresh_population(rng, low=0.0, high=100.0)
        opt = make_optimizer(method, pop.dim, (0.0, 100.0), 17)
        budget = FeBudget(cap=2000, eval_cost=1)
        opt.run(pop, lambda x: float(np.sum(x)), budget, target=-1.0)
        assert np.all(pop.positions >= 0.0)
        assert np.all(pop.positions <= 100.0)

    def test_determinism(self, method):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            pop = fresh_population(rng)
            opt = make_optimizer(method, pop.dim, BOUNDS, 19)
            budget = FeBudget(cap=1500, eval_cost=1)
            opt.run(pop, sphere, budget, target=0.0)
            results.append((pop.positions.copy(), pop.fitness.copy(),
                            opt.best_fitness))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        assert results[0][2] == results[1][2]

    def test_sphere_improves_90_percent(self, method):
        # search domain brackets the optimum so relative step sizes are sane
        rng = np.random.default_rng(6)
        pop = fresh_population(rng)
        opt = make_optimizer(method, pop.dim, (0.0, 10.0), 23)
        budget = FeBudget(cap=20 * 500, eval_cost=1)
        opt.ensure_evaluated(pop, sphere, budget)
        initial_best = pop.best_fitness
        opt.run(pop, sphere, budget, target=0.0)
        assert opt.best_fitness <= 0.1 * initial_best


class TestStepContracts:
    def test_pso_converges_on_sphere(self):
        # desk-calibrated: 20 particles, 200 generations reach < 1% of the
        # initial best on the 2-D sphere
        rng = np.random.default_rng(8)
        pop = fresh_population(rng)
        opt = make_optimizer("pso", pop.dim, (0.0, 10.0), 29)
        budget = FeBudget(cap=20 * 201, eval_cost=1)
        opt.ensure_evaluated(pop, sphere, budget)
        initial_best = pop.best_fitness
        for _ in range(200):
            opt.step(pop, sphere, budget)
        assert opt.best_fitness < 1e-2 * initial_best

    def test_single_batch_cap_runs_one_generation(self):
        rng = np.random.default_rng(9)
        pop = fresh_population(rng)
        pop.fitness[:] = [sphere(x) for x in pop.positions]
        opt = make_optimizer("pso", pop.dim, BOUNDS, 31)
        counting = CountingObjective(sphere)
        budget = FeBudget(cap=20 * 3, eval_cost=3)  # exactly one batch
        opt.run(pop, counting, budget, target=0.0)
        assert counting.calls == 20
        assert budget.used <= budget.cap + 20 * 3

    def test_run_with_zero_cap_returns_unchanged(self):
        rng = np.random.default_rng(10)
        pop = fresh_population(rng)
        before = pop.positions.copy()
        opt = make_optimizer("fpa", pop.dim, BOUNDS, 37)
        budget = FeBudget(cap=0, eval_cost=1)
        opt.run(pop, sphere, budget, target=0.0)
        assert budget.used == 0
        np.testing.assert_array_equal(pop.positions, before)

    def test_run_stops_on_known_zero(self):
        rng = np.random.default_rng(12)
        pop = fresh_population(rng)
        pop.fitness[:] = 1.0
        pop.fitness[3] = 0.0
        opt = make_optimizer("bat", pop.dim, BOUNDS, 41)
        counting = CountingObjective(sphere)
        budget = FeBudget(cap=10 ** 6, eval_cost=1)
        opt.run(pop, counting, budget, target=0.0)
        assert counting.calls == 0
        assert opt.best_fitness == 0.0

    def test_population_best_tracking(self):
        pop = Population([[1.0, 1.0], [2.0, 2.0]], [4.0, 1.0])
        assert pop.best_index == 1
        assert pop.best_fitness == 1.0
        np.testing.assert_array_equal(pop.best_position, [2.0, 2.0])
        with pytest.raises(ValueError):
            Population([[1.0]]).best_index

    def test_positions_only_drops_fitness(self):
        pop = Population([[1.0], [2.0]], [0.5, 0.2])
        bare = pop.positions_only()
        assert np.all(np.isnan(bare.fitness))
        assert bare.fingerprint() == pop.fingerprint()

    def test_budget_rejects_bad_cost(self):
        with pytest.raises(ValueError):
            FeBudget(10, eval_cost=0)
