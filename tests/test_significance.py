"""Dominance testing: violation ratio, bootstrap bound, comparison table."""

import json
import math
import random
import re
import sys
from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from slukit import cli, significance
from slukit.errors import ParseError, StructuralError

from support import grid_epsilon, load_perfbench, walk_aso, walk_epsilon

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _sample(values):
    return significance.ScoreSample(tuple(values))


def _epsilon(a, b):
    """The violation ratio of a over b, as ``aso`` computes it before any bootstrap."""
    return significance.aso(a, b, n_boot=1).epsilon_hat


def _never_called(*args, **kwargs):
    raise AssertionError("called")


CSV_TEXT = (
    "system,language,metric,seed,value\n"
    "base,de,f1,1,0.50\n"
    "base,de,f1,2,0.52\n"
    "base,de,f1,3,0.48\n"
    "base,it,f1,1,0.40\n"
    "base,it,f1,2,0.42\n"
    "base,it,f1,3,0.41\n"
    "aux,de,f1,1,0.60\n"
    "aux,de,f1,2,0.62\n"
    "aux,de,f1,3,0.61\n"
    "aux,it,f1,1,0.43\n"
    "aux,it,f1,2,0.44\n"
    "aux,it,f1,3,0.45\n"
)


class TestScoreSample:
    def test_needs_two_values(self):
        with pytest.raises(StructuralError, match=">= 2"):
            _sample([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(StructuralError, match="non-finite"):
            _sample([1.0, math.nan])

    def test_coerces_to_float(self):
        assert _sample([1, 2]).values == (1.0, 2.0)


class TestEpsilon:
    def test_clear_dominance(self):
        assert _epsilon(_sample([2, 3]), _sample([0, 1])) == 0.0

    def test_full_violation(self):
        assert _epsilon(_sample([0, 1]), _sample([2, 3])) == 1.0

    def test_interleaved_half(self):
        assert _epsilon(_sample([0, 3]), _sample([1, 2])) == 0.5

    def test_identical_degenerate(self):
        assert _epsilon(_sample([1, 2, 3]), _sample([1, 2, 3])) == 0.5

    def test_order_insensitive_input(self):
        a, b = [3.0, 0.5, 2.0], [1.0, 2.5, 0.0]
        eps = _epsilon(_sample(a), _sample(b))
        random.Random(0).shuffle(a)
        assert _epsilon(_sample(a), _sample(b)) == eps

    def test_unequal_sizes(self):
        a = [0.1, 0.4, 0.7, 0.9]
        b = [0.2, 0.3, 0.8]
        eps = _epsilon(_sample(a), _sample(b))
        assert 0.0 < eps < 1.0
        assert abs(eps - grid_epsilon(a, b, points=600_000)) < 1e-6

    def test_matches_grid_integration(self):
        rng = np.random.default_rng(51)
        for n, m in ((10, 8), (20, 25), (5, 4), (2, 10)):
            a = rng.normal(0.0, 1.0, n).tolist()
            b = rng.normal(0.3, 1.2, m).tolist()
            exact = _epsilon(_sample(a), _sample(b))
            assert abs(exact - grid_epsilon(a, b)) < 1e-6

    @given(
        st.lists(finite_floats, min_size=2, max_size=12),
        st.lists(finite_floats, min_size=2, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_range_and_complement(self, a, b):
        eps_ab = _epsilon(_sample(a), _sample(b))
        eps_ba = _epsilon(_sample(b), _sample(a))
        assert 0.0 <= eps_ab <= 1.0
        if sorted(a) != sorted(b):
            assert abs(eps_ab + eps_ba - 1.0) < 1e-9

    def test_shift_and_scale_invariance(self):
        rng = random.Random(52)
        for _ in range(50):
            a = [rng.gauss(0, 1) for _ in range(6)]
            b = [rng.gauss(0.5, 1) for _ in range(4)]
            eps = _epsilon(_sample(a), _sample(b))
            shifted = _epsilon(_sample([v + 13.5 for v in a]), _sample([v + 13.5 for v in b]))
            scaled = _epsilon(_sample([v * 4.0 for v in a]), _sample([v * 4.0 for v in b]))
            assert abs(shifted - eps) < 1e-9
            assert abs(scaled - eps) < 1e-9


class TestInverseNormalCdf:
    """aso's bound uses the exact standard normal quantile z = InverseNormal(1 - alpha).

    z is recovered from a result as (epsilon_hat - epsilon_min) / sigma_boot.
    """

    A = [0.61, 0.55, 0.72, 0.58, 0.66, 0.49]
    B = [0.50, 0.57, 0.44, 0.52, 0.61, 0.47]

    def _z(self, alpha):
        result = significance.aso(_sample(self.A), _sample(self.B), alpha=alpha, n_boot=50, seed=3)
        assert result.sigma_boot > 0.01
        return (result.epsilon_hat - result.epsilon_min) / result.sigma_boot

    def test_matches_scipy_across_domain(self):
        alphas = np.concatenate([
            np.array([1e-12, 1e-9, 1e-6, 1e-4, 0.02425, 0.024251]),
            np.linspace(0.001, 0.999, 997),
            1 - np.array([1e-12, 1e-9, 1e-6, 1e-4]),
        ])
        for alpha in alphas:
            ref = float(scipy.stats.norm.ppf(1 - alpha))
            assert abs(self._z(float(alpha)) - ref) < 1e-8, alpha

    def test_symmetry(self):
        assert abs(self._z(0.3) + self._z(0.7)) < 1e-12

    def test_median_is_zero(self):
        assert abs(self._z(0.5)) < 1e-15

    def test_known_quantile(self):
        assert abs(self._z(0.025) - 1.959963984540054) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(StructuralError, match="alpha must be in \\(0, 1\\)"):
            significance.aso(_sample(self.A), _sample(self.B), alpha=p)

    @pytest.mark.parametrize("alpha", [2.0 ** -54, 5e-17, 1e-17, 5e-324])
    def test_alpha_whose_complement_rounds_to_one_refused_before_bootstrap(
        self, monkeypatch, alpha
    ):
        monkeypatch.setattr(significance, "_masses", _never_called)
        message = f"alpha {alpha!r} is too small: 1 - alpha rounds to 1"
        with pytest.raises(StructuralError, match=re.escape(message)):
            significance.aso(_sample(self.A), _sample(self.B), alpha=alpha)

    def test_smallest_alpha_accepted(self):
        alpha = math.nextafter(2.0 ** -54, 1.0)
        assert 1.0 - alpha < 1.0
        z = NormalDist().inv_cdf(1 - alpha)
        assert self._z(alpha) == pytest.approx(z, rel=1e-12)


class TestAso:
    def test_separated_samples_dominate(self):
        rng = random.Random(53)
        b = [rng.gauss(0, 1) for _ in range(20)]
        a = [v + 10 for v in b]
        result = significance.aso(_sample(a), _sample(b), seed=1)
        assert result.epsilon_hat == 0.0
        assert result.epsilon_min <= 0.0
        assert result.dominant

    def test_identical_samples_do_not(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        result = significance.aso(_sample(values), _sample(values), seed=2)
        assert result.epsilon_hat == 0.5
        assert result.sigma_boot == 0.0
        assert result.epsilon_min == 0.5
        assert not result.dominant

    def test_deterministic_per_seed(self):
        rng = random.Random(54)
        a = [rng.gauss(0.6, 0.1) for _ in range(5)]
        b = [rng.gauss(0.5, 0.1) for _ in range(5)]
        one = significance.aso(_sample(a), _sample(b), seed=7)
        two = significance.aso(_sample(a), _sample(b), seed=7)
        other = significance.aso(_sample(a), _sample(b), seed=8)
        assert one == two
        assert one != other

    def test_bound_formula(self):
        rng = random.Random(55)
        a = [rng.gauss(0.6, 0.1) for _ in range(6)]
        b = [rng.gauss(0.5, 0.1) for _ in range(6)]
        alpha = 0.03
        result = significance.aso(_sample(a), _sample(b), alpha=alpha, seed=9)
        z = float(scipy.stats.norm.ppf(1 - alpha))
        assert math.isclose(
            result.epsilon_min, result.epsilon_hat - result.sigma_boot * z, abs_tol=1e-12
        )
        assert result.alpha_used == alpha
        assert result.dominant == (result.epsilon_min < 0.5)

    def test_validation(self):
        a, b = _sample([1, 2]), _sample([0, 1])
        with pytest.raises(StructuralError, match="alpha"):
            significance.aso(a, b, alpha=0.0)
        with pytest.raises(StructuralError, match="n_boot"):
            significance.aso(a, b, n_boot=0)

    @pytest.mark.parametrize("n_boot", [10 ** 20, 2 * 10 ** 18])
    def test_n_boot_too_large_to_hold(self, n_boot):
        with pytest.raises(StructuralError, match=f"n_boot {n_boot} is too large"):
            significance.aso(_sample([1, 2]), _sample([0, 1]), n_boot=n_boot)

    @pytest.mark.parametrize("b", [[1, 2], [-1, 0.5]], ids=["degenerate", "separated"])
    def test_n_boot_refused_before_either_early_return(self, b):
        with pytest.raises(StructuralError, match="n_boot 100000000000000000000 is too large"):
            significance.aso(_sample([1, 2]), _sample(b), n_boot=10 ** 20)
        with pytest.raises(StructuralError, match="n_boot must be >= 1"):
            significance.aso(_sample([1, 2]), _sample(b), n_boot=0)


class TestSeparated:
    """Strictly separated supports settle a cell without resampling, bit for bit as walk_aso."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The seeds ``np.random.default_rng`` is called with, from here on."""
        calls, real = [], np.random.default_rng

        def default_rng(seed):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        return calls

    ABOVE = ([2.0, 3.0, 2.5], [0.1, 1.9, 1.0, 0.5])  # mixed sizes, 3 vs 4

    @pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
    @pytest.mark.parametrize("n_boot", [1, 60, significance.BOOT_DRAWS // 7 + 1],
                             ids=["one", "sixty", "past_a_pass"])
    def test_separated_skips_resampling(self, draws, above, n_boot):
        a, b = self.ABOVE if above else self.ABOVE[::-1]
        expected = walk_aso(a, b, alpha=0.02, n_boot=n_boot, seed=5)
        draws.clear()
        result = significance.aso(_sample(a), _sample(b), alpha=0.02, n_boot=n_boot, seed=5)
        assert result == expected and draws == []
        assert result == significance.AsoResult(
            0.0 if above else 1.0, 0.0, 0.0 if above else 1.0, 0.02, above
        )

    @pytest.mark.parametrize("a,b", [
        ([1.9, 3.0, 2.5], [0.1, 1.9, 1.0]),  # min(a) == max(b)
        ([0.0, 1.0, 2.0], [-0.0, -1.0]),  # 0.0 against -0.0
        ([-0.0, 1.0], [0.0, -1.0, -2.0]),
        ([0.3, 1.2, 0.8], [0.5, 0.1]),  # overlapping
    ], ids=["touching", "zero_vs_negative_zero", "negative_zero_vs_zero", "overlapping"])
    def test_touching_or_overlapping_resamples(self, draws, a, b):
        expected = walk_aso(a, b, n_boot=60, seed=8)
        draws.clear()
        assert significance.aso(_sample(a), _sample(b), n_boot=60, seed=8) == expected
        assert draws == [8]

    def test_squared_gap_that_underflows_resamples(self, draws):
        """(w_min * gap) * gap is 0 on the unit scale, so a replicate can have no mass at all.

        b's -0.5 fixes the scale at 1. The sample's own total is positive, so
        epsilon_hat is 0.0, but the replicates that draw g twice from a and
        0.0 three times from b have a zero total (no segment is wider than
        0.5) and read 0.5: sigma is not 0, and only resampling finds it.
        """
        g = 1e-162  # (0.5 * g) * g rounds to 0
        a, b = [g, 4 * g], [0.0, 0.0, -0.5]
        assert (0.5 * g) * g == 0.0
        expected = walk_aso(a, b, n_boot=60, seed=9)
        draws.clear()
        result = significance.aso(_sample(a), _sample(b), n_boot=60, seed=9)
        assert result == expected
        assert result.epsilon_hat == 0.0 and result.sigma_boot > 0.0
        assert draws == [9]

    def test_tiny_scores_are_scaled_whole(self, draws):
        """Raw, (0.5 * g) * g underflows and replicates would lose their mass.

        On the unit scale (a times 2**-k, b unchanged) every mass is kept, so
        the cell is separated: it equals walk_aso on the scaled samples.
        """
        g = 1e-162
        a, b = [g, 4 * g], [0.0, 0.0]
        _, k = math.frexp(4 * g)
        expected = walk_aso([math.ldexp(v, -k) for v in a], b, n_boot=60, seed=9)
        draws.clear()
        result = significance.aso(_sample(a), _sample(b), n_boot=60, seed=9)
        assert result == expected == significance.AsoResult(0.0, 0.0, 0.0, 0.05, True)
        assert draws == []

    def test_smallest_gap_kept_whole_skips_resampling(self, draws):
        g = 1e-161  # (0.5 * g) * g is about 5e-323, a subnormal but not 0
        a, b = [g, 4 * g], [0.0, 0.0]
        expected = walk_aso(a, b, n_boot=60, seed=9)
        draws.clear()
        assert significance.aso(_sample(a), _sample(b), n_boot=60, seed=9) == expected
        assert draws == []

    @pytest.mark.parametrize("scale,overflows", [(6e153, True), (4e153, False)])
    def test_span_whose_doubled_square_overflows_resamples(self, draws, scale, overflows):
        """On the raw scale 2 * span**2 overflows at span 1.3e154 (not at 0.9e154).

        On the unit scale every span is below 2, so no total can overflow,
        and neither cell resamples; the result is exact either way.
        """
        a, b = [scale, 1.1 * scale], [-1.1 * scale, -scale]
        span = 2.2 * scale
        assert math.isfinite(span * span) and math.isfinite(2 * span * span) != overflows
        expected = walk_aso(b, a, n_boot=60, seed=4)
        draws.clear()
        result = significance.aso(_sample(b), _sample(a), n_boot=60, seed=4)
        assert result == expected
        assert result.epsilon_hat == 1.0 and result.sigma_boot == 0.0
        assert draws == []

    def test_workload_table_equals_walk(self, tmp_path, monkeypatch):
        """The significance benchmark's own scores, through the CLI: every cell is walk_aso's."""
        gen = load_perfbench("gen", monkeypatch)
        monkeypatch.chdir(tmp_path)
        gen.significance(9501, tmp_path)
        assert cli.run([
            "significance", "--scores", "scores.csv", "--baseline", "baseline", "--boot", "200",
            "--seed", "9501", "--json", "table.json",
        ]) == 0
        payload = json.loads((tmp_path / "table.json").read_text())
        scores = significance.parse_scores_csv((tmp_path / "scores.csv").read_text())
        seeder = random.Random(9501)
        separated = 0
        for row in payload["results"]:  # sorted by system, then language: the seeder's order
            a = scores[(row["system"], row["language"], "f1")].values
            b = scores[("baseline", row["language"], "f1")].values
            expected = walk_aso(a, b, alpha=payload["alpha_adjusted"], n_boot=200,
                                seed=seeder.randrange(2 ** 32))
            fields = {k: v for k, v in row.items() if k not in ("system", "language")}
            assert fields == vars(expected), row
            separated += significance._separated(a, b)
        assert len(payload["results"]) == 24 and separated == 12


def test_benchmark_check_accepts_the_workload_table(tmp_path, monkeypatch):
    """The significance workload's argv on its seed-5 scores passes ``check_significance``.

    The check recomputes each verdict from ``epsilon_hat`` and
    ``sigma_boot``, so a change to the bound's formula fails here as it
    would fail the benchmark.
    """
    gen = load_perfbench("gen", monkeypatch)
    monkeypatch.setitem(sys.modules, "gen", gen)  # run.py imports its siblings by name
    monkeypatch.setitem(sys.modules, "tracer", load_perfbench("tracer", monkeypatch))
    run, check = load_perfbench("run", monkeypatch), load_perfbench("check", monkeypatch)
    (tmp_path / "inputs").mkdir()
    (tmp_path / "out").mkdir()
    truth = gen.significance(5, tmp_path / "inputs")["truth"]
    monkeypatch.chdir(tmp_path / "out")
    [(_, argv, _)] = run.steps("significance", 5)
    assert cli.run(argv) == 0
    assert check.check_significance(tmp_path / "out", truth) == ([], {})


class TestBlockDraw:
    """The properties ``aso`` relies on: one ``integers`` call per pass keeps the stream."""

    def test_broadcast_bounds_equal_per_replicate_calls(self):
        rng = random.Random(58)
        for _ in range(200):
            n, m = rng.randint(2, 40), rng.randint(2, 40)
            per_pass = significance.BOOT_DRAWS // (n + m)
            rows = rng.choice((1, per_pass - 1, per_pass, per_pass + 1, 600))
            seed = rng.randrange(2 ** 32)
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            high = np.repeat([n, m], [n, m])
            draws = batched.integers(0, high, size=(rows, n + m))
            for k in range(rows):
                assert draws[k, :n].tolist() == scalar.integers(0, n, n).tolist()
                assert draws[k, n:].tolist() == scalar.integers(0, m, m).tolist()
            assert batched.integers(0, 2 ** 62) == scalar.integers(0, 2 ** 62)

    def test_scalar_bound_equals_broadcast_bound_for_equal_sizes(self):
        for n in range(2, 41):
            for seed in range(5):
                rows = significance.BOOT_DRAWS // (2 * n) + 1
                broadcast, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                wide = broadcast.integers(0, np.broadcast_to(np.full(2 * n, n), (rows, 2 * n)))
                assert np.array_equal(scalar.integers(0, n, size=(rows, 2 * n)), wide)
                assert broadcast.integers(0, 2 ** 62) == scalar.integers(0, 2 ** 62)


class TestPlan:
    def test_cached_per_size_pair_and_read_only(self):
        plan = significance._plan(5, 7)
        assert significance._plan(5, 7) is plan
        for array in plan:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert significance._plan(7, 5) is not plan

    def test_segments(self):
        width, a_step, b_step = significance._plan(2, 3)  # ends 2, 3, 4, 6 in units of 1/6
        assert width.tolist() == [2 / 6, 1 / 6, 1 / 6, 2 / 6]
        assert a_step.tolist() == [0, 0, 1, 1]
        assert b_step.tolist() == [0, 1, 1, 2]


class TestMasses:
    @pytest.mark.parametrize("r,n,m", [
        (1, 2, 2), (1, 12, 9), (1, 40, 33), (2, 5, 7), (3, 300, 2), (40, 100, 100),
        (136, 30, 30), (819, 5, 5),
    ])
    def test_sums_in_breakpoint_order(self, r, n, m):
        """Bit for bit the last cumsum row: each row's masses added one segment at a time."""
        rng = np.random.default_rng(61)  # mixed magnitudes, so the order of the adds shows
        a, b = (np.sort(rng.normal(size=(r, k)) * rng.choice([1e-4, 1.0, 1e4], size=(r, k)))
                for k in (n, m))
        width, a_step, b_step = significance._plan(n, m)
        diff = b.T[b_step] - a.T[a_step]
        mass = width[:, None] * diff * diff
        violation, total = significance._masses(a, b)
        assert np.array_equal(violation, np.cumsum(np.where(diff > 0, mass, 0.0), axis=0)[-1])
        assert np.array_equal(total, np.cumsum(mass, axis=0)[-1])


class TestAsoOracle:
    """Exact equality with the breakpoint-walk oracle in tests/support.py."""

    CASES = {
        "coprime 5 vs 3": ([0.61, 0.48, 0.55, 0.70, 0.52], [0.50, 0.58, 0.47]),
        "coprime 7 vs 4": (
            [0.3, -1.2, 0.8, 2.1, -0.4, 0.05, 1.3], [0.9, -0.7, 0.2, 1.6],
        ),
        "lcm 12 vs max 6": ([1.5, 0.2, 0.9, 1.1, 0.4, 0.7], [0.8, 0.1, 1.2, 0.6]),
        "ties": ([1.0, 2.0, 2.0, 1.0, 3.0, 2.0], [2.0, 1.0, 1.0, 2.0, 2.0]),
        "equal 6 vs 6": ([0.4, 0.9, 0.1, 0.7, 0.3, 0.6], [0.5, 0.2, 0.8, 0.35, 0.3, 0.65]),
        "signed zeros": ([0.0, -0.0, 1.0, -0.0, 2.0], [-0.0, 0.0, 0.5, -0.0]),
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("n_boot", [1, 256, 257])
    def test_aso_equals_walk(self, name, n_boot):
        a, b = self.CASES[name]
        result = significance.aso(_sample(a), _sample(b), alpha=0.02, n_boot=n_boot, seed=17)
        assert result == walk_aso(a, b, alpha=0.02, n_boot=n_boot, seed=17)
        assert _epsilon(_sample(a), _sample(b)) == walk_epsilon(a, b)

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("past", [0, 1], ids=["one_pass", "one_past"])
    def test_aso_equals_walk_at_a_pass_boundary(self, name, past):
        """Exactly one full pass, and one replicate into a second pass."""
        a, b = self.CASES[name]
        n_boot = significance.BOOT_DRAWS // (len(a) + len(b)) + past
        result = significance.aso(_sample(a), _sample(b), alpha=0.02, n_boot=n_boot, seed=17)
        assert result == walk_aso(a, b, alpha=0.02, n_boot=n_boot, seed=17)

    def test_random_cases_equal_walk(self):
        rng = random.Random(57)
        for _ in range(40):
            a = [round(rng.gauss(0, 1), rng.choice((0, 1, 6))) for _ in range(rng.randint(2, 12))]
            b = [round(rng.gauss(0.2, 1), rng.choice((0, 1, 6))) for _ in range(rng.randint(2, 12))]
            assert _epsilon(_sample(a), _sample(b)) == walk_epsilon(a, b)
            assert significance.aso(_sample(a), _sample(b), n_boot=20, seed=5) == walk_aso(
                a, b, n_boot=20, seed=5
            )

    def test_larger_samples_across_blocks_equal_walk(self):
        rng = random.Random(59)
        a = [round(rng.gauss(0, 1), 3) for _ in range(20)]
        b = [round(rng.gauss(0.1, 1), 3) for _ in range(37)]
        n_boot = significance.BOOT_DRAWS // (20 + 37) + 1  # one replicate into a second pass
        result = significance.aso(_sample(a), _sample(b), n_boot=n_boot, seed=21)
        assert result == walk_aso(a, b, n_boot=n_boot, seed=21)

    def test_same_distribution_different_sizes_is_degenerate(self):
        result = significance.aso(_sample([1, 2]), _sample([1, 1, 2, 2]), seed=6)
        assert result == significance.AsoResult(0.5, 0.0, 0.5, 0.05, False)
        assert result == walk_aso([1, 2], [1, 1, 2, 2], seed=6)

    def test_acceptance_case_pinned(self):
        five = [0.52, 0.55, 0.49, 0.61, 0.58]
        other = [0.50, 0.56, 0.47, 0.52, 0.54]
        result = significance.aso(_sample(five), _sample(other), n_boot=1000, seed=3)
        assert result == significance.AsoResult(
            float.fromhex("0x0.0p+0"),
            float.fromhex("0x1.e6d66def4dda1p-3"),
            float.fromhex("-0x1.9063682d405c2p-2"),
            0.05,
            True,
        )
        assert result == walk_aso(five, other, n_boot=1000, seed=3)


class TestCompareTable:
    def _scores(self):
        rng = random.Random(56)
        scores = {}
        for lang in ("de", "it", "ja"):
            base = [rng.gauss(0.5, 0.02) for _ in range(5)]
            scores[("base", lang)] = _sample(base)
            scores[("better", lang)] = _sample([v + 0.3 for v in base])
            scores[("same", lang)] = _sample(base)
        return scores

    def test_bonferroni_and_counts(self):
        table = significance.compare_table(self._scores(), "base", alpha=0.05, seed=3)
        assert table.languages == ("de", "it", "ja")
        assert table.alpha == 0.05
        assert abs(table.alpha_adjusted - 0.05 / 3) < 1e-15
        assert table.dominant_counts["better"] == 3
        assert table.dominant_counts["same"] == 0
        for (system, lang), result in table.results.items():
            assert system in ("better", "same")
            assert result.alpha_used == table.alpha_adjusted

    def test_missing_cells_skipped(self):
        scores = self._scores()
        del scores[("same", "ja")]
        table = significance.compare_table(scores, "base", seed=4)
        assert ("same", "ja") not in table.results
        assert ("same", "de") in table.results

    def test_missing_baseline_names_language(self):
        scores = self._scores()
        del scores[("base", "it")]
        with pytest.raises(StructuralError, match="language 'it'"):
            significance.compare_table(scores, "base")

    def test_deterministic(self):
        one = significance.compare_table(self._scores(), "base", seed=11)
        two = significance.compare_table(self._scores(), "base", seed=11)
        assert one == two

    def test_empty(self):
        with pytest.raises(StructuralError, match="no scores"):
            significance.compare_table({}, "base")

    # the baseline's size per language; the systems' cells are 5/5, 10/20, 20/10 and
    # 5/10, and "same" in "e" is degenerate (the baseline's values, each twice)
    ORACLE_SIZES = {"a": 5, "b": 20, "c": 10, "d": 10, "e": 4}

    def _oracle_scores(self):
        rng = random.Random(60)
        draw = lambda k, mu: [round(rng.gauss(mu, 0.05), 3) for _ in range(k)]
        scores = {("base", lang): _sample(draw(k, 0.5)) for lang, k in self.ORACLE_SIZES.items()}
        for lang, k in (("a", 5), ("b", 10), ("c", 20), ("d", 5)):
            scores[("sys", lang)] = _sample(draw(k, 0.52))
        scores[("same", "a")] = _sample(draw(5, 0.5))
        scores[("same", "e")] = _sample(scores[("base", "e")].values * 2)
        return scores

    # 273 and 274: one pass and just past it for the 30-index cells; 820 for the 5/5 ones
    @pytest.mark.parametrize("n_boot", [1, 273, 274, 820])
    def test_every_cell_equals_walk(self, n_boot):
        """Each cell is the oracle's result for the seed the table's seeder draws for it."""
        scores = self._oracle_scores()
        table = significance.compare_table(scores, "base", alpha=0.1, n_boot=n_boot, seed=31)
        seeder = random.Random(31)
        expected = {}
        for system in ("same", "sys"):
            for lang in sorted(self.ORACLE_SIZES):
                if (system, lang) in scores:
                    expected[(system, lang)] = walk_aso(
                        scores[(system, lang)].values, scores[("base", lang)].values,
                        alpha=0.1 / 5, n_boot=n_boot, seed=seeder.randrange(2 ** 32),
                    )
        assert table.results == expected
        assert table.results[("same", "e")] == significance.AsoResult(0.5, 0.0, 0.5, 0.02, False)

    def test_alpha_too_small_per_language_refused_before_bootstrap(self, monkeypatch):
        monkeypatch.setattr(significance, "aso", _never_called)
        message = "alpha 1e-16 (3.3333333333333335e-17 per language) is too small"
        with pytest.raises(StructuralError, match=re.escape(message)):
            significance.compare_table(self._scores(), "base", alpha=1e-16)

    def test_n_boot_too_large_refused_before_bootstrap(self, monkeypatch):
        monkeypatch.setattr(significance, "aso", _never_called)
        with pytest.raises(StructuralError, match="n_boot 100000000000000000000 is too large"):
            significance.compare_table(self._scores(), "base", n_boot=10 ** 20)

    @pytest.mark.parametrize("alpha", [1.5, 1.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(StructuralError, match=r"alpha must be in \(0, 1\)"):
            significance.compare_table(self._scores(), "base", alpha=alpha)


class TestScoresCsv:
    def test_grouping(self):
        cells = significance.parse_scores_csv(CSV_TEXT)
        assert set(cells) == {
            ("base", "de", "f1"), ("base", "it", "f1"),
            ("aux", "de", "f1"), ("aux", "it", "f1"),
        }
        assert cells[("base", "de", "f1")].values == (0.50, 0.52, 0.48)

    def test_missing_column(self):
        with pytest.raises(ParseError, match="needs columns"):
            significance.parse_scores_csv("system,language,metric\n")

    def test_bad_value_names_line(self):
        bad = CSV_TEXT.replace("base,de,f1,2,0.52", "base,de,f1,2,oops")
        with pytest.raises(ParseError, match="line 3.*'oops'"):
            significance.parse_scores_csv(bad)

    @pytest.mark.parametrize("row,got", [("aux,de,f1,4,0.4,0.5", 6), ("aux,de,f1,4", 4), (" ", 1)])
    def test_row_with_another_cell_count_names_line(self, row, got):
        with pytest.raises(ParseError, match=f"^line 15: expected 5 cells, got {got}$"):
            significance.parse_scores_csv(CSV_TEXT + "\n" + row + "\n")

    def test_blank_lines_skipped_and_counted(self):
        assert significance.parse_scores_csv(CSV_TEXT.replace("\n", "\n\n")) == (
            significance.parse_scores_csv(CSV_TEXT)
        )
        bad = CSV_TEXT.replace("\n", "\n\n").replace("aux,it,f1,3,0.45", "aux,it,f1,3,?")
        with pytest.raises(ParseError, match="line 25: bad value '\\?'"):
            significance.parse_scores_csv(bad)

    def test_short_group_names_cell(self):
        text = (
            "system,language,metric,seed,value\n"
            "base,de,f1,1,0.5\n"
        )
        with pytest.raises(StructuralError, match="language 'de', metric 'f1'"):
            significance.parse_scores_csv(text)


class TestRendering:
    def _table(self):
        cells = significance.parse_scores_csv(CSV_TEXT)
        scores = {(s, l): sample for (s, l, _), sample in cells.items()}
        return significance.compare_table(scores, "base", alpha=0.05, seed=12)

    def test_text_format(self):
        text = significance.format_comparison(self._table())
        lines = text.splitlines()
        assert lines[0] == "baseline\tbase"
        assert lines[1] == "languages\t2"
        assert lines[2] == "alpha\t0.050000"
        assert lines[3] == "alpha_adjusted\t0.025000"
        assert any(line.startswith("system") for line in lines)
        assert any(line.startswith("aux") for line in lines)
        counts = [l for l in lines if l.startswith("dominant_languages")]
        assert len(counts) == 1
        assert counts[0].startswith("dominant_languages\taux\t")
        assert counts[0].endswith("/2")

    def test_json_pins_every_key(self):
        # the field names of AsoResult are the JSON keys of a result row
        table = significance.ComparisonTable(
            baseline="base",
            languages=("de", "it"),
            alpha=0.05,
            alpha_adjusted=0.025,
            results={
                ("aux", "it"): significance.AsoResult(0.25, 0.125, 0.0, 0.025, True),
                ("aux", "de"): significance.AsoResult(0.75, 0.5, 0.5, 0.025, False),
            },
            dominant_counts={"aux": 1},
        )
        payload = significance.comparison_to_json(table)
        assert payload == {
            "baseline": "base",
            "languages": ["de", "it"],
            "alpha": 0.05,
            "alpha_adjusted": 0.025,
            "results": [
                {"system": "aux", "language": "de", "epsilon_hat": 0.75, "sigma_boot": 0.5,
                 "epsilon_min": 0.5, "alpha_used": 0.025, "dominant": False},
                {"system": "aux", "language": "it", "epsilon_hat": 0.25, "sigma_boot": 0.125,
                 "epsilon_min": 0.0, "alpha_used": 0.025, "dominant": True},
            ],
            "dominant_counts": {"aux": 1},
        }
        payload["dominant_counts"]["aux"] = 2  # the mirror is a copy
        assert table.dominant_counts == {"aux": 1}

    def test_json_round_trips(self):
        table = self._table()
        payload = significance.comparison_to_json(table)
        text = json.dumps(payload, sort_keys=True)
        again = json.loads(text)
        assert again["baseline"] == "base"
        assert again["languages"] == ["de", "it"]
        assert len(again["results"]) == 2
        for row in again["results"]:
            key = (row["system"], row["language"])
            assert row["epsilon_hat"] == table.results[key].epsilon_hat
