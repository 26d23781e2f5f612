import math
import random

import pytest

from naveval.stats import MetricCorrelation, correlate_metrics, pearson


class TestPearson:
    def test_worked_example(self):
        """A known four-point pair correlates at exactly 0.8."""
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert abs(pearson(x, y) - 0.8) < 1e-12

    def test_perfect_positive_and_negative(self):
        x = [1.0, 2.0, 3.0]
        assert abs(pearson(x, [2.0, 4.0, 6.0]) - 1.0) < 1e-12
        assert abs(pearson(x, [6.0, 4.0, 2.0]) + 1.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least two"):
            pearson([1.0], [2.0])

    def test_constant_series(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("value", [0.1, 0.7, 3.3])
    def test_constant_series_whose_float_mean_is_not_its_value(self, value, n):
        """These returned 0.0: the float mean missed the value, so syy was a few ulp squared, not 0."""
        ramp = [float(i) for i in range(n)]
        for x, y in ((ramp, [value] * n), ([value] * n, ramp)):
            with pytest.raises(ValueError) as excinfo:
                pearson(x, y)
            assert str(excinfo.value) == "correlation is undefined for a constant series"

    def test_exactly_linear_series_reads_one(self):
        """These read 1.0000000000000002 and -1.0000000000000002."""
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [0.7, 1.4, 2.1, 2.8]) == 1.0
        assert pearson(x, [-0.7, -1.4, -2.1, -2.8]) == -1.0

    @pytest.mark.parametrize(
        "x, y",
        [
            # These two returned nan.
            ([math.inf, 1.0, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
            # This one raised fsum's "-inf + inf in fsum".
            ([1.0, math.inf, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, -math.inf]),
        ],
        ids=["inf-first", "nan", "inf-middle", "inf-in-y"],
    )
    def test_non_finite_value_rejected(self, x, y):
        with pytest.raises(ValueError) as excinfo:
            pearson(x, y)
        assert str(excinfo.value) == "values must be finite"

    @pytest.mark.parametrize(
        "x, expected",
        [
            # The squares overflow to inf: r read 0.0.
            ([1e160, 2e160, 4e160], 0.9819805060619657),
            # The sum overflows: fsum raised OverflowError.
            ([1.7e308, 1e308, 1.5e308], -0.27735009811261446),
            # The squares underflow to 0: the series read as constant.
            ([1e-170, 2e-170, 4e-170], 0.9819805060619657),
            # The squares are subnormal: r read -0.5000027832.
            ([3e-160, 1e-160, 2e-160], -0.5),
            # Subnormal values, 1, 2 and 3 times the smallest: the squares read 0.
            ([5e-324, 1e-323, 1.5e-323], 1.0),
        ],
    )
    def test_exact_outside_the_float_range(self, x, expected):
        assert abs(pearson(x, [1.0, 2.0, 3.0]) - expected) < 1e-15
        assert abs(pearson([1.0, 2.0, 3.0], x) - expected) < 1e-15

    @pytest.mark.parametrize("shift", [-900, -600, 600, 900])
    def test_power_of_two_scaling_keeps_every_bit(self, shift):
        """r of a series scaled by 2**shift, whose squares leave the float range, is r of the series."""
        rng = random.Random(shift)
        for _ in range(50):
            n = rng.randrange(2, 20)
            x = [rng.uniform(1.0, 100.0) for _ in range(n)]
            y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
            assert pearson([math.ldexp(v, shift) for v in x], y) == pearson(x, y)

    def test_matches_scipy_pearsonr(self):
        """scipy.stats.pearsonr as an oracle on seeded data, correlated and not."""
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(2, 60)
            slope = rng.choice([0.0, 0.3, -2.0])
            x = [rng.gauss(0, rng.choice([1e-3, 1.0, 1e3])) for _ in range(n)]
            y = [slope * v + rng.gauss(0, 1) for v in x]
            expected = float(scipy_stats.pearsonr(x, y).statistic)
            assert abs(pearson(x, y) - expected) < 1e-12

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(2, 20)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            assert abs(pearson(x, y) - pearson(y, x)) < 1e-12

    def test_affine_invariance(self):
        """Positive rescaling and shifting of either series leaves r unchanged."""
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(3, 15)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-5.0, 5.0)
            base = pearson(x, y)
            assert abs(pearson([a * v + b for v in x], y) - base) < 1e-9
            assert abs(pearson(x, [a * v + b for v in y]) - base) < 1e-9

    def test_range(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(2, 30)
            x = [rng.uniform(-10, 10) for _ in range(n)]
            y = [rng.uniform(-10, 10) for _ in range(n)]
            try:
                r = pearson(x, y)
            except ValueError:
                continue
            assert -1.0 <= r <= 1.0


class TestCorrelateMetrics:
    def test_identity_column_ranks_first(self):
        human = [1.0, 3.0, 2.0, 4.0]
        report = correlate_metrics(
            {"noisy": [1.0, 2.0, 3.0, 4.0], "exact": list(human)}, human
        )
        assert [e.metric for e in report.entries] == ["exact", "noisy"]
        assert abs(report.entries[0].pearson - 1.0) < 1e-12
        assert abs(report.entries[1].pearson - 0.8) < 1e-12
        assert [e.n for e in report.entries] == [4, 4]
        assert report.n_dropped == 0

    def test_rows_with_missing_values_dropped(self):
        """A None in any column removes that row from every correlation."""
        report = correlate_metrics(
            {
                "m1": [1.0, None, 3.0, 4.0, 5.0],
                "m2": [2.0, 9.0, 6.0, 8.0, 10.0],
            },
            [1.0, 7.0, 3.0, 4.0, 5.0],
        )
        assert report.n_dropped == 1
        for entry in report.entries:
            assert abs(entry.pearson - 1.0) < 1e-12
            assert entry.n == 4

    def test_two_complete_rows_are_enough(self):
        report = correlate_metrics({"m": [1.0, None, 3.0]}, [2.0, 5.0, 4.0])
        assert report.n_dropped == 1
        assert report.entries == (MetricCorrelation(metric="m", pearson=1.0, n=2),)

    def test_no_metric_columns(self):
        with pytest.raises(ValueError) as excinfo:
            correlate_metrics({}, [1.0, 2.0])
        assert str(excinfo.value) == "at least one metric column is required"

    def test_fewer_than_two_complete_rows(self):
        with pytest.raises(ValueError, match="at least two"):
            correlate_metrics({"m": [1.0, None, None]}, [1.0, 2.0, 3.0])

    def test_constant_column_error_names_column(self):
        with pytest.raises(ValueError, match="m_const"):
            correlate_metrics(
                {"m_const": [2.0, 2.0, 2.0], "m_ok": [1.0, 2.0, 3.0]},
                [1.0, 2.0, 3.0],
            )

    def test_constant_human_column_is_named(self):
        """This blamed column 'm', the first column it was correlated with."""
        with pytest.raises(ValueError) as excinfo:
            correlate_metrics({"m": [1.0, 2.0, 3.0], "n": [3.0, 1.0, 2.0]}, [5.0, 5.0, 5.0])
        assert str(excinfo.value) == "human column: correlation is undefined for a constant series"

    def test_non_finite_value_error_names_column(self):
        """A nan is an error that names its column, not an entry sorted wherever the column order puts it."""
        with pytest.raises(ValueError) as excinfo:
            correlate_metrics({"a": [1.0, 2.0, 3.0], "n": [1.0, math.nan, 2.0]}, [1.0, 2.0, 3.0])
        assert str(excinfo.value) == "column 'n': values must be finite"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_human_value_names_the_human_column(self, bad):
        with pytest.raises(ValueError) as excinfo:
            correlate_metrics({"m": [1.0, 2.0, 3.0]}, [1.0, bad, 3.0])
        assert str(excinfo.value) == "human column: values must be finite"

    def test_tied_correlations_keep_input_order(self):
        """Columns with equal r stay in mapping insertion order."""
        human = [1.0, 2.0, 3.0]
        report = correlate_metrics(
            {"zeta": [2.0, 4.0, 6.0], "alpha": [1.0, 2.0, 3.0]}, human
        )
        assert [e.metric for e in report.entries] == ["zeta", "alpha"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlate_metrics({"m": [1.0, 2.0]}, [1.0, 2.0, 3.0])
