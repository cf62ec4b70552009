import itertools

import numpy as np
import pytest
from helpers import pair, resolve, variation, weak_star_delta
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstoch.dominated import DominatedSpec
from mvstoch.drivers import TimeGrid
from mvstoch.grid import CompactGrid, SignedMeasureVec, build_test_family


def power_law_measure(alpha, T, t, J):
    """Atomic surrogate of alpha*(z-t)^(alpha-1) I_{z>t} dz with exact cell masses: the
    row of ``DominatedSpec.from_power_profile`` at grid time t, one of 0, T/2 and T."""
    tg = TimeGrid(T, 2)
    spec = DominatedSpec.from_power_profile(alpha, tg, J)
    return SignedMeasureVec(spec.grid, spec.point_masses[0, int(round(t / tg.dt))])


def variation_norm(m):
    return float(variation(m)[0])


def integral(m, f):
    return float(pair(m, f)[0])


def sign_parts(m):
    """The Jordan split m = m_plus - m_minus into nonnegative parts."""
    return (SignedMeasureVec(m.grid, np.maximum(m.weights, 0.0)),
            SignedMeasureVec(m.grid, np.maximum(-m.weights, 0.0)))


small_weights = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=9,
)


class TestTotalVariation:
    def test_jordan_split_by_sign(self):
        grid = CompactGrid(1.0, 1)
        assert variation_norm(SignedMeasureVec(grid, np.array([0.5, -0.5]))) == 1.0

    def test_zero_measure(self):
        grid = CompactGrid(1.0, 3)
        assert variation_norm(SignedMeasureVec(grid, np.zeros(4))) == 0.0

    def test_power_law_closed_form(self):
        # variation of the alpha-power integrand at time t is (T - t)^alpha
        m = power_law_measure(alpha=1.0, T=1.0, t=0.5, J=64)
        assert variation_norm(m) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_power_law_exactness_grid_sizes(self, alpha, t):
        for J in (16, 256):
            m = power_law_measure(alpha, 1.0, t, J)
            assert variation_norm(m) == pytest.approx((1.0 - t) ** alpha, abs=1e-12)


class TestPair:
    def test_zero_function(self):
        grid = CompactGrid(2.0, 4)
        m = SignedMeasureVec(grid, np.arange(5.0))
        assert integral(m, np.zeros(5)) == 0.0

    def test_constant_one_gives_net_mass(self):
        grid = CompactGrid(2.0, 4)
        w = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        m = SignedMeasureVec(grid, w)
        assert integral(m, np.ones(5)) == pytest.approx(w.sum())

    def test_power_law_alpha2_full_mass(self):
        m = power_law_measure(alpha=2.0, T=1.0, t=0.0, J=32)
        assert integral(m, np.ones(33)) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch_raises(self):
        grid = CompactGrid(1.0, 2)
        m = SignedMeasureVec(grid, np.zeros(3))
        with pytest.raises(ValueError):
            integral(m, np.zeros(4))

    @given(small_weights)
    def test_duality_bound(self, wlist):
        w = np.array(wlist)
        grid = CompactGrid(1.0, len(w) - 1)
        m = SignedMeasureVec(grid, w)
        f = np.sign(w)
        # |m(f)| <= ||m||_var for ||f||_inf <= 1, equality at f = sign(w)
        assert integral(m, f) == pytest.approx(variation_norm(m))
        rng = np.random.default_rng(7)
        g = rng.uniform(-1, 1, size=len(w))
        assert abs(integral(m, g)) <= variation_norm(m) + 1e-12


class TestJordan:
    def test_nonnegative_passthrough(self):
        grid = CompactGrid(1.0, 2)
        m = SignedMeasureVec(grid, np.array([1.0, 0.0, 2.0]))
        plus, minus = sign_parts(m)
        assert np.array_equal(plus.weights, m.weights)
        assert np.array_equal(minus.weights, np.zeros((1, 3)))

    def test_mixed_signs(self):
        grid = CompactGrid(1.0, 1)
        plus, minus = sign_parts(SignedMeasureVec(grid, np.array([1.0, -2.0])))
        assert np.array_equal(plus.weights, [[1.0, 0.0]])
        assert np.array_equal(minus.weights, [[0.0, 2.0]])

    @given(small_weights)
    @settings(max_examples=50)
    def test_reconstruction_and_disjoint_support(self, wlist):
        w = np.array(wlist)
        grid = CompactGrid(1.0, len(w) - 1)
        m = SignedMeasureVec(grid, w)
        plus, minus = sign_parts(m)
        assert np.all(plus.weights >= 0) and np.all(minus.weights >= 0)
        assert np.array_equal(plus.weights[0] - minus.weights[0], w)
        assert not np.any((plus.weights > 0) & (minus.weights > 0))
        assert variation_norm(m) == pytest.approx(
            variation_norm(plus) + variation_norm(minus)
        )


class TestWeakStarDelta:
    def setup_method(self):
        self.grid = CompactGrid(1.0, 4)
        self.fam = build_test_family(self.grid, 12)
        rng = np.random.default_rng(11)
        self.m1 = SignedMeasureVec(self.grid, rng.normal(size=5))
        self.m2 = SignedMeasureVec(self.grid, rng.normal(size=5))

    def test_zero_self_distance(self):
        assert weak_star_delta(self.m1, self.m1, self.fam) == 0.0

    def test_symmetry(self):
        assert weak_star_delta(self.m1, self.m2, self.fam) == pytest.approx(
            weak_star_delta(self.m2, self.m1, self.fam)
        )

    def test_variation_bound(self):
        gap = SignedMeasureVec(self.grid, self.m1.weights - self.m2.weights)
        bound = variation_norm(gap) * self.fam.delta_weights.sum()
        assert weak_star_delta(self.m1, self.m2, self.fam) <= bound + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (SignedMeasureVec(self.grid, rng.normal(size=5)) for _ in range(3))
            dab = weak_star_delta(a, b, self.fam)
            dbc = weak_star_delta(b, c, self.fam)
            dac = weak_star_delta(a, c, self.fam)
            assert dac <= dab + dbc + 1e-12

    def test_vector_measures(self):
        rng = np.random.default_rng(5)
        v1 = SignedMeasureVec(self.grid, rng.normal(size=(2, 5)))
        v2 = SignedMeasureVec(self.grid, rng.normal(size=(2, 5)))
        assert weak_star_delta(v1, v1, self.fam) == 0.0
        assert weak_star_delta(v1, v2, self.fam) > 0.0


class TestBuildTestFamily:
    def test_two_atoms_two_functions_span(self):
        grid = CompactGrid(1.0, 1)
        fam = build_test_family(grid, 2)
        assert np.linalg.matrix_rank(fam.functions) == 2

    def test_sup_norm_bound(self):
        grid = CompactGrid(1.0, 7)
        fam = build_test_family(grid, 40)
        assert np.max(np.abs(fam.functions)) <= 1.0

    def test_gammas_positive_sum_one(self):
        fam = build_test_family(CompactGrid(1.0, 3), 30)
        assert np.all(fam.gammas > 0)
        assert fam.gammas.sum() == 1.0

    def test_invalid_k_max(self):
        with pytest.raises(ValueError):
            build_test_family(CompactGrid(1.0, 2), 0)

    def test_family_sup_recovers_variation_norm(self):
        # oracle: brute-force supremum over every sign vector
        J = 3
        grid = CompactGrid(1.0, J)
        k_max = (J + 1) + 2 ** (J + 1)
        fam = build_test_family(grid, k_max)
        rng = np.random.default_rng(23)
        for _ in range(10):
            w = rng.integers(-8, 9, size=J + 1) / 4.0  # rational weights
            m = SignedMeasureVec(grid, w)
            brute = max(
                float(np.dot(signs, w))
                for signs in itertools.product([-1.0, 1.0], repeat=J + 1)
            )
            fam_sup = max(integral(m, u) for u in fam.functions)
            assert brute == pytest.approx(variation_norm(m), abs=1e-12)
            assert fam_sup == pytest.approx(brute, abs=1e-9)


class TestCellMasses:
    """Cell masses as the spec constructors build them: atom j owns (z_{j-1}, z_j]."""

    def test_midpoint_fallback(self):
        grid = CompactGrid(1.0, 100)
        spec = DominatedSpec.from_density_callable(lambda t, z: np.ones_like(z), TimeGrid(1.0, 1),
                                                   grid)
        w = spec.point_masses[0, 0]
        assert w[0] == 0.0
        assert w[1:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_atom_zero_carries_no_mass(self):
        for n_steps in (1, 3):  # a commensurate grid, then the row-block fill
            spec = DominatedSpec.from_power_profile(2.0, TimeGrid(1.0, n_steps), 8)
            assert np.all(spec.point_masses[:, :, 0] == 0.0)

    def test_resolve(self):
        grid = CompactGrid(2.0, 8)
        assert resolve(grid, 0.5) == 2
        with pytest.raises(ValueError):
            resolve(grid, 0.3)

    def test_indicator(self):
        grid = CompactGrid(1.0, 4)
        f = grid.indicator(1, 2)
        assert np.array_equal(f, [0.0, 1.0, 1.0, 0.0, 0.0])


class TestDeltaSeparation:
    def test_spanning_family_separates_measures(self):
        grid = CompactGrid(1.0, 3)
        fam = build_test_family(grid, 4)  # the four hats span the grid functions
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = SignedMeasureVec(grid, rng.normal(size=4))
            b = SignedMeasureVec(grid, a.weights + rng.normal(size=4) * 1e-3)
            assert weak_star_delta(a, b, fam) > 0.0
