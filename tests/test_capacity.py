"""Energies, Cauchy transforms, dual pairings, annihilation certificates."""

import mpmath
import numpy as np
import pytest

from bidisk.capacity import (
    FourierMeasure,
    annihilation_check,
    bergman_norm_sq,
    cauchy_transform,
    custom_measure,
    diagonal_current,
    dual_pairing,
    energy,
    lebesgue,
    point_mass,
)
from bidisk.errors import ArgumentError, CoefficientRangeError
from bidisk.series import TwoVarSeries, constant2, monomial2, shifted_pairings

F_DIAG = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})

# a custom table given on both half-planes, with a consistent conjugate pair
CUSTOM = {(1, 1): 0.5 + 0.1j, (-2, -1): -0.25, (0, 3): 0.125j, (1, 0): 0.5, (-1, 0): 0.5,
          (-3, 2): 0.3 - 0.2j, (2, 0): 0.1}


def closed_form(name):
    """``mu_hat(k, l)`` of a named measure, straight from its definition."""
    if name == "lebesgue":
        return lambda k, l: 1.0 + 0.0j if k == l == 0 else 0.0j
    if name == "diagonal_current":
        return lambda k, l: 1.0 + 0.0j if k == l else 0.0j
    if name == "point_mass":
        return lambda k, l: 1.0 + 0.0j

    def custom(k, l):
        if (k, l) == (0, 0):
            return 1.0 + 0.0j
        if (k, l) in CUSTOM:
            return complex(CUSTOM[(k, l)])
        return complex(CUSTOM.get((-k, -l), 0.0)).conjugate()

    return custom


def build(name, K):
    if name == "custom":
        return custom_measure(CUSTOM, K=K)
    return {"lebesgue": lebesgue, "diagonal_current": diagonal_current,
            "point_mass": point_mass}[name](K)


def dense_reference(name, K):
    """``out[k + K, l + K] = mu_hat(k, l)`` for ``|k|, |l| <= K``, one loop per entry."""
    coeff = closed_form(name)
    out = np.zeros((2 * K + 1, 2 * K + 1), dtype=np.complex128)
    for k in range(-K, K + 1):
        for l in range(-K, K + 1):
            out[k + K, l + K] = coeff(k, l)
    return out


def mpmath_energy(name, K):
    """The four energy groups summed at 50 digits from the closed forms."""
    coeff = closed_form(name)
    with mpmath.workdps(50):
        sq = lambda k, l: abs(mpmath.mpc(coeff(k, l))) ** 2  # noqa: E731
        axis1 = mpmath.fsum(sq(k, 0) / k for k in range(1, K + 1))
        axis2 = mpmath.fsum(sq(0, l) / l for l in range(1, K + 1))
        interior = mpmath.fsum(
            sq(k, l) / (abs(k) * l)
            for k in range(-K, K + 1) if k != 0
            for l in range(1, K + 1)
        ) / 2
        return axis1, axis2, interior, 1 + axis1 + axis2 + interior


def mpmath_diagonal_energy(K):
    """Closed form of the diagonal current's interior group: ``(1/2) sum 1/k^2``."""
    with mpmath.workdps(50):
        interior = mpmath.fsum(mpmath.mpf(1) / (k * k) for k in range(1, K + 1)) / 2
        return mpmath.mpf(0), mpmath.mpf(0), interior, 1 + interior


class TestMeasures:
    def test_normalization(self):
        for mu in (lebesgue(4), diagonal_current(4), point_mass(4)):
            assert mu.mu_hat(0, 0) == 1.0

    def test_hermitian_symmetry_and_bound(self):
        mu = custom_measure({(1, 2): 0.3 + 0.4j, (0, 1): 0.5})
        assert mu.mu_hat(-1, -2) == pytest.approx(0.3 - 0.4j)
        assert mu.mu_hat(0, -1) == pytest.approx(0.5)
        assert mu.K == 2

    def test_rejects_bad_tables(self):
        with pytest.raises(CoefficientRangeError):
            custom_measure({(0, 0): 0.5})
        with pytest.raises(CoefficientRangeError):
            custom_measure({(1, 1): 1.5})
        with pytest.raises(CoefficientRangeError):
            custom_measure({(1, 0): 0.5, (-1, 0): 0.7})

    def test_range_check(self):
        with pytest.raises(CoefficientRangeError):
            lebesgue(3).mu_hat(4, 0)

    @pytest.mark.parametrize("name", ["lebesgue", "diagonal_current", "point_mass", "custom"])
    def test_table_matches_dense_reference(self, name):
        K = 4
        mu, ref = build(name, K), dense_reference(name, K)
        table = np.array([[mu.mu_hat(k, l) for l in range(-K, K + 1)] for k in range(-K, K + 1)])
        assert np.array_equal(table, ref)
        for d1, d2 in ((0, 0), (K, K), (2, K), (K, 1), (3, 0)):
            assert np.array_equal(mu.quadrant(d1, d2), ref[K : K + d1 + 1, K : K + d2 + 1])

    def test_stores_the_upper_half_plane(self):
        for mu in (point_mass(3), custom_measure(CUSTOM)):
            assert np.all((mu.l > 0) | ((mu.l == 0) & (mu.k >= 0)))
        assert point_mass(3).k.size == (7 * 7 + 1) // 2

    @pytest.mark.parametrize(
        "k, l, value, K",
        [
            ([0, 1], [0, 0], [0.5, 0.2], 2),  # mu_hat(0, 0) != 1
            ([1, 2], [0, 0], [0.5, 0.2], 2),  # no origin
            ([0, 1], [0, 1], [1.0, 1.5j], 2),  # modulus > 1
            ([0, 1], [0, 1], [1.0, np.nan], 2),  # not a number
            ([0, 1], [0, 1], [np.nan, 0.5], 2),  # not a number at the origin
            ([0, 3], [0, 1], [1.0, 0.5], 2),  # |k| beyond K
            ([0, 0], [0, 3], [1.0, 0.5], 2),  # l beyond K
            ([0, -1], [0, 0], [1.0, 0.5], 2),  # lower half-plane
            ([0, 0], [0, -1], [1.0, 0.5], 2),  # lower half-plane
            ([-1, 0], [0, 0], [0.5, 1.0], 2),  # lower half-plane, sorted
            ([0, 1, 1], [0, 1, 1], [1.0, 0.5, 0.6], 2),  # one index twice
            ([0, 2, 1], [0, 0, 0], [1.0, 0.5, 0.6], 2),  # not sorted in (l, k)
            ([0.0, 1.0], [0, 0], [1.0, 0.5], 2),  # non-integer indices
            ([0, 1], [0, 0], [1.0], 2),  # lengths differ
            ([0], [0], [1.0], -1),  # negative cutoff
        ],
    )
    def test_direct_construction_validated(self, k, l, value, K):
        with pytest.raises(CoefficientRangeError):
            FourierMeasure(K=K, kind="custom", k=np.array(k), l=np.array(l), value=value)

    def test_direct_construction_accepted(self):
        mu = FourierMeasure(K=3, kind="custom", k=[0, 2, -3, 0], l=[0, 0, 1, 2],
                            value=[1.0, 0.5j, -0.25, 0.75])
        assert mu.mu_hat(-2, 0) == -0.5j
        assert mu.mu_hat(3, -1) == -0.25
        assert mu.mu_hat(1, 1) == 0.0

    def test_table_is_read_only(self):
        mu = custom_measure({(1, 0): 0.5})
        for array in (mu.k, mu.l, mu.value):
            with pytest.raises(ValueError):
                array[0] = 0


class TestEnergy:
    def test_lebesgue_is_one(self):
        for K in (0, 10, 100):
            assert energy(lebesgue(K), K).partial == 1.0

    def test_diagonal_current_value(self):
        report = energy(diagonal_current(1000), 1000)
        assert abs(report.partial - (1 + np.pi**2 / 12)) <= 1e-3
        assert report.axis1 == 0.0 and report.axis2 == 0.0

    def test_point_mass_diverges(self):
        mu = point_mass(100)
        assert energy(mu, 100).partial > energy(mu, 10).partial

    def test_nondecreasing_and_nonnegative(self):
        mu = custom_measure(
            {(1, 1): 0.5 + 0.1j, (2, 1): -0.25, (0, 3): 0.125j, (1, 0): 0.5}, K=8
        )
        prev = 0.0
        for K in range(9):
            rep = energy(mu, K)
            for part in (rep.constant, rep.axis1, rep.axis2, rep.interior):
                assert part >= 0.0
            assert rep.partial >= prev
            prev = rep.partial

    def test_cutoff_range_error(self):
        with pytest.raises(CoefficientRangeError):
            energy(diagonal_current(5), 10)
        with pytest.raises(CoefficientRangeError):
            energy(diagonal_current(5), -1)

    @pytest.mark.parametrize(
        "name, stored, K",
        [("diagonal_current", 1000, 1000), ("point_mass", 30, 30), ("custom", 3, 3),
         ("custom", 3, 2)],
    )
    def test_matches_mpmath_reference(self, name, stored, K):
        rep = energy(build(name, stored), K)
        if name == "diagonal_current":
            reference = mpmath_diagonal_energy(K)
        else:
            reference = mpmath_energy(name, K)
        for got, want in zip((rep.axis1, rep.axis2, rep.interior, rep.partial), reference):
            if want == 0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-15 * want

    def test_diagonal_current_million(self):
        # the neglected tail is (1/2) sum_{k > 10^6} 1/k^2, about 5e-7
        rep = energy(diagonal_current(10**6), 10**6)
        assert abs(rep.partial - (1 + np.pi**2 / 12)) <= 1e-6


class TestCauchyTransform:
    def test_diagonal_current_is_geometric(self):
        C = cauchy_transform(diagonal_current(6), 5, 5)
        assert C == TwoVarSeries(np.eye(6))

    def test_lebesgue_is_constant(self):
        assert cauchy_transform(lebesgue(3), 2, 2) == constant2(1.0).pad(2, 2)

    def test_real_symmetric_gives_real(self):
        mu = custom_measure({(1, 1): 0.5, (2, 0): 0.25, (0, 1): -0.5})
        C = cauchy_transform(mu, 2, 2)
        assert np.max(np.abs(C.coeffs.imag)) == 0.0

    def test_range_error(self):
        for d1, d2 in ((4, 2), (2, -1), (-1, 0)):
            with pytest.raises(CoefficientRangeError):
                cauchy_transform(diagonal_current(3), d1, d2)


class TestBergmanAndPairing:
    def test_constant(self):
        assert bergman_norm_sq(constant2(1.0)) == pytest.approx(1.0)

    def test_basel_partial(self):
        K = 1000
        g = cauchy_transform(diagonal_current(K), K, K)
        assert abs(bergman_norm_sq(g) - np.pi**2 / 6) <= 1e-3

    def test_single_monomial(self):
        assert bergman_norm_sq(monomial2(1, 0)) == pytest.approx(0.5)

    def test_pairing_examples(self):
        geo = TwoVarSeries(np.eye(5))
        assert dual_pairing(F_DIAG, geo) == pytest.approx(0.0)
        assert dual_pairing(constant2(3.0), geo) == pytest.approx(3.0)
        assert dual_pairing(monomial2(1, 0), monomial2(0, 1)) == 0.0

    def test_pairing_bilinear_no_conjugation(self):
        f = TwoVarSeries([[1j]])
        g = TwoVarSeries([[1j]])
        assert dual_pairing(f, g) == pytest.approx(-1.0)


class TestAnnihilation:
    def test_diagonal_identity_exact_zero(self):
        mu = diagonal_current(9)
        assert annihilation_check(F_DIAG, mu, 8) == 0.0

    def test_constant_against_lebesgue(self):
        assert annihilation_check(constant2(1.0), lebesgue(4), 4) == pytest.approx(1.0)

    def test_one_minus_z1_not_annihilated(self):
        f = TwoVarSeries.from_terms({(0, 0): 1, (1, 0): -1})
        assert annihilation_check(f, diagonal_current(5), 4) == pytest.approx(1.0)

    def test_insufficient_range(self):
        with pytest.raises(CoefficientRangeError):
            annihilation_check(F_DIAG, diagonal_current(5), 8)

    @pytest.mark.parametrize("maxdeg", [-1, -5])
    def test_negative_maxdeg(self, maxdeg):
        with pytest.raises(CoefficientRangeError, match="maxdeg must be nonnegative"):
            annihilation_check(F_DIAG, diagonal_current(5), maxdeg)


class TestIntegerArguments:
    """Cutoffs, degrees and indices are taken by ``operator.index``: numpy integers pass, fractions are refused."""

    @pytest.mark.parametrize("build, name", [
        (lambda x: lebesgue(x), "K"),
        (lambda x: diagonal_current(x), "K"),
        (lambda x: point_mass(x), "K"),
        (lambda x: FourierMeasure(K=x, kind="lebesgue", k=[0], l=[0], value=[1.0]), "K"),
        (lambda x: energy(diagonal_current(5), x), "K"),
        (lambda x: diagonal_current(5).mu_hat(x, 1), "k"),
        (lambda x: diagonal_current(5).mu_hat(1, x), "l"),
        (lambda x: diagonal_current(5).quadrant(x, 2), "d1"),
        (lambda x: diagonal_current(5).quadrant(2, x), "d2"),
        (lambda x: cauchy_transform(diagonal_current(5), x, 2), "d1"),
        (lambda x: cauchy_transform(diagonal_current(5), 2, x), "d2"),
        (lambda x: annihilation_check(F_DIAG, diagonal_current(8), x), "maxdeg"),
    ])
    def test_fraction_refused_and_numpy_integer_taken(self, build, name):
        with pytest.raises(ArgumentError, match=rf"^{name}=2\.5 must be an integer$"):
            build(2.5)
        with pytest.raises(ArgumentError, match=rf"^{name}=.*2\.0\)? must be an integer$"):
            build(np.float64(2.0))
        expected, taken = build(2), build(np.int64(2))
        if isinstance(expected, FourierMeasure):
            assert type(taken.K) is int and taken.K == expected.K
            assert all(np.array_equal(getattr(taken, a), getattr(expected, a)) for a in ("k", "l", "value"))
        elif isinstance(expected, (TwoVarSeries, np.ndarray)):  # a transform, or a quadrant grid
            assert getattr(taken, "coeffs", taken).tobytes() == getattr(expected, "coeffs", expected).tobytes()
        else:
            assert taken == expected

    def test_energy_report_carries_an_int_cutoff(self):
        report = energy(diagonal_current(np.int32(5)), np.int64(4))
        assert type(report.K) is int and report == energy(diagonal_current(5), 4)


class TestShiftedPairings:
    """One helper serves the annihilation check and the orthogonality certificate."""

    @staticmethod
    def random_grid(rng, shape):
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid[rng.random(shape) < 0.4] = 0.0  # interior zeros
        return grid

    def test_matches_per_shift_loop(self):
        rng = np.random.default_rng(90)
        coeffs = self.random_grid(rng, (3, 4))
        target = rng.standard_normal((12, 11)) + 1j * rng.standard_normal((12, 11))
        A, C = 9, 7
        brute = [[np.sum(coeffs * target[k : k + 3, l : l + 4]) for l in range(C + 1)] for k in range(A + 1)]
        assert np.allclose(shifted_pairings(coeffs, target, (A, C)), brute, rtol=1e-14, atol=0)

    @staticmethod
    def flat_gather(coeffs, target, shifts):
        """One ``take`` over all shifts per nonzero coefficient, the shifts given as a ``(B, 2)`` array."""
        width = target.shape[1]
        flat = target.reshape(-1)
        at = shifts[:, 0] * width + shifts[:, 1]
        out = np.zeros(len(shifts), dtype=np.complex128)
        for p1, p2 in zip(*np.nonzero(coeffs)):
            out += coeffs[p1, p2] * flat.take(at + (p1 * width + p2))
        return out

    @pytest.mark.parametrize("box", [(0, 0), (6, 0), (0, 5), (4, 3), (9, 7)])
    def test_box_equals_flat_gather_bit_for_bit(self, box):
        rng = np.random.default_rng(93 + 10 * box[0] + box[1])
        A, C = box
        for shape in ((1, 1), (3, 1), (1, 4), (3, 4), (5, 2)):
            coeffs = self.random_grid(rng, shape)
            target = self.random_grid(rng, (A + shape[0] + 2, C + shape[1] + 1))
            shifts = np.array([(a, c) for a in range(A + 1) for c in range(C + 1)])
            out = shifted_pairings(coeffs, target, box)
            assert out.shape == (A + 1, C + 1)
            assert out.reshape(-1).tobytes() == self.flat_gather(coeffs, target, shifts).tobytes()

    @pytest.mark.parametrize("measure", [lebesgue, diagonal_current])
    def test_annihilation_against_per_shift_loop(self, measure):
        rng = np.random.default_rng(91)
        for shape in ((2, 2), (3, 2), (4, 5)):
            f = TwoVarSeries(self.random_grid(rng, shape))
            maxdeg = 7
            mu = measure(maxdeg + max(shape))
            C = cauchy_transform(mu, maxdeg + shape[0] - 1, maxdeg + shape[1] - 1).coeffs
            brute = max(
                abs(np.sum(f.coeffs * C[k : k + shape[0], l : l + shape[1]]))
                for k in range(maxdeg + 1)
                for l in range(maxdeg + 1)
            )
            assert annihilation_check(f, mu, maxdeg) == pytest.approx(brute, rel=1e-13, abs=0)


class TestAnnihilationPin:
    """Pairings away from 0, pinned by ``float.hex``: a change in the last bit shows."""

    PINS = {
        "lebesgue": "0x1.0000000000000p+0",
        "diagonal_current": "0x1.3a92a3a767a57p-1",
        "point_mass": "0x1.2afe8cc67a5d8p-1",
        "custom": "0x1.ba3fb4ef3acabp-1",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pinned(self, name):
        rng = np.random.default_rng(191)
        grid = 0.3 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        grid[rng.random((3, 4)) < 0.3] = 0.0
        grid[0, 0] = 1.0
        table = {(int(k), int(l)): complex(v) for k, l, v in zip(
            rng.integers(-9, 10, 30), rng.integers(1, 10, 30),
            0.5 * (rng.standard_normal(30) + 1j * rng.standard_normal(30)) / 2)}
        mu = {"lebesgue": lebesgue, "diagonal_current": diagonal_current, "point_mass": point_mass,
              "custom": lambda K: custom_measure(table, K)}[name](9)
        assert annihilation_check(TwoVarSeries(grid), mu, 6).hex() == self.PINS[name]


class TestDominationAndConsistency:
    def test_bergman_dominated_by_energy(self):
        # coefficientwise 1/((k+1)(l+1)) <= 2 * energy weights, checked on built-ins
        for mu, K in ((lebesgue(12), 12), (diagonal_current(12), 12), (point_mass(8), 8)):
            g = cauchy_transform(mu, K, K)
            assert bergman_norm_sq(g) <= 2.0 * energy(mu, K).partial + 1e-12

    def test_finite_energy_blocks_decay(self):
        # the same function whose boundary current has finite energy keeps
        # its solver distances bounded away from zero at parameter 1
        from bidisk.approximants import diagonal_reduce_solve
        from bidisk.series import DiagonalPattern

        report = energy(diagonal_current(500), 500)
        assert np.isfinite(report.partial)
        for n in (10, 40, 160):
            res = diagonal_reduce_solve(F_DIAG, 1.0, n, DiagonalPattern(1, 1))
            assert res.residual_sq >= 0.6
