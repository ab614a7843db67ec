"""Optimal solves pinned bit for bit against ``tests/golden/solves.json``.

Each case records ``float.hex`` of ``residual_sq``, ``cond_estimate`` and
``ortho_residual``, the ridge, and a SHA-256 digest of the solved
coefficients.  The cases cover full bases with a real and a complex ``f``,
one-variable bases, the ``(1, 1)`` and ``(2, 3)`` pattern solves, a real
and a complex ``f`` off those patterns, four values of ``alpha`` at several orders,
the ridge retry after a failed factorization, the subnormal entries of
the condition estimate at ``n = 2000``, and two full solves whose bandwidth
is past the block size of LAPACK's blocked ``pbtrf`` (32).

The full scans of the benchmark's two functions are checked here too: they
equal their orders solved one by one, bit for bit, and factor every order in
place in one buffer, which leaves each assembled Gram band unwritten; a
ridge retry factors the band gathered there again plus the ridge; and a
scan peaks at little more than its top band and that buffer.  So do the
benchmark's six reduced scans, whose one-column bands are sliced from their
top order's, and two off-pattern scans of three and six cosets.  What a
solve takes once is checked against what it replaced: ``||f||^2`` once per
assembly gives every gathered or sliced order the default tolerance it takes
assembled alone, as the certificate summed it at each order; the
certificate's state is built once per assembly, never per order; the product
``p f`` formed straight into an array still refuses a non-finite one, and
non-finite coefficients are still refused; the solved coefficients, the
array ``pbtrs`` returned, are read-only and share memory with no band,
factor or other result; and the condition estimator's start and safeguard
vectors, built once per size, stay read-only, complex128, bounded and
unwritten.

Regenerate the file with ``PYTHONPATH=src python tests/test_solve_pin.py``,
only for a change meant to move these values.
"""

import hashlib
import json
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bidisk import approximants, catalog
from bidisk.approximants import BasisSpec, gram_assemble, solve_optimal, solve_orders
from bidisk.errors import ArgumentError, ConditioningError
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries, lift, separable

GOLDEN = Path(__file__).parent / "golden" / "solves.json"

ALPHAS = (-1.0, 0.0, 0.5, 1.0)
ONE_MINUS_Z = OneVarSeries([1, -1])
PRODUCT = separable(ONE_MINUS_Z, ONE_MINUS_Z)
COMPLEX_2D = TwoVarSeries([[1.0, 0.3 - 0.2j, 0.1j],
                           [-0.4 + 0.1j, 0.25, 0.0],
                           [0.05, 0.0, -0.1 + 0.05j]])
COMPLEX_1D = OneVarSeries([1.0, -0.6 + 0.3j, 0.2j, 0.05])
ONE_MINUS_Z1Z2 = TwoVarSeries([[1, 0], [0, -1]])
PAT11, PAT23 = DiagonalPattern(1, 1), DiagonalPattern(2, 3)
ONE_MINUS_POW23 = lift(ONE_MINUS_Z, PAT23)
COMPLEX_PAT23 = lift(OneVarSeries([1.0, 0.5 - 0.25j, -0.125j]), PAT23)
# six cosets of (2, 3), with interior zeros
COMPLEX_OFF23 = TwoVarSeries([[1.0, 0.2j, 0.0, -0.3],
                              [0.1 - 0.05j, 0.0, 0.4, 0.0],
                              [0.0, 0.25j, 0.0, -0.5 + 0.1j]])


def _random_quadratic(rng):
    """``(1 - z/z1)(1 - z/z2)``, zeros of modulus in [1, 1.5], drawn as ``perfbench/workloads.py`` does."""
    roots = rng.uniform(1.0, 1.5, 2) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
    return OneVarSeries([1.0, -(1 / roots[0] + 1 / roots[1]), 1 / (roots[0] * roots[1])])


# the benchmark's seed-1 random product
_RNG = np.random.default_rng(1)
RANDOM_PRODUCT = separable(_random_quadratic(_RNG), _random_quadratic(_RNG))
# the full scans of the benchmark: (f, alpha), over the orders FULL_NS
FULL_SCANS = {"product": (PRODUCT, 0.5), "random-product": (RANDOM_PRODUCT, 0.0)}
FULL_NS = range(4, 37, 4)
# the reduced scans of the benchmark (perfbench/workloads.py): (f, alpha, bases)
_Z1Z2 = catalog.builtin_series("one_minus_z1z2").series
_Z1 = catalog.builtin_series("one_minus_z1").series
_POW23 = catalog.builtin_series("one_minus_pow", M=2, N=3).series
_DIAG_NS, _POW_NS = range(50, 601, 50), range(30, 481, 30)
REDUCED_SCANS = {
    **{f"diag11/1-z1z2/a={a}": (_Z1Z2, a, [BasisSpec.diagonal(n, PAT11) for n in _DIAG_NS])
       for a in (0.0, 0.5, 1.0)},
    **{f"onevar/1-z1/a={a}": (_Z1, a, [BasisSpec.onevar(n) for n in _DIAG_NS]) for a in (0.0, 1.0)},
    "diag23/1-z1^2z2^3/a=0.0": (_POW23, 0.0, [BasisSpec.diagonal(n, PAT23) for n in _POW_NS]),
}
# off-pattern scans at the same reach: six cosets of (2, 3), and three of (1, 1)
OFF_PATTERN_SCANS = {
    **{f"diag23/off-pattern/a={a}": (COMPLEX_OFF23, a, [BasisSpec.diagonal(n, PAT23) for n in _POW_NS])
       for a in (-1.0, 0.5)},
    **{f"diag11/product/a={a}": (PRODUCT, a, [BasisSpec.diagonal(n, PAT11) for n in _DIAG_NS])
       for a in (-1.0, 0.5)},
}


def _cases():
    """``(name, f, alpha, basis)`` of every pinned solve."""
    for a in ALPHAS:
        for n in (0, 3, 8):
            yield f"full/product/a={a}/n={n}", PRODUCT, a, BasisSpec.full(n)
        for n in (2, 6):
            yield f"full/complex/a={a}/n={n}", COMPLEX_2D, a, BasisSpec.full(n)
        for n in (0, 5, 40, 300):
            yield f"onevar/1-z/a={a}/n={n}", ONE_MINUS_Z, a, BasisSpec.onevar(n)
        for n in (7, 60):
            yield f"onevar/complex/a={a}/n={n}", COMPLEX_1D, a, BasisSpec.onevar(n)
        for n in (0, 12, 100):
            yield f"diag11/1-z1z2/a={a}/n={n}", ONE_MINUS_Z1Z2, a, BasisSpec.diagonal(n, PAT11)
        for n in (30, 90):
            yield f"diag23/pow/a={a}/n={n}", ONE_MINUS_POW23, a, BasisSpec.diagonal(n, PAT23)
        yield f"diag23/complex/a={a}/n=45", COMPLEX_PAT23, a, BasisSpec.diagonal(45, PAT23)
        yield f"diag11/off-pattern/a={a}/n=5", PRODUCT, a, BasisSpec.diagonal(5, PAT11)
        yield f"diag23/off-pattern/a={a}/n=30", COMPLEX_OFF23, a, BasisSpec.diagonal(30, PAT23)
    yield "onevar/subnormal/a=0.0/n=2000", OneVarSeries([1, -0.5]), 0.0, BasisSpec.onevar(2000)
    # bandwidths 38 and 76: blocked pbtrf
    yield "full/product/a=0.5/n=36", PRODUCT, 0.5, BasisSpec.full(36)
    yield "full/random-product/a=0.0/n=36", RANDOM_PRODUCT, 0.0, BasisSpec.full(36)


def _record(res) -> dict:
    coeffs = np.ascontiguousarray(res.solved.coeffs)
    return {
        "residual_sq": float.hex(res.residual_sq),
        "cond_estimate": float.hex(res.cond_estimate),
        "ortho_residual": float.hex(res.ortho_residual),
        "ridge": float.hex(res.ridge),
        "coeffs": f"{coeffs.shape}:{hashlib.sha256(coeffs.tobytes()).hexdigest()}",
    }


def _ridge_cases():
    """The cases solved after one failed factorization."""
    yield "ridge/full/product/a=0.0/n=3", PRODUCT, 0.0, BasisSpec.full(3)
    yield "ridge/onevar/1-z/a=0.5/n=20", ONE_MINUS_Z, 0.5, BasisSpec.onevar(20)
    yield "ridge/diag23/pow/a=1.0/n=30", ONE_MINUS_POW23, 1.0, BasisSpec.diagonal(30, PAT23)


def _failing_once(columns=None):
    """A ``_lapack`` whose ``pbtrf`` fails on its first band of ``columns`` columns (of any, for None)."""
    real, calls, failed = approximants._lapack, [], []

    def lapack(name):
        routine = real(name)

        def fail_once(band, **kwargs):
            calls.append(band.shape)
            if not failed and columns in (None, band.shape[1]):
                failed.append(band.shape)
                return band, 1  # LAPACK's report of a band that is not positive definite
            return routine(band, **kwargs)

        return fail_once if name == "pbtrf" else routine

    return lapack, calls


def _solve_after_one_failure(f, alpha, basis):
    real = approximants._lapack
    approximants._lapack, calls = _failing_once()
    try:
        res = solve_optimal(f, alpha, basis)
    finally:
        approximants._lapack = real
    assert len(calls) == 2 and res.ridge > 0.0
    return res


def _records() -> dict:
    out = {name: _record(solve_optimal(f, a, b)) for name, f, a, b in _cases()}
    for name, f, a, b in _ridge_cases():
        out[name] = _record(_solve_after_one_failure(f, a, b))
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(pinned):
    names = [c[0] for c in _cases()] + [c[0] for c in _ridge_cases()]
    assert sorted(pinned) == sorted(names)


def _params(cases):
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, f, alpha, basis", _params(_cases()))
def test_solve_is_bit_identical(pinned, name, f, alpha, basis):
    assert _record(solve_optimal(f, alpha, basis)) == pinned[name]


@pytest.mark.parametrize("name, f, alpha, basis", _params(_ridge_cases()))
def test_ridge_retry_is_bit_identical(pinned, name, f, alpha, basis):
    assert _record(_solve_after_one_failure(f, alpha, basis)) == pinned[name]


def _full_scan(name):
    f, alpha = FULL_SCANS[name]
    return f, alpha, [BasisSpec.full(n) for n in FULL_NS]


@pytest.mark.parametrize("name", FULL_SCANS)
def test_full_scan_is_bit_identical_to_its_orders(name):
    f, alpha, bases = _full_scan(name)
    assert [_record(r) for r in solve_orders(f, alpha, bases)] == [
        _record(solve_optimal(f, alpha, b)) for b in bases]


@pytest.mark.parametrize("name", [*REDUCED_SCANS, *OFF_PATTERN_SCANS])
def test_reduced_scan_is_bit_identical_to_its_orders(name):
    f, alpha, bases = {**REDUCED_SCANS, **OFF_PATTERN_SCANS}[name]
    assert [_record(r) for r in solve_orders(f, alpha, bases)] == [
        _record(solve_optimal(f, alpha, b)) for b in bases]


def test_mixed_bases_are_bit_identical_to_their_orders():
    # bases of mixed kinds are assembled one by one: the largest box comes first, 301 columns
    # of bandwidth 2, and the largest band later, the full order 8 with 81 columns of bandwidth 20
    bases = [BasisSpec.diagonal(300, PAT11), BasisSpec.full(8), BasisSpec.full(2)]
    assert [_record(r) for r in solve_orders(COMPLEX_2D, 0.5, bases)] == [
        _record(solve_optimal(COMPLEX_2D, 0.5, b)) for b in bases]


@pytest.mark.parametrize("name", FULL_SCANS)
def test_ridge_at_the_middle_order_of_a_full_scan(monkeypatch, name):
    f, alpha, bases = _full_scan(name)
    middle = bases[len(bases) // 2]
    columns = (middle.n + 1) ** 2
    monkeypatch.setattr(approximants, "_lapack", _failing_once(columns)[0])
    scanned = list(solve_orders(f, alpha, bases))
    monkeypatch.setattr(approximants, "_lapack", _failing_once(columns)[0])
    direct = solve_optimal(f, alpha, middle)
    assert [r.ridge > 0.0 for r in scanned] == [b is middle for b in bases]
    assert _record(scanned[len(bases) // 2]) == _record(direct)
    monkeypatch.undo()
    assert [_record(r) for r, b in zip(scanned, bases) if b is not middle] == [
        _record(solve_optimal(f, alpha, b)) for b in bases if b is not middle]


@pytest.mark.parametrize("name", [*FULL_SCANS, "alone"])
def test_ridge_retry_factors_the_band_gathered_again_plus_the_ridge(monkeypatch, name):
    """The failed in-place ``pbtrf`` overwrote the buffer; the retry factors ``G`` plus the ridge, byte for byte."""
    if name == "alone":
        f, alpha, bases = PRODUCT, 0.0, [BasisSpec.full(3)]
    else:
        f, alpha, bases = _full_scan(name)
    middle = bases[len(bases) // 2]
    columns = (middle.n + 1) ** 2
    lapack, inputs = _failing_once(columns)[0], []

    def spy(name):
        routine = lapack(name)

        def pbtrf(ab, **kwargs):
            if ab.shape[1] == columns:
                inputs.append(ab.copy())
            factor, info = routine(ab, **kwargs)
            if info > 0:
                ab[...] = np.nan  # as a factorization that stopped part way leaves its buffer
            return factor, info

        return pbtrf if name == "pbtrf" else routine

    monkeypatch.setattr(approximants, "_lapack", spy)
    ridge = list(solve_orders(f, alpha, bases))[len(bases) // 2].ridge
    monkeypatch.undo()
    band = gram_assemble(f, alpha, middle).band
    assert ridge == 1e-12 * float(np.mean(band[-1].real))
    shifted = band.copy()
    shifted[-1] += ridge
    assert [x.tobytes() for x in inputs] == [band.tobytes(), shifted.tobytes()]


@pytest.mark.parametrize("name", FULL_SCANS)
@pytest.mark.parametrize("ridge", [False, True], ids=["factored", "ridge"])
def test_full_scan_factors_in_place_in_one_buffer(monkeypatch, name, ridge):
    """Every ``pbtrf`` call overwrites a column-major view of one buffer, never a Gram band, which stays unwritten."""
    f, alpha, bases = _full_scan(name)
    lapack = _failing_once((bases[1].n + 1) ** 2)[0] if ridge else approximants._lapack
    bands, calls, buffer = [], [], []  # every band stays referenced, so no later array can take its memory

    def assemble(*args):
        gram = gram_assemble(*args)
        bands.append((gram.band, gram.band.copy()))
        return gram

    def spy(name):
        routine = lapack(name)

        def pbtrf(ab, **kwargs):
            if not buffer:
                buffer.append(weakref.ref(ab.base))
            calls.append((ab.base is buffer[0](), ab.ctypes.data, ab.flags.f_contiguous, kwargs,
                          any(np.shares_memory(ab, band) for band, _ in bands)))
            return routine(ab, **kwargs)

        return pbtrf if name == "pbtrf" else routine

    monkeypatch.setattr(approximants, "gram_assemble", assemble)
    monkeypatch.setattr(approximants, "_lapack", spy)
    results = list(solve_orders(f, alpha, bases))
    assert [r.ridge > 0.0 for r in results] == [ridge and b is bases[1] for b in bases]
    assert len(calls) == len(bases) + ridge
    for first_buffer, data, f_contiguous, kwargs, shares_band in calls:
        assert first_buffer and data == calls[0][1] and f_contiguous
        assert kwargs == {"overwrite_ab": 1} and not shares_band
    assert buffer[0]() is None  # freed with the scan
    assert all(np.array_equal(band, copy) for band, copy in bands)


def test_full_solve_peak_memory():
    # the band, the buffer it is factored in, and small change: no second copy of the band,
    # and no |G| scratch of its own for the 1-norm
    b = BasisSpec.full(36)
    band_bytes = gram_assemble(PRODUCT, 0.5, b).band.nbytes
    solve_optimal(PRODUCT, 0.5, BasisSpec.full(4))  # load the LAPACK module first
    tracemalloc.start()
    try:
        solve_optimal(PRODUCT, 0.5, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * band_bytes


@pytest.mark.parametrize("ns", [range(4, 37, 4), range(4, 100, 19)], ids=["n=4..36", "n=4..99"])
def test_full_scan_peak_memory(ns):
    # the top band and the factor buffer each order is gathered into, and small change: no
    # gather scratch, and |G| only over the rows the offsets fill
    bases = [BasisSpec.full(n) for n in ns]
    band_bytes = gram_assemble(PRODUCT, 0.5, bases[-1]).band.nbytes
    solve_optimal(PRODUCT, 0.5, BasisSpec.full(4))  # load the LAPACK module first
    tracemalloc.start()
    try:
        for _ in solve_orders(PRODUCT, 0.5, bases):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * band_bytes


# The systems whose default tolerance is checked: the full, one-variable, two pattern and
# six-coset off-pattern (2, 3) ones, over several orders below a top order
TOLERANCE_SCANS = {
    "full": (COMPLEX_2D, [BasisSpec.full(n) for n in (0, 2, 5, 9)]),
    "onevar": (COMPLEX_1D, [BasisSpec.onevar(n) for n in (0, 3, 17, 60)]),
    "diag:1,1": (ONE_MINUS_Z1Z2, [BasisSpec.diagonal(n, PAT11) for n in (0, 4, 30, 100)]),
    "diag:2,3": (COMPLEX_PAT23, [BasisSpec.diagonal(n, PAT23) for n in (0, 5, 24, 45)]),
    "diag:2,3/off-pattern": (COMPLEX_OFF23, [BasisSpec.diagonal(n, PAT23) for n in (0, 6, 15, 30)]),
}


def _tolerances(monkeypatch, solves):
    """The tolerance each ``_certify`` call applies while ``solves()`` runs."""
    real, tols = approximants._certify, []

    def certify(*args, **kwargs):
        tols.append(float.hex(kwargs["ortho_tol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(approximants, "_certify", certify)
    solves()
    monkeypatch.undo()
    return tols


def _certificate_tolerance(f, alpha, b):
    """``1e-8 ||f||^2`` as the certificate summed it at each order: each term's squared norm under the
    weight row as long as the longer side of ``p F``, in term order."""
    gram = gram_assemble(f, alpha, b)
    lat = gram.lattice
    f_sq = 0.0
    for F, w in gram.terms:
        grid = approximants._grid(F)
        product_shape = (lat.A + grid.shape[0], lat.C + grid.shape[1])  # the shape of p F
        f_sq += approximants._norm_sq(grid, w.weights(max(product_shape) - 1))
    return float.hex(1e-8 * f_sq)


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0])
@pytest.mark.parametrize("name", TOLERANCE_SCANS)
def test_default_tolerance_of_a_gathered_order_is_that_of_the_order_alone(monkeypatch, name, alpha):
    f, bases = TOLERANCE_SCANS[name]
    scanned = _tolerances(monkeypatch, lambda: list(solve_orders(f, alpha, bases)))
    alone = _tolerances(monkeypatch, lambda: [solve_optimal(f, alpha, b) for b in bases])
    assert scanned == alone == [_certificate_tolerance(f, alpha, b) for b in bases]
    top = gram_assemble(f, alpha, bases[-1])
    buf = np.empty(top.band.size, dtype=np.complex128)
    for b in bases:  # each order's system, gathered or sliced from the top, carries the top's ||f||^2
        gathered = approximants._gather(top, b.lattice(), buf)
        assert float.hex(gathered.f_norm_sq) == float.hex(gram_assemble(f, alpha, b).f_norm_sq)


def _overflowing_coefficients(monkeypatch):
    """Route ``pbtrs`` so that its first solve, of the coefficients, returns finite ones whose product with ``f`` overflows."""
    real = approximants._lapack

    def lapack(name):
        routine = real(name)
        if name != "pbtrs":
            return routine
        first = []

        def pbtrs(factor, x):
            y, info = routine(factor, x)
            if not first:
                first.append(True)
                y = np.full(len(x), 1e308, dtype=np.complex128)
                y[1::2] *= -1.0  # adjacent coefficients of opposite sign: their sums in p f overflow
            return y, info

        return pbtrs

    monkeypatch.setattr(approximants, "_lapack", lapack)


@pytest.mark.parametrize("f, basis", [
    pytest.param(ONE_MINUS_Z, BasisSpec.onevar(6), id="onevar"),
    pytest.param(PRODUCT, BasisSpec.full(2), id="full"),
    pytest.param(ONE_MINUS_Z1Z2, BasisSpec.diagonal(6, PAT11), id="diag:1,1"),
    pytest.param(TwoVarSeries([[1.0], [-1.0]]), BasisSpec.onevar(6), id="onevar/two-variable-f"),
])
def test_a_product_that_overflows_is_refused(monkeypatch, f, basis):
    _overflowing_coefficients(monkeypatch)
    with np.errstate(over="ignore"), pytest.raises(ArgumentError) as info:  # a box's shift-add warns
        solve_optimal(f, 0.5, basis)
    assert str(info.value) == "coefficients must be finite (no NaN/Inf)"


@pytest.mark.parametrize("f, basis", [
    pytest.param(OneVarSeries([1.0, -0.5]), BasisSpec.onevar(6), id="onevar"),
    pytest.param(COMPLEX_OFF23, BasisSpec.diagonal(30, PAT23), id="diag:2,3/off-pattern"),
])
def test_a_weighted_residual_that_overflows_is_refused(monkeypatch, f, basis):
    # p f is finite here, but its weighted entries overflow: the certificate is inf or NaN, and
    # either is refused (a NaN one used to pass, with residual_sq inf)
    _overflowing_coefficients(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConditioningError) as info:
        solve_optimal(f, 0.5, basis)
    assert (info.value.n, info.value.stage) == (basis.n, "certify")
    assert re.match(r"orthogonality certificate (inf|nan) exceeds tolerance", str(info.value))


@pytest.mark.parametrize("name", ["diag23/off-pattern/a=0.5", "diag11/product/a=-1.0"])
def test_certificate_state_is_built_once_per_assembly(monkeypatch, name):
    f, alpha, bases = OFF_PATTERN_SCANS[name]
    real_assemble, real_build, assembled, built = approximants.gram_assemble, approximants._cert_terms, [], []

    def assemble(*args):
        assembled.append(args)
        return real_assemble(*args)

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(approximants, "gram_assemble", assemble)
    monkeypatch.setattr(approximants, "_cert_terms", build)
    certified = []
    real_certify = approximants._certify

    def certify(p, certificate, *args, **kwargs):
        certified.append(certificate)
        return real_certify(p, certificate, *args, **kwargs)

    monkeypatch.setattr(approximants, "_certify", certify)
    list(solve_orders(f, alpha, bases))
    assert len(assembled) == len(built) == 1 and len(certified) == len(bases)
    assert all(certificate is built[0] for certificate in certified)  # every order reads the top's
    solve_optimal(f, alpha, bases[0])
    assert len(assembled) == len(built) == 2 and certified[-1] is built[1]
    # one state per coset term: its support in row-major order, conjugated, and one weight row
    gram = real_assemble(f, alpha, bases[-1])
    for (F, w), term in zip(gram.terms, gram.certificate):
        grid = approximants._grid(F)
        assert term.support == tuple(zip(*(ix.tolist() for ix in np.nonzero(grid))))
        assert [c.tobytes() for c in term.conj] == [np.conj(grid[p]).tobytes() for p in term.support]
        lat = gram.lattice
        assert term.weights.tobytes() == w.weights(max(lat.A + grid.shape[0], lat.C + grid.shape[1]) - 1).tobytes()


@pytest.mark.parametrize("f, alpha, bases", [
    pytest.param(*REDUCED_SCANS["diag11/1-z1z2/a=0.5"], id="diag:1,1"),
    pytest.param(*OFF_PATTERN_SCANS["diag23/off-pattern/a=0.5"], id="diag:2,3/off-pattern"),
    pytest.param(*_full_scan("product"), id="full"),
])
def test_solved_coefficients_are_pbtrs_output_and_read_only(monkeypatch, f, alpha, bases):
    arrays, solved = [], []  # every band, factor buffer and factor of the scan; every pbtrs output

    def assemble(*args):
        gram = gram_assemble(*args)
        arrays.append(gram.band)
        return gram

    real = approximants._lapack

    def lapack(name):
        routine = real(name)

        def pbtrf(ab, **kwargs):
            factor, info = routine(ab, **kwargs)
            arrays.extend([ab, factor])
            return factor, info

        def pbtrs(factor, x):
            y, info = routine(factor, x)
            solved.append(y)
            return y, info

        return pbtrf if name == "pbtrf" else pbtrs

    monkeypatch.setattr(approximants, "gram_assemble", assemble)
    monkeypatch.setattr(approximants, "_lapack", lapack)
    coeffs = [r.solved.coeffs for r in solve_orders(f, alpha, bases)]
    for i, c in enumerate(coeffs):
        assert c.dtype == np.complex128 and not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * c.ndim] = 0.0
        assert sum(np.shares_memory(c, y) for y in solved) == 1  # pbtrs's own array, not a copy
        assert not any(np.shares_memory(c, other) for other in coeffs[i + 1:])
        assert not any(np.shares_memory(c, a) for a in arrays)


@pytest.mark.parametrize("f, basis", [
    pytest.param(ONE_MINUS_Z, BasisSpec.onevar(6), id="onevar"),
    pytest.param(PRODUCT, BasisSpec.full(2), id="full"),
    pytest.param(ONE_MINUS_Z1Z2, BasisSpec.diagonal(6, PAT11), id="diag:1,1"),
    pytest.param(COMPLEX_OFF23, BasisSpec.diagonal(30, PAT23), id="diag:2,3/off-pattern"),
])
def test_non_finite_coefficients_are_refused(monkeypatch, f, basis):
    real = approximants._lapack

    def lapack(name):
        routine = real(name)
        if name != "pbtrs":
            return routine
        first = []

        def pbtrs(factor, x):
            y, info = routine(factor, x)
            if not first:  # the coefficients: a NaN among them
                first.append(True)
                y[len(y) // 2] = np.nan
            return y, info

        return pbtrs

    certified = []
    monkeypatch.setattr(approximants, "_lapack", lapack)
    monkeypatch.setattr(approximants, "_certify", lambda *args, **kwargs: certified.append(args))
    with pytest.raises(ArgumentError) as info:
        solve_optimal(f, 0.5, basis)
    assert str(info.value) == "coefficients must be finite (no NaN/Inf)"
    assert not certified  # refused as the series is built, before the certificate


def test_estimator_vectors_are_read_only_bounded_and_unwritten():
    vectors = approximants._estimator_vectors
    start, alternating = vectors(7)
    assert vectors(7)[0] is start  # built once per size
    for v in (start, alternating):
        assert v.dtype == np.complex128 and not v.flags.writeable and v.shape == (7,)
    assert np.array_equal(start, np.full(7, 1.0 / 7))
    safeguard = 1.0 + np.arange(7) / 6.0
    safeguard[1::2] *= -1.0
    assert np.array_equal(alternating, safeguard)
    assert vectors(1)[0].tolist() == [1.0]
    cached = vectors(61)
    before = [v.tobytes() for v in cached]
    solve_optimal(ONE_MINUS_Z, 0.5, BasisSpec.onevar(60))  # each solve reads the cached pair
    solve_optimal(ONE_MINUS_Z1Z2, 1.0, BasisSpec.diagonal(60, PAT11))
    assert vectors(61) is cached and [v.tobytes() for v in cached] == before
    assert vectors.cache_info().maxsize == 32
    for size in range(1, 100):
        vectors(size)
    assert vectors.cache_info().currsize == 32


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_records(), indent=1, sort_keys=True) + "\n")
