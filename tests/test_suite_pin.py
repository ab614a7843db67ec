"""Randomized suites pinned bit for bit against ``tests/golden/suite_margins.json``.

For each suite, seed in ``SEEDS`` and trial count in ``TRIALS`` the file
records a SHA-256 digest of the bytes of every block's margins and slacks,
in block order, and ``float.hex`` of the worst margin ``run_suite`` reports.
The trial counts cover one trial, one full block, a full block and one more
trial, and several blocks with a partial last one.

The suites' one-call complex draw is checked against the two calls it
replaced: the same arrays, and the generator left in the same state; and a
block of draws against the per-trial arrays, zero-padded and stacked.  The
suites' stream (``suites._Stream``) is checked against ``Generator.integers``
and ``Generator.uniform`` draw for draw, and every suite is run on a
generator that has neither.

Regenerate the file with ``PYTHONPATH=src python tests/test_suite_pin.py``,
only for a change meant to move these values.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bidisk import suites
from bidisk.errors import ArgumentError
from bidisk.suites import BLOCK, available_suites, run_suite
from oracles import random_one_var, random_two_var

GOLDEN = Path(__file__).parent / "golden" / "suite_margins.json"

SEEDS = (7, 11, 2024)
TRIALS = (1, 64, 65, 500)


def _record(name, seed, trials):
    digest = hashlib.sha256()
    for margin, slack in suites._MARGINS[name](trials, seed):
        digest.update(margin.tobytes())
        digest.update(slack.tobytes())
    worst = run_suite(name, trials=trials, seed=seed).worst
    return {"margins_sha256": digest.hexdigest(), "worst": float.hex(worst)}


def _records():
    return {name: {f"seed={seed}/trials={trials}": _record(name, seed, trials)
                   for seed in SEEDS for trials in TRIALS}
            for name in available_suites()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_lists_every_suite(golden):
    assert sorted(golden) == sorted(available_suites())


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", available_suites())
def test_margins_are_pinned(golden, name, seed, trials):
    assert _record(name, seed, trials) == golden[name][f"seed={seed}/trials={trials}"]


@pytest.mark.parametrize("shape", [(1,), (13,), (1, 1), (11, 11)])
def test_one_call_draw_is_the_two_calls(shape):
    one, two = np.random.default_rng(5), np.random.default_rng(5)
    parts = one.standard_normal((2,) + shape)
    re, im = two.standard_normal(shape), two.standard_normal(shape)
    assert parts[0].tobytes() == re.tobytes() and parts[1].tobytes() == im.tobytes()
    assert one.bit_generator.state == two.bit_generator.state
    # written into a block's real/imaginary view, it reads back as the complex the calls built
    draws = suites._Draws(len(shape), max(shape) - 1)
    at = tuple(map(slice, shape))
    draws.parts[(slice(None), 1) + at] = parts
    assert draws.block[(1,) + at].tobytes() == (re + 1j * im).tobytes()
    assert np.count_nonzero(draws.block) == np.count_nonzero(re + 1j * im)


def _padded(arrays):
    """The per-trial arrays zero-padded to their largest shape and stacked, one at a time."""
    shape = tuple(max(n) for n in zip(*(x.shape for x in arrays)))
    out = np.zeros((len(arrays),) + shape, dtype=np.complex128)
    for i, x in enumerate(arrays):
        out[(i,) + tuple(map(slice, x.shape))] = x
    return out


@pytest.mark.parametrize("ndim, max_deg", [(1, 6), (1, 12), (2, 8), (2, 10)])
def test_block_holds_the_per_trial_draws(ndim, max_deg):
    one, two = suites._Stream(3), np.random.default_rng(3)
    draws = suites._Draws(ndim, max_deg)
    # a full block, then a partial one that must not see the first's entries
    for size in (BLOCK, 3):
        draws.clear()
        want = []
        for _ in range(size):
            draws.draw(one)
            series = random_one_var(two, max_deg) if ndim == 1 else random_two_var(two, max_deg)
            want.append(series.coeffs)
        _assert_same_next_draws(one, two)
        for x, shape in zip(want, draws.shapes):
            assert shape == x.shape
        assert draws.stack().tobytes() == _padded(want).tobytes()
        idx = [2, 0]
        assert draws.stack(idx).tobytes() == _padded([want[i] for i in idx]).tobytes()


def _assert_same_next_draws(stream, rng):
    """The stream and the generator are at the same point: their next draws of each kind agree."""
    assert stream.integers(0, 3 * 2**30) == rng.integers(0, 3 * 2**30)
    assert stream.uniform(-1.0, 1.0) == rng.uniform(-1.0, 1.0)
    assert stream.standard_normal(3).tobytes() == rng.standard_normal(3).tobytes()
    assert stream.integers(0, 7) == rng.integers(0, 7)


# The suites' integer ranges and uniform bounds, a range that often takes Lemire's
# rejection loop, and the largest and smallest ranges the stream accepts.
RANGES = [(0, 7), (0, 9), (0, 11), (0, 13), (0, 5), (1, 4), (0, 2), (0, 1),
          (0, 3 * 2**30), (0, 2**32 - 1), (-5, 2**31)]
BOUNDS = [(-2.0, 2.0), (-1.5, 1.5), (0.0, 0.9), (0.0, 2.0 * np.pi)]


class TestStream:
    @pytest.mark.parametrize("seed", [0, 7, 11, 2024, 2**70 + 3])
    def test_draws_are_the_generators(self, seed):
        stream, rng = suites._Stream(seed), np.random.default_rng(seed)
        kinds = np.random.default_rng(seed + 1).integers(0, 4, size=12_000)
        for t, kind in enumerate(kinds.tolist()):
            if kind == 0:
                low, high = RANGES[t % len(RANGES)]
                x = stream.integers(low, high)
                assert type(x) is int and x == rng.integers(low, high), (t, low, high)
            elif kind == 1:
                low, high = BOUNDS[t % len(BOUNDS)]
                x = stream.uniform(low, high)
                assert type(x) is float and x == rng.uniform(low, high), t
            elif kind == 2:
                shape = (2, t % 3 + 1)
                assert stream.standard_normal(shape).tobytes() == rng.standard_normal(shape).tobytes()
            else:
                # a draw of the bit generator's own that the stream does not make: random() is uniform(0, 1)
                assert stream.uniform(0.0, 1.0) == rng.random()
        _assert_same_next_draws(stream, rng)

    def test_rejection_loop_is_taken(self):
        # 2**32 % (3 * 2**30) = 2**30: a quarter of the 32-bit draws are rejected
        stream, rng = suites._Stream(5), np.random.default_rng(5)
        words = []
        stream._raw = lambda raw=stream._raw: words.append(1) or raw()
        for _ in range(1000):
            assert stream.integers(0, 3 * 2**30) == rng.integers(0, 3 * 2**30)
        # 1000 draws take 500 words with no rejection, about 667 with a quarter rejected
        assert len(words) > 600

    @pytest.mark.parametrize("low, high", [(0, 2**32), (0, 2**33), (-1, 2**32 - 1), (3, 3), (4, 3)])
    def test_range_outside_one_to_2_32_minus_1_refused(self, low, high):
        with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
            suites._Stream(7).integers(low, high)

    @pytest.mark.parametrize("name", available_suites())
    def test_no_suite_calls_the_generators_integers_or_uniform(self, monkeypatch, golden, name):
        class Bare:
            """A generator that offers a suite only what its stream may use."""

            def __init__(self, rng):
                self.bit_generator, self.random, self.standard_normal = (
                    rng.bit_generator, rng.random, rng.standard_normal)

            def __getattr__(self, attr):
                raise AssertionError(f"the suite called Generator.{attr}")

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Bare(real(seed)))
        assert _record(name, 7, 65) == golden[name]["seed=7/trials=65"]


class TestRunSuiteArguments:
    @pytest.mark.parametrize("trials", [2.5, 3.0, "3", None])
    def test_non_integral_trials_refused(self, trials):
        with pytest.raises(ArgumentError, match=r"\btrials\b"):
            run_suite("slice", trials=trials, seed=7)

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", None])
    def test_non_integral_seed_refused(self, seed):
        with pytest.raises(ArgumentError, match=r"\bseed\b"):
            run_suite("slice", trials=2, seed=seed)

    def test_numpy_integers_are_python_ints(self):
        result = run_suite("slice", trials=np.int64(3), seed=np.uint8(7))
        assert type(result.trials) is int
        assert result == run_suite("slice", trials=3, seed=7)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_records(), indent=1, sort_keys=True) + "\n")
