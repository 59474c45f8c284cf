import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimpute import rng as rng_module
from semimpute.rng import SplitMix64, choose_without_replacement, derive_seed, mix64

MASK64 = (1 << 64) - 1


def _reference_next(state):
    """Straight transcription of the published SplitMix64 update."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def test_matches_reference_stream():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        rng = SplitMix64(seed)
        state = seed
        for _ in range(20):
            state, expected = _reference_next(state)
            assert rng.next_u64() == expected


def test_known_first_output_for_seed_zero():
    # mix of golden-ratio increment: first output of the seed-0 stream.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_next_float_in_unit_interval():
    rng = SplitMix64(7)
    xs = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    # 53-bit resolution: values are multiples of 2^-53.
    assert all(x * (1 << 53) == int(x * (1 << 53)) for x in xs)


def test_uniform_bounds():
    rng = SplitMix64(9)
    xs = [rng.uniform(-0.5, 0.5) for _ in range(1000)]
    assert all(-0.5 <= x < 0.5 for x in xs)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_next_below_is_in_range(bound, seed):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.next_below(bound) < bound


def test_next_below_is_unbiased_for_tiny_bound():
    rng = SplitMix64(123)
    counts = np.bincount([rng.next_below(3) for _ in range(30000)], minlength=3)
    assert counts.min() > 9000  # ~10000 each, generous slack


def test_derive_seed_is_deterministic_and_separates_streams():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    seen = {derive_seed(42, s) for s in range(100)}
    assert len(seen) == 100
    assert derive_seed(42, 0) == mix64(42 ^ mix64(1))


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_choose_without_replacement_properties(n, seed):
    k = min(n, 7)
    chosen = choose_without_replacement(n, k, seed)
    assert len(chosen) == k
    assert len(set(chosen)) == k
    assert chosen == sorted(chosen)
    assert all(0 <= c < n for c in chosen)


def test_choose_without_replacement_rejects_bad_k():
    with pytest.raises(ValueError):
        choose_without_replacement(3, 4, 0)


def _choose_loop(n, k, seed):
    """The partial Fisher-Yates loop over one sequential stream, as an oracle."""
    rng = SplitMix64(seed)
    pool = list(range(n))
    for i in range(k):
        j = i + rng.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


@given(st.data(), st.integers(0, 3000), st.integers(0, MASK64))
@settings(max_examples=200, deadline=None)
def test_choose_without_replacement_matches_loop_oracle(data, n, seed):
    k = data.draw(st.integers(0, n))
    assert choose_without_replacement(n, k, seed) == _choose_loop(n, k, seed)


def test_rejected_draw_falls_back_to_the_sequential_stream(monkeypatch):
    # An all-ones word is rejected by next_below(m) unless m is a power of
    # two; 7, 6 and 5 are not, so every step would be redrawn.
    monkeypatch.setattr(
        rng_module, "_words", lambda seed, count: np.full(count, MASK64, dtype=np.uint64)
    )
    for seed in range(20):
        assert choose_without_replacement(7, 3, seed) == _choose_loop(7, 3, seed)
