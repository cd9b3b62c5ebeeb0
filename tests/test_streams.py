"""Counter-based stream derivation: determinism, independence, path safety."""
from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lgmbench.streams import CounterStream, derive_key, stream, substream_seed


def test_same_key_same_draws():
    a = stream(7, "dataset", 3).standard_normal(100)
    b = stream(7, "dataset", 3).standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_different_paths_differ():
    a = stream(7, "dataset", 3).standard_normal(8)
    b = stream(7, "dataset", 4).standard_normal(8)
    c = stream(8, "dataset", 3).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_concatenation_cannot_collide():
    # Length prefixing must distinguish ("ab", "c") from ("a", "bc")
    # and ("abc",); a naive join would alias all three.
    keys = {
        derive_key(0, "ab", "c").tobytes(),
        derive_key(0, "a", "bc").tobytes(),
        derive_key(0, "abc").tobytes(),
    }
    assert len(keys) == 3


def test_int_and_str_components_distinct():
    assert derive_key(0, 1).tobytes() != derive_key(0, "1").tobytes()


@given(st.integers(-(2**62), 2**62), st.integers(0, 2**31))
def test_substream_seed_is_valid_and_deterministic(seed, idx):
    s1 = substream_seed(seed, "chain", idx)
    s2 = substream_seed(seed, "chain", idx)
    assert s1 == s2
    assert 0 <= s1 < 2**63


def test_counter_stream_blocks_are_reproducible_and_distinct():
    cs = CounterStream(5, "mcmc", "beta")
    x0 = cs.at(0).standard_normal(4)
    x0_again = CounterStream(5, "mcmc", "beta").at(0).standard_normal(4)
    x1 = cs.at(1).standard_normal(4)
    np.testing.assert_array_equal(x0, x0_again)
    assert not np.array_equal(x0, x1)


def test_counter_stream_random_access_ignores_call_order():
    cs = CounterStream(11, "mcmc", "iid")
    forward = [cs.at(i).uniform() for i in range(5)]
    backward = [cs.at(i).uniform() for i in reversed(range(5))]
    assert forward == backward[::-1]


def _mixed_draws(g: np.random.Generator) -> list:
    # 32-bit integer draws use the half-word cache and random() the
    # 64-bit buffer, so a stale bit-generator state would show here.
    return [
        g.standard_normal(3),
        g.random(),
        g.integers(0, 2**31, 3, dtype=np.uint32),
        g.random(5),
        g.integers(0, 10, 1, dtype=np.uint32),
        g.standard_normal(),
        g.uniform(-1.0, 2.0, 2),
    ]


def test_counter_stream_matches_a_freshly_built_philox():
    cs = CounterStream(13, "mcmc", "icar")
    key = derive_key(13, "mcmc", "icar")
    for counter in (5, 0, 1, 5, 2**31 + 7, 2**40, 3, 2**63 - 1):
        got = _mixed_draws(cs.at(counter))
        fresh = np.random.Generator(np.random.Philox(counter=[0, 0, 0, counter], key=key))
        want = _mixed_draws(fresh)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_counter_stream_generator_is_valid_until_the_next_at():
    # at() rewinds and returns the stream's one Generator: a returned
    # generator must be used up before the next at() on the same stream.
    # Other streams do not disturb it.
    cs = CounterStream(17, "mcmc", "beta")
    other = CounterStream(17, "mcmc", "shift")
    g = cs.at(4)
    first = g.standard_normal(2)
    other.at(9).standard_normal(8)
    rest = g.standard_normal(2)
    again = CounterStream(17, "mcmc", "beta")
    np.testing.assert_array_equal(np.concatenate([first, rest]), again.at(4).standard_normal(4))
    assert cs.at(5) is g
    np.testing.assert_array_equal(g.standard_normal(2), again.at(5).standard_normal(2))


def test_stream_quality_moments():
    # 1e5 standard normals from a derived stream should look standard.
    x = stream(123, "quality").standard_normal(100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02
