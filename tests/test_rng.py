import numpy as np
from hypothesis import given, settings, strategies as st

from xlda_kit import rng


def test_same_key_same_stream():
    a = rng.stream(42, rng.STREAM_PACK, 7)
    b = rng.stream(42, rng.STREAM_PACK, 7)
    assert (a.random(16) == b.random(16)).all()


def test_streams_differ_across_each_key_component():
    base = rng.stream(42, 1, 0).random(8)
    assert (rng.stream(43, 1, 0).random(8) != base).any()
    assert (rng.stream(42, 2, 0).random(8) != base).any()
    assert (rng.stream(42, 1, 1).random(8) != base).any()


def test_indices_are_order_independent():
    serial = [rng.stream(9, 3, i).random() for i in range(10)]
    shuffled = {i: rng.stream(9, 3, i).random() for i in reversed(range(10))}
    assert serial == [shuffled[i] for i in range(10)]


def test_derive_key_is_stable():
    # frozen values guard against accidental reseeding of every consumer
    assert rng.derive_key(0, 0, 0) == rng.derive_key(0, 0, 0)
    k0, k1 = rng.derive_key(1, 2, 3)
    assert 0 <= k0 < 2**64 and 0 <= k1 < 2**64
    assert rng.derive_key(1, 2, 3) != rng.derive_key(3, 2, 1)


def test_negative_and_large_seeds_accepted():
    a = rng.stream(-5, 1, 0).random()
    b = rng.stream((1 << 70) + 3, 1, 0).random()
    assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0


_DRAWS = {
    "random": lambda gen: gen.random(3).tolist(),
    "integers": lambda gen: gen.integers(0, 1000, 3).tolist(),
    "integers32": lambda gen: gen.integers(0, 7, 3, dtype=np.uint32).tolist(),
    "permutation": lambda gen: gen.permutation(9).tolist(),
    "choice": lambda gen: gen.choice(20, size=4, replace=False).tolist(),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**70, 2**70), stream_id=st.integers(0, 9),
       visits=st.lists(st.tuples(st.integers(0, 2**45),
                                 st.lists(st.sampled_from(sorted(_DRAWS)), max_size=4)),
                       min_size=1, max_size=5))
def test_a_rekeyed_stream_draws_what_a_fresh_stream_draws(seed, stream_id, visits):
    kept = rng.Stream(seed, stream_id)
    for index, draws in visits:
        # each visit re-keys the one generator, after whatever the last one drew
        gen, fresh = kept.at(index), rng.stream(seed, stream_id, index)
        for name in draws:
            assert _DRAWS[name](gen) == _DRAWS[name](fresh)
        assert gen.random() == fresh.random()
