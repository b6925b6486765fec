import numpy as np
import pytest

from klslab.rng import RngStream, as_generator, as_stream


def test_same_stream_reproduces():
    a = RngStream(42).generator().standard_normal(16)
    b = RngStream(42).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(1).generator().standard_normal(16)
    b = RngStream(2).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_substreams_disjoint_and_stable():
    parent = RngStream(7)
    kids = [parent.substream(i) for i in range(4)]
    draws = [k.generator().standard_normal(8) for k in kids]
    for i in range(4):
        again = parent.substream(i).generator().standard_normal(8)
        assert np.array_equal(draws[i], again)
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_substreams_nest_without_collision():
    parent = RngStream(7)
    # child 0's children differ from the parent's other children
    nested = parent.substream(0).substream(1)
    flat = parent.substream(1)
    a = nested.generator().standard_normal(8)
    b = flat.generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_substream_index_bounds():
    with pytest.raises(ValueError):
        RngStream(0).substream(-1)
    with pytest.raises(ValueError):
        RngStream(0).substream(1 << 16)


def test_as_generator_accepts_stream_generator_int():
    g1 = as_generator(RngStream(5))
    g2 = as_generator(5)
    assert np.array_equal(g1.standard_normal(4), g2.standard_normal(4))
    gen = np.random.default_rng(0)
    assert as_generator(gen) is gen
    # None means seed 0, the same rule as as_stream
    assert np.array_equal(as_generator(None).standard_normal(4),
                          RngStream(0).generator().standard_normal(4))
    with pytest.raises(TypeError):
        as_generator(1.5)


def test_as_stream_accepts_stream_int_none():
    stream = RngStream(5, 3)
    assert as_stream(stream) is stream
    assert as_stream(5) == RngStream(5)
    assert as_stream(np.int64(5)) == RngStream(5)
    assert as_stream(None) == RngStream(0)


def test_as_stream_rejects_generator():
    with pytest.raises(ValueError, match="substream"):
        as_stream(RngStream(0).generator())
