"""Property tests for the two binary readers, `data.read_features` and
`checkpoint.load_model`: truncated, bit-flipped and re-dimensioned files
fail with a `FormatError` subclass and never with another exception."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import binio, checkpoint, data, model

# Derandomized and without an example database, so every run tries the
# same cases.
FUZZ = settings(max_examples=150, deadline=None, database=None,
                derandomize=True)

# Offset of the four u32 header dimensions, after the magic and version.
DIMS_AT = 6
# Each header dimension is kept (None), zeroed or made huge.
HEADER_DIM = st.one_of(st.none(), st.just(0),
                       st.integers(1 << 16, binio.U32_MAX))


def _write_valid(reader, path):
    """A small well-formed file: T=3, d_a=2, d_v=3, C=2 features, or a
    checkpoint with d_a=1, d_v=2, h=2, C=1."""
    rng = np.random.default_rng(0)
    if reader is data.read_features:
        data.write_features(data.FeatureSequence(
            "v", rng.standard_normal((3, 2)).astype(np.float32),
            rng.standard_normal((3, 3)).astype(np.float32),
            np.array([0, 2, 1]), 2), path)
    else:
        checkpoint.save_model(model.init_model_params(1, 2, 2, 1, rng), path)


@pytest.fixture(scope="module", params=[data.read_features, checkpoint.load_model],
                ids=["read_features", "load_model"])
def case(request, tmp_path_factory):
    """(the reader's valid file as bytes, a function that reads given bytes)."""
    reader = request.param
    path = tmp_path_factory.mktemp("reader") / "case"
    _write_valid(reader, path)
    valid = path.read_bytes()

    def read(blob: bytes):
        path.write_bytes(blob)
        return reader(path)

    return valid, read


def test_every_truncation_is_a_format_error(case):
    valid, read = case
    read(valid)
    for length in range(len(valid)):
        with pytest.raises(binio.FormatError):
            read(valid[:length])


@FUZZ
@given(draw=st.data())
def test_bit_flips_raise_only_format_errors(case, draw):
    valid, read = case
    blob = bytearray(valid)
    bits = draw.draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                              min_size=1, max_size=3, unique=True))
    for bit in bits:
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        read(bytes(blob))
    except binio.FormatError:
        pass


@FUZZ
@given(dims=st.tuples(HEADER_DIM, HEADER_DIM, HEADER_DIM, HEADER_DIM))
def test_zero_or_huge_header_dimensions_raise_only_format_errors(case, dims):
    """Also bounds the memory a read takes: a header cannot make the reader
    allocate what it declares before the file's size is checked."""
    valid, read = case
    kept = struct.unpack_from("<4I", valid, DIMS_AT)
    header = struct.pack("<4I", *(k if d is None else d for d, k in zip(dims, kept)))
    tracemalloc.start()
    try:
        read(valid[:DIMS_AT] + header + valid[DIMS_AT + 16:])
    except binio.FormatError:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 1 << 20
