"""Property tests for the file readers.  The two binary readers,
`data.read_features` and `checkpoint.load_model`: truncated, bit-flipped
and re-dimensioned files fail with a `FormatError` subclass and never with
another exception.  The two text readers, `data.read_manifest` and
`cli.read_config` (with the options it feeds `cli.build_synth_config`):
truncated, byte-flipped and junk-lined files fail with `ManifestError` or
`ConfigError` and never with another exception, and a leading UTF-8
byte-order mark changes nothing."""

import codecs
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avloc import binio, checkpoint, cli, data, model
from avloc.trainer import ConfigError

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


@FUZZ
@given(c=st.integers(binio.U16_MAX + 1, binio.U32_MAX))
def test_a_class_count_above_u16_is_a_dimension_overflow(tmp_path_factory, c):
    """Labels are stored as u16, so a feature file cannot hold C > 65535."""
    path = tmp_path_factory.mktemp("classes") / "case"
    _write_valid(data.read_features, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, DIMS_AT + 12, c)
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.DimensionOverflowError):
        data.read_features(path)


# ---------------------------------------------------------------------------
# text readers


def _read_synth_config(path):
    return cli.build_synth_config(cli.read_config(path))


@pytest.fixture(scope="module", params=["read_manifest", "read_config"])
def text_case(request, tmp_path_factory):
    """(a valid file as bytes, a function that reads given bytes, the one
    error type the reader may raise)."""
    path = tmp_path_factory.mktemp("text") / "case"
    if request.param == "read_manifest":
        data.write_manifest(data.DatasetManifest(
            num_events=2, categories=["bark", "sir\u00e8ne"], audio_dim=3,
            visual_dim=4, num_segments=5,
            entries=[data.ManifestEntry("a", "train", "a.avsd"),
                     data.ManifestEntry("b", "val", "b.avsd")]), path)
        reader, error = data.read_manifest, data.ManifestError
    else:
        path.write_text("# \u00e9t\u00e9\nnum_events=3\n\nnoise_sigma=0.25\n"
                        "train_videos=7\n", encoding="utf-8")
        reader, error = _read_synth_config, ConfigError
    valid = path.read_bytes()

    def read(blob: bytes):
        path.write_bytes(blob)
        return reader(path)

    read(valid)
    return valid, read, error


def test_every_text_truncation_raises_only_its_error(text_case):
    valid, read, error = text_case
    for length in range(len(valid)):
        try:
            read(valid[:length])
        except error:
            pass


@FUZZ
@given(draw=st.data())
def test_byte_flips_raise_only_the_readers_error(text_case, draw):
    valid, read, error = text_case
    blob = bytearray(valid)
    flips = draw.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(0, 255)),
                               min_size=1, max_size=3))
    for at, byte in flips:
        blob[at] = byte
    try:
        read(bytes(blob))
    except error:
        pass


def test_a_byte_order_mark_reads_as_the_same_file(text_case):
    valid, read, error = text_case
    assert read(codecs.BOM_UTF8 + valid) == read(valid)
    # A bad byte after the mark is still named by its offset in the file.
    with pytest.raises(error) as info:
        read(codecs.BOM_UTF8 + valid[:5] + b"\xff" + valid[5:])
    assert "case: not UTF-8 text at byte 8:" in str(info.value)


@FUZZ
@given(draw=st.data())
def test_junk_lines_raise_only_the_readers_error(text_case, draw):
    valid, read, error = text_case
    lines = valid.split(b"\n")
    junk = draw.draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                        st.binary(max_size=24)),
                              min_size=1, max_size=3))
    for at, line in junk:
        lines.insert(at, line)
    try:
        read(b"\n".join(lines))
    except error:
        pass
