import tracemalloc

import numpy as np
import pytest

from avloc import binio, checkpoint, model


def make_model(seed=0):
    return model.init_model_params(3, 4, 5, 2, np.random.default_rng(seed))


def test_round_trip_preserves_every_tensor(tmp_path):
    params = make_model()
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(params, path)
    back = checkpoint.load_model(path)
    assert back.audio_dim == 3 and back.visual_dim == 4
    assert back.hidden_size == 5 and back.num_events == 2
    for (name_a, a), (name_b, b) in zip(params.tensors(), back.tensors()):
        assert name_a == name_b
        assert np.array_equal(a, b), name_a


def test_save_load_save_is_byte_identical(tmp_path):
    params = make_model(seed=1)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_model(params, first)
    checkpoint.save_model(checkpoint.load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_float32_params_survive_via_float64_storage(tmp_path):
    params = model.cast_model(make_model(seed=2), np.float32)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(params, path)
    back = model.cast_model(checkpoint.load_model(path), np.float32)
    for (name, a), (_, b) in zip(params.tensors(), back.tensors()):
        assert np.array_equal(a, b), name


def test_corrupt_files_are_rejected(tmp_path):
    params = make_model(seed=3)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(params, path)
    blob = path.read_bytes()

    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(binio.BadMagicError):
        checkpoint.load_model(path)

    path.write_bytes(blob[:4] + (9).to_bytes(2, "little") + blob[6:])
    with pytest.raises(binio.UnsupportedVersionError):
        checkpoint.load_model(path)

    path.write_bytes(blob[:-8])
    with pytest.raises(binio.TruncatedFileError):
        checkpoint.load_model(path)

    path.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(binio.TrailingDataError):
        checkpoint.load_model(path)

    # zero hidden size in the header
    path.write_bytes(blob[:14] + (0).to_bytes(4, "little") + blob[18:])
    with pytest.raises(binio.FormatError):
        checkpoint.load_model(path)


def test_header_size_is_checked_before_allocating(tmp_path):
    # d_a=1, d_v=1, h=60000, C=1 declares 57.6e9 parameters and no tensor
    # bytes follow.
    path = tmp_path / "huge.ckpt"
    path.write_bytes(b"AVSM" + (1).to_bytes(2, "little")
                     + b"".join(v.to_bytes(4, "little") for v in (1, 1, 60000, 1)))
    assert path.stat().st_size == 22
    tracemalloc.start()
    try:
        with pytest.raises(binio.FormatError):
            checkpoint.load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_param_count_matches_the_tensors():
    params = model.init_model_params(3, 4, 5, 2, None)
    assert model.param_count(3, 4, 5, 2) == sum(
        arr.size for _, arr in params.tensors())


@pytest.mark.parametrize("name", ["enc_audio.wf", "fusion.g_c.w1", "out_b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected_by_name(tmp_path, name, value):
    params = make_model(seed=4)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(params, path)
    offset = 22  # header bytes
    for tensor, arr in params.tensors():
        if tensor == name:
            break
        offset += 8 * arr.size
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = np.float64(value).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.FormatError) as info:
        checkpoint.load_model(path)
    assert name in str(info.value) and str(path) in str(info.value)
