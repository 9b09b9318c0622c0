import errno
import os
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


class FailingFile:
    """A file opened by `binio.replacing` whose write call number `fail_at`
    (counting from 1) raises ENOSPC; `calls` counts every write."""

    def __init__(self, fh, fail_at, calls):
        self.fh, self.fail_at, self.calls = fh, fail_at, calls

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.calls.append(len(data))
        if len(self.calls) == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()


def failing_open(monkeypatch, fail_at):
    calls = []
    real_open = open
    monkeypatch.setattr(binio, "open",
                        lambda *args: FailingFile(real_open(*args), fail_at, calls),
                        raising=False)
    return calls


def plain_bytes(params):
    """A checkpoint's bytes as the format defines them, built in memory."""
    header = b"AVSM" + (1).to_bytes(2, "little") + b"".join(
        v.to_bytes(4, "little") for v in (params.audio_dim, params.visual_dim,
                                           params.hidden_size, params.num_events))
    return header + b"".join(np.ascontiguousarray(arr, "<f8").tobytes()
                             for _, arr in params.tensors())


def test_a_failed_save_leaves_the_old_checkpoint_and_no_temporary(tmp_path,
                                                                   monkeypatch):
    old, new = make_model(seed=5), make_model(seed=6)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(old, path)
    before = path.read_bytes()
    calls = failing_open(monkeypatch, None)
    checkpoint.save_model(old, tmp_path / "count.ckpt")
    writes = len(calls)
    (tmp_path / "count.ckpt").unlink()
    assert writes == 1 + len(list(old.tensors()))  # the header, then each tensor
    for fail_at in range(1, writes + 1):
        failing_open(monkeypatch, fail_at)
        with pytest.raises(OSError):
            checkpoint.save_model(new, path)
        assert path.read_bytes() == before, fail_at
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"], fail_at
    monkeypatch.undo()

    def no_fsync(fd):
        raise OSError(errno.EIO, "I/O error")
    monkeypatch.setattr(os, "fsync", no_fsync)
    with pytest.raises(OSError):
        checkpoint.save_model(new, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_a_failed_first_save_leaves_no_file(tmp_path, monkeypatch):
    failing_open(monkeypatch, 2)
    with pytest.raises(OSError):
        checkpoint.save_model(make_model(), tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_a_save_writes_the_format_bytes_with_a_plain_file_mode(tmp_path):
    params = make_model(seed=7)
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"an older file")
    checkpoint.save_model(params, path)
    assert path.read_bytes() == plain_bytes(params)
    with open(tmp_path / "plain", "wb"):
        pass
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "plain"]


def test_a_save_writes_through_a_symlink_and_names_a_missing_directory(tmp_path):
    params = make_model(seed=8)
    target, link = tmp_path / "target.ckpt", tmp_path / "link.ckpt"
    target.write_bytes(b"old")
    link.symlink_to(target)
    checkpoint.save_model(params, link)
    assert link.is_symlink() and target.read_bytes() == plain_bytes(params)
    missing = tmp_path / "no" / "m.ckpt"
    with pytest.raises(FileNotFoundError) as info:
        checkpoint.save_model(params, missing)
    assert info.value.filename == str(missing)
