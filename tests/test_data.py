import math

import numpy as np
import pytest

from avloc import binio, data


def make_seq(seed=0, t=5, d_a=3, d_v=4, c=2, video_id="clip"):
    rng = np.random.default_rng(seed)
    return data.FeatureSequence(
        video_id=video_id,
        audio=rng.standard_normal((t, d_a)).astype(np.float32),
        visual=rng.standard_normal((t, d_v)).astype(np.float32),
        labels=rng.integers(0, c + 1, size=t).astype(np.int64),
        num_events=c,
    )


def test_feature_round_trip_is_bitwise(tmp_path):
    seq = make_seq()
    path = tmp_path / "clip.avsd"
    data.write_features(seq, path)
    back = data.read_features(path)
    assert back.video_id == "clip"
    assert back.num_events == seq.num_events
    assert back.audio.dtype == np.float32 and back.visual.dtype == np.float32
    assert np.array_equal(back.audio, seq.audio)
    assert np.array_equal(back.visual, seq.visual)
    assert np.array_equal(back.labels, seq.labels)


def test_second_write_is_byte_identical(tmp_path):
    seq = make_seq(seed=1)
    a, b = tmp_path / "a.avsd", tmp_path / "b.avsd"
    data.write_features(seq, a)
    data.write_features(data.read_features(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_rejects_invalid_sequences(tmp_path):
    seq = make_seq()
    seq.labels = seq.labels[:-1]
    with pytest.raises(ValueError):
        data.write_features(seq, tmp_path / "bad.avsd")
    seq = make_seq()
    seq.labels[0] = seq.num_events + 1
    with pytest.raises(ValueError):
        data.write_features(seq, tmp_path / "bad.avsd")
    for d_a, d_v in ((0, 4), (3, 0)):
        with pytest.raises(ValueError, match="feature dims"):
            data.write_features(make_seq(d_a=d_a, d_v=d_v), tmp_path / "bad.avsd")


@pytest.mark.parametrize("d_a,d_v", [(0, 4), (3, 0)])
def test_read_rejects_a_zero_feature_width(tmp_path, d_a, d_v):
    seq = make_seq(t=2, d_a=d_a, d_v=d_v)
    path = tmp_path / "x.avsd"
    path.write_bytes(b"".join([
        data.MAGIC, binio.pack_u16(data.VERSION, "version"),
        *(binio.pack_u32(v, "dim") for v in (2, d_a, d_v, seq.num_events)),
        seq.audio.astype("<f4").tobytes(), seq.visual.astype("<f4").tobytes(),
        seq.labels.astype("<u2").tobytes()]))
    with pytest.raises(binio.FormatError, match="feature dims"):
        data.read_features(path)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.avsd"
    data.write_features(make_seq(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.BadMagicError):
        data.read_features(path)


def test_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "x.avsd"
    data.write_features(make_seq(), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.UnsupportedVersionError):
        data.read_features(path)


def test_read_rejects_truncated_and_trailing(tmp_path):
    path = tmp_path / "x.avsd"
    data.write_features(make_seq(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(binio.TruncatedFileError):
        data.read_features(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(binio.TrailingDataError):
        data.read_features(path)


def test_read_rejects_out_of_range_label(tmp_path):
    path = tmp_path / "x.avsd"
    seq = make_seq(t=2, d_a=1, d_v=1, c=1)
    data.write_features(seq, path)
    blob = bytearray(path.read_bytes())
    blob[-2:] = (7).to_bytes(2, "little")  # last label, C is 1
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.FormatError):
        data.read_features(path)


def test_read_rejects_a_class_count_the_writer_cannot_store(tmp_path):
    path = tmp_path / "x.avsd"
    data.write_features(make_seq(t=3), path)
    blob = bytearray(path.read_bytes())
    blob[18:22] = (70000).to_bytes(4, "little")  # C, after magic, version, T, d_a, d_v
    path.write_bytes(bytes(blob))
    with pytest.raises(binio.DimensionOverflowError) as info:
        data.read_features(path)
    assert (info.value.field, info.value.value, info.value.limit) == (
        "C", 70000, binio.U16_MAX)


def make_manifest(root=None):
    return data.DatasetManifest(
        num_events=2, categories=["bark", "siren"], audio_dim=3, visual_dim=4,
        num_segments=5,
        entries=[data.ManifestEntry("a", "train", "a.avsd"),
                 data.ManifestEntry("b", "val", "b.avsd")],
        root=root,
    )


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.txt"
    data.write_manifest(make_manifest(), path)
    back = data.read_manifest(path)
    assert back.num_events == 2
    assert back.categories == ["bark", "siren"]
    assert back.audio_dim == 3 and back.visual_dim == 4 and back.num_segments == 5
    assert back.root == tmp_path
    assert [e.video_id for e in back.split("train")] == ["a"]
    assert [e.video_id for e in back.split("val")] == ["b"]
    assert back.class_names() == ["bark", "siren", "background"]


@pytest.mark.parametrize("key", ["audio_dim", "visual_dim"])
def test_manifest_rejects_a_zero_feature_width(tmp_path, key):
    manifest = make_manifest()
    setattr(manifest, key, 0)
    with pytest.raises(data.ManifestError, match="must be >= 1"):
        data.write_manifest(manifest, tmp_path / "m.txt")
    path = tmp_path / "m.txt"
    path.write_text("C=2\nd_a=%d\nd_v=%d\nT=5\ncategories=bark,siren\n"
                    % (manifest.audio_dim, manifest.visual_dim))
    with pytest.raises(data.ManifestError, match="must be >= 1"):
        data.read_manifest(path)


@pytest.mark.parametrize("steps", [0, -3])
def test_manifest_rejects_a_segment_count_below_one(tmp_path, steps):
    manifest = make_manifest()
    manifest.num_segments = steps
    with pytest.raises(data.ManifestError, match="T must be >= 1"):
        data.write_manifest(manifest, tmp_path / "m.txt")
    path = tmp_path / "m.txt"
    path.write_text("C=2\nd_a=3\nd_v=4\nT=%d\ncategories=bark,siren\n" % steps)
    with pytest.raises(data.ManifestError, match="T must be >= 1"):
        data.read_manifest(path)


def test_manifest_rejects_video_in_two_splits(tmp_path):
    manifest = make_manifest()
    manifest.entries.append(data.ManifestEntry("a", "test", "a2.avsd"))
    with pytest.raises(data.ManifestError):
        data.write_manifest(manifest, tmp_path / "m.txt")


def test_manifest_rejects_bad_category_count(tmp_path):
    manifest = make_manifest()
    manifest.categories = ["only_one"]
    with pytest.raises(data.ManifestError):
        data.write_manifest(manifest, tmp_path / "m.txt")


def test_manifest_rejects_unknown_split_and_bad_lines(tmp_path):
    path = tmp_path / "m.txt"
    data.write_manifest(make_manifest(), path)
    text = path.read_text()
    path.write_text(text.replace("a\ttrain", "a\tdev"))
    with pytest.raises(data.ManifestError):
        data.read_manifest(path)
    path.write_text(text + "stray line\n")
    with pytest.raises(data.ManifestError):
        data.read_manifest(path)
    path.write_text(text.replace("C=2\n", ""))
    with pytest.raises(data.ManifestError):
        data.read_manifest(path)
    with pytest.raises(data.ManifestError):
        make_manifest().split("dev")


@pytest.mark.parametrize("key", ["C", "d_a", "d_v", "T"])
def test_manifest_rejects_non_integer_header_values(tmp_path, key):
    path = tmp_path / "m.txt"
    data.write_manifest(make_manifest(), path)
    lines = [key + "=abc" if line.startswith(key + "=") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(data.ManifestError) as info:
        data.read_manifest(path)
    assert str(path) in str(info.value) and key in str(info.value)
    assert "'abc'" in str(info.value)


def test_manifest_that_is_not_utf8_is_a_manifest_error(tmp_path):
    path = tmp_path / "m.txt"
    data.write_manifest(make_manifest(), path)
    path.write_bytes(path.read_bytes().replace(b"siren", b"sir\xe9n"))
    with pytest.raises(data.ManifestError) as info:
        data.read_manifest(path)
    assert str(path) in str(info.value) and "UTF-8" in str(info.value)


def test_manifest_round_trips_non_ascii_names_as_utf8(tmp_path):
    path = tmp_path / "m.txt"
    manifest = make_manifest()
    manifest.categories = ["aboiement", "sir\u00e8ne"]
    data.write_manifest(manifest, path)
    assert "sir\u00e8ne".encode("utf-8") in path.read_bytes()
    assert data.read_manifest(path).categories == manifest.categories


def test_load_split_checks_dimensions(tmp_path):
    manifest = make_manifest(root=tmp_path)
    data.write_features(make_seq(t=5, d_a=3, d_v=4, c=2, video_id="a"),
                        tmp_path / "a.avsd")
    # wrong audio dim for b
    data.write_features(make_seq(t=5, d_a=2, d_v=4, c=2, video_id="b"),
                        tmp_path / "b.avsd")
    train = data.load_split(manifest, "train")
    assert len(train) == 1 and train[0].video_id == "a"
    with pytest.raises(data.ManifestError):
        data.load_split(manifest, "val")


def test_frame_accuracy():
    assert data.frame_accuracy([0, 1, 2, 2], [0, 1, 1, 2]) == 0.75
    with pytest.raises(ValueError):
        data.frame_accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        data.frame_accuracy([], [])


def test_synth_config_validation():
    with pytest.raises(data.ConfigError):
        data.SynthConfig(num_events=8, audio_dim=8, visual_dim=24).validate()
    with pytest.raises(data.ConfigError):
        data.SynthConfig(background_overlap=1.5).validate()
    with pytest.raises(data.ConfigError):
        data.SynthConfig(noise_sigma=-0.1).validate()
    with pytest.raises(data.ConfigError, match="seed"):
        data.SynthConfig(seed=-1).validate()
    for name, value in [("noise_sigma", math.nan), ("noise_sigma", math.inf),
                        ("noise_sigma", -math.inf), ("train_videos", -3),
                        ("val_videos", -1), ("test_videos", -1)]:
        with pytest.raises(data.ConfigError, match=name):
            data.SynthConfig(**{name: value}).validate()
    data.SynthConfig(train_videos=0, val_videos=0, test_videos=0).validate()
    data.SynthConfig().validate()


def test_synth_config_rejects_more_classes_than_u16_labels_hold():
    """Only the validator runs: generating data at this size would first
    draw a QR of a 65537 x 65537 matrix."""
    wide = dict(audio_dim=binio.U16_MAX + 2, visual_dim=binio.U16_MAX + 2)
    with pytest.raises(data.ConfigError, match="num_events must be <= 65535"):
        data.SynthConfig(num_events=binio.U16_MAX + 1, **wide).validate()
    data.SynthConfig(num_events=binio.U16_MAX, **wide).validate()


def small_cfg(**kw):
    base = dict(num_events=3, audio_dim=6, visual_dim=5, num_segments=8,
                train_videos=6, val_videos=2, test_videos=2,
                noise_sigma=0.1, seed=11)
    base.update(kw)
    return data.SynthConfig(**base)


def test_generate_synthetic_is_deterministic(tmp_path):
    cfg = small_cfg()
    data.generate_synthetic(cfg, tmp_path / "one")
    data.generate_synthetic(cfg, tmp_path / "two")
    for name in ["manifest.txt", "train_0000.avsd", "test_0001.avsd"]:
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()), name


def test_generate_synthetic_layout_and_labels(tmp_path):
    cfg = small_cfg()
    manifest = data.generate_synthetic(cfg, tmp_path)
    assert len(manifest.split("train")) == 6
    assert len(manifest.split("val")) == 2
    assert len(manifest.split("test")) == 2
    reread = data.read_manifest(tmp_path / "manifest.txt")
    for split in data.SPLITS:
        for seq in data.load_split(reread, split):
            assert seq.length == 8
            assert seq.labels.min() >= 0 and seq.labels.max() <= 3
            y = seq.video_label()
            assert abs(y.sum() - 1.0) < 1e-12


def test_event_interval_is_contiguous_without_overlap(tmp_path):
    manifest = data.generate_synthetic(small_cfg(background_overlap=0.0),
                                       tmp_path)
    for seq in data.load_split(manifest, "train"):
        active = np.flatnonzero(seq.labels != 3)
        assert active.size >= 1
        assert np.array_equal(active, np.arange(active[0], active[-1] + 1))
        assert len(set(seq.labels[active])) == 1


def test_full_overlap_gives_all_background_labels(tmp_path):
    manifest = data.generate_synthetic(small_cfg(background_overlap=1.0),
                                       tmp_path)
    for split in data.SPLITS:
        for seq in data.load_split(manifest, split):
            assert np.all(seq.labels == 3)


def test_noiseless_features_are_orthogonal_prototypes(tmp_path):
    cfg = small_cfg(noise_sigma=0.0, train_videos=20)
    manifest = data.generate_synthetic(cfg, tmp_path)
    by_class = {}
    for seq in data.load_split(manifest, "train"):
        for t in range(seq.length):
            row = seq.audio[t]
            key = int(seq.labels[t])
            if key in by_class:
                assert np.array_equal(by_class[key], row)
            else:
                by_class[key] = row
    protos = np.stack(list(by_class.values())).astype(np.float64)
    gram = protos @ protos.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-6)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-6
