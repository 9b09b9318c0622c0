"""Dataset plumbing: on-disk feature format, manifests, synthetic data.

Feature file layout (little-endian), one video per file:

    bytes 0..3   magic "AVSD"
    u16          version (currently 1)
    u32 x 4      T, d_a, d_v, C
    f32 x T*d_a  audio features, row-major
    f32 x T*d_v  visual features, row-major
    u16 x T      segment label indices; the value C means background

Manifest: a line-oriented text file.  Header lines are `key=value` for
C, d_a, d_v, T and the comma-separated event category names; every later
non-empty line is one record `video_id<TAB>split<TAB>path` where split is
train, val or test and path is resolved relative to the manifest's
directory.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .model import video_label_from_segments

MAGIC = b"AVSD"
VERSION = 1
SPLITS = ("train", "val", "test")


class ManifestError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class FeatureSequence:
    """Per-video features and segment labels.

    audio: (T, d_a) float32, visual: (T, d_v) float32, labels: (T,) int64
    with values in [0, C] (C = background).
    """

    video_id: str
    audio: np.ndarray
    visual: np.ndarray
    labels: np.ndarray
    num_events: int

    @property
    def length(self) -> int:
        return self.audio.shape[0]

    @property
    def audio_dim(self) -> int:
        return self.audio.shape[1]

    @property
    def visual_dim(self) -> int:
        return self.visual.shape[1]

    def video_label(self) -> np.ndarray:
        return video_label_from_segments(self.labels, self.num_events)

    def validate(self):
        t = self.length
        if self.audio.ndim != 2 or self.visual.ndim != 2 or self.visual.shape[0] != t:
            raise ValueError("inconsistent feature shapes %s / %s"
                             % (self.audio.shape, self.visual.shape))
        if self.labels.shape != (t,):
            raise ValueError("label count %s does not match T=%d"
                             % (self.labels.shape, t))
        if t == 0:
            raise ValueError("empty sequence")
        if self.audio_dim < 1 or self.visual_dim < 1:
            raise ValueError("feature dims must be >= 1, got d_a=%d d_v=%d"
                             % (self.audio_dim, self.visual_dim))
        if self.labels.min() < 0 or self.labels.max() > self.num_events:
            raise ValueError("labels out of range [0, %d]" % self.num_events)


def write_features(seq: FeatureSequence, path) -> None:
    seq.validate()
    if seq.num_events > binio.U16_MAX:  # labels are stored as u16
        raise binio.DimensionOverflowError("C", seq.num_events, binio.U16_MAX)
    chunks = [MAGIC, binio.pack_u16(VERSION, "version")]
    for name, value in (("T", seq.length), ("d_a", seq.audio_dim),
                        ("d_v", seq.visual_dim), ("C", seq.num_events)):
        chunks.append(binio.pack_u32(value, name))
    chunks.append(np.ascontiguousarray(seq.audio, dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(seq.visual, dtype="<f4").tobytes())
    chunks.append(np.ascontiguousarray(seq.labels, dtype="<u2").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_features(path) -> FeatureSequence:
    """Parse a feature file; the video id is taken from the file name stem."""
    path = Path(path)
    reader = binio.ByteReader(path.read_bytes())
    magic = reader.take(4)
    if magic != MAGIC:
        raise binio.BadMagicError(MAGIC, magic)
    version = reader.u16()
    if version != VERSION:
        raise binio.UnsupportedVersionError(VERSION, version)
    t = reader.u32()
    d_a = reader.u32()
    d_v = reader.u32()
    c = reader.u32()
    if c > binio.U16_MAX:  # labels are stored as u16, as write_features requires
        raise binio.DimensionOverflowError("C", c, binio.U16_MAX)
    audio = reader.array("<f4", t * d_a).reshape(t, d_a).astype(np.float32)
    visual = reader.array("<f4", t * d_v).reshape(t, d_v).astype(np.float32)
    labels = reader.array("<u2", t).astype(np.int64)
    reader.expect_eof()
    seq = FeatureSequence(video_id=path.stem, audio=audio, visual=visual,
                          labels=labels, num_events=c)
    try:
        seq.validate()
    except ValueError as exc:
        raise binio.FormatError("%s: %s" % (path, exc)) from exc
    return seq


# ---------------------------------------------------------------------------
# manifests


@dataclass
class ManifestEntry:
    video_id: str
    split: str
    path: str


@dataclass
class DatasetManifest:
    num_events: int
    categories: list
    audio_dim: int
    visual_dim: int
    num_segments: int
    entries: list = field(default_factory=list)
    root: Path | None = None  # directory record paths are relative to

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ManifestError("unknown split %r (expected one of %s)"
                                % (name, ", ".join(SPLITS)))
        return [e for e in self.entries if e.split == name]

    def validate(self):
        if self.num_events < 1:
            raise ManifestError("C must be >= 1, got %d" % self.num_events)
        if self.audio_dim < 1 or self.visual_dim < 1:
            raise ManifestError("d_a and d_v must be >= 1, got d_a=%d d_v=%d"
                                % (self.audio_dim, self.visual_dim))
        if self.num_segments < 1:
            raise ManifestError("T must be >= 1, got %d" % self.num_segments)
        if len(self.categories) != self.num_events:
            raise ManifestError("expected %d category names, got %d"
                                % (self.num_events, len(self.categories)))
        seen = {}
        for e in self.entries:
            if e.split not in SPLITS:
                raise ManifestError("record %r has unknown split %r"
                                    % (e.video_id, e.split))
            if e.video_id in seen:
                raise ManifestError("video %r appears in both %r and %r; "
                                    "splits must be disjoint"
                                    % (e.video_id, seen[e.video_id], e.split))
            seen[e.video_id] = e.split

    def class_names(self) -> list:
        return list(self.categories) + ["background"]


def write_manifest(manifest: DatasetManifest, path) -> None:
    manifest.validate()
    lines = [
        "C=%d" % manifest.num_events,
        "d_a=%d" % manifest.audio_dim,
        "d_v=%d" % manifest.visual_dim,
        "T=%d" % manifest.num_segments,
        "categories=%s" % ",".join(manifest.categories),
    ]
    for e in manifest.entries:
        lines.append("%s\t%s\t%s" % (e.video_id, e.split, e.path))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_text(path, error: type) -> str:
    """A text file's contents: UTF-8, after a byte-order mark if one leads.
    A byte that is not UTF-8 raises `error` naming the file and the byte's
    offset from the start of the file (where the "utf-8-sig" codec would
    count from the end of the mark)."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error("%s: not UTF-8 text at byte %d: %s"
                    % (path, exc.start, exc.reason)) from None
    return text.removeprefix("\ufeff")


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    header = {}
    entries = []
    text = read_text(path, ManifestError)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "\t" in line:
            parts = line.split("\t")
            if len(parts) != 3:
                raise ManifestError("%s:%d: expected video_id, split, path"
                                    % (path, lineno))
            entries.append(ManifestEntry(*parts))
        elif "=" in line:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
        else:
            raise ManifestError("%s:%d: unparseable line %r" % (path, lineno, line))
    def integer(key):
        try:
            return int(header[key])
        except ValueError:
            raise ManifestError("%s: header key %s must be an integer, got %r"
                                % (path, key, header[key])) from None

    try:
        manifest = DatasetManifest(
            num_events=integer("C"),
            categories=[c for c in header["categories"].split(",") if c],
            audio_dim=integer("d_a"),
            visual_dim=integer("d_v"),
            num_segments=integer("T"),
            entries=entries,
            root=path.parent,
        )
    except KeyError as exc:
        raise ManifestError("%s: missing header key %s" % (path, exc)) from exc
    manifest.validate()
    return manifest


def load_split(manifest: DatasetManifest, split: str) -> list:
    """Read every feature file of a split, in manifest order."""
    root = manifest.root or Path(".")
    out = []
    for e in manifest.split(split):
        seq = read_features(root / e.path)
        seq.video_id = e.video_id
        if (seq.audio_dim != manifest.audio_dim
                or seq.visual_dim != manifest.visual_dim
                or seq.num_events != manifest.num_events
                or seq.length != manifest.num_segments):
            raise ManifestError(
                "%s: feature file dims (T=%d d_a=%d d_v=%d C=%d) do not match "
                "manifest (T=%d d_a=%d d_v=%d C=%d)"
                % (e.path, seq.length, seq.audio_dim, seq.visual_dim,
                   seq.num_events, manifest.num_segments, manifest.audio_dim,
                   manifest.visual_dim, manifest.num_events))
        out.append(seq)
    return out


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Controls for the synthetic dual-modality dataset generator."""

    num_events: int = 4
    audio_dim: int = 16
    visual_dim: int = 24
    num_segments: int = 10
    train_videos: int = 200
    val_videos: int = 50
    test_videos: int = 50
    noise_sigma: float = 0.5
    background_overlap: float = 0.0  # chance a modality drops the event
    seed: int = 0

    def validate(self):
        if self.num_events < 1:
            raise ConfigError("num_events must be >= 1")
        if self.num_events > binio.U16_MAX:  # labels are stored as u16
            raise ConfigError("num_events must be <= %d, got %d"
                              % (binio.U16_MAX, self.num_events))
        for name in ("train_videos", "val_videos", "test_videos"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0, got %d"
                                  % (name, getattr(self, name)))
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError("noise_sigma must be finite and >= 0, got %r"
                              % self.noise_sigma)
        if not 0.0 <= self.background_overlap <= 1.0:
            raise ConfigError("background_overlap must lie in [0, 1]")
        if self.num_segments < 1:
            raise ConfigError("num_segments must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        limit = min(self.audio_dim, self.visual_dim)
        if self.num_events + 1 > limit:
            raise ConfigError(
                "cannot build %d orthogonal prototypes in %d dimensions; "
                "need num_events + 1 <= min(d_a, d_v)"
                % (self.num_events + 1, limit))


def _prototypes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` orthonormal rows in `dim` dimensions."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, count)))
    return q.T.astype(np.float64)


def _synth_video(rng: np.random.Generator, cfg: SynthConfig,
                 protos_a: np.ndarray, protos_v: np.ndarray):
    """One video: an event class active on a contiguous interval.

    Inside the interval, with probability background_overlap one modality
    shows background instead, and the segment is labeled background; a
    non-background label needs both modalities to carry the event.
    """
    t_total = cfg.num_segments
    bg = cfg.num_events
    event = int(rng.integers(0, cfg.num_events))
    length = int(rng.integers(1, t_total + 1))
    start = int(rng.integers(0, t_total - length + 1))
    labels = np.full(t_total, bg, dtype=np.int64)
    audio_class = np.full(t_total, bg, dtype=np.int64)
    visual_class = np.full(t_total, bg, dtype=np.int64)
    for t in range(start, start + length):
        audio_class[t] = event
        visual_class[t] = event
        if rng.random() < cfg.background_overlap:
            if rng.integers(0, 2) == 0:
                audio_class[t] = bg
            else:
                visual_class[t] = bg
        else:
            labels[t] = event
    audio = protos_a[audio_class] + rng.normal(0.0, cfg.noise_sigma,
                                               size=(t_total, cfg.audio_dim))
    visual = protos_v[visual_class] + rng.normal(0.0, cfg.noise_sigma,
                                                 size=(t_total, cfg.visual_dim))
    return audio.astype(np.float32), visual.astype(np.float32), labels


def generate_synthetic(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Write one feature file per video plus `manifest.txt` under out_dir.

    Deterministic: the same config (seed included) reproduces every file
    byte for byte.  Draw order: audio prototypes, visual prototypes, then
    per split (train, val, test) each video in index order.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    protos_a = _prototypes(rng, cfg.num_events + 1, cfg.audio_dim)
    protos_v = _prototypes(rng, cfg.num_events + 1, cfg.visual_dim)
    manifest = DatasetManifest(
        num_events=cfg.num_events,
        categories=["event_%d" % k for k in range(cfg.num_events)],
        audio_dim=cfg.audio_dim,
        visual_dim=cfg.visual_dim,
        num_segments=cfg.num_segments,
        root=out_dir,
    )
    counts = {"train": cfg.train_videos, "val": cfg.val_videos,
              "test": cfg.test_videos}
    for split in SPLITS:
        for i in range(counts[split]):
            video_id = "%s_%04d" % (split, i)
            audio, visual, labels = _synth_video(rng, cfg, protos_a, protos_v)
            seq = FeatureSequence(video_id=video_id, audio=audio, visual=visual,
                                  labels=labels, num_events=cfg.num_events)
            filename = video_id + ".avsd"
            write_features(seq, out_dir / filename)
            manifest.entries.append(ManifestEntry(video_id, split, filename))
    write_manifest(manifest, out_dir / "manifest.txt")
    return manifest


# ---------------------------------------------------------------------------
# metric


def frame_accuracy(predictions, labels) -> float:
    """Fraction of segments whose predicted class matches the label."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("frame_accuracy: shape mismatch %s vs %s"
                         % (predictions.shape, labels.shape))
    if predictions.size == 0:
        raise ValueError("frame_accuracy: empty input")
    return float((predictions == labels).mean())
