"""Model checkpoint file format.

Layout (little-endian):

    bytes 0..3   magic "AVSM"
    u16          version (currently 1)
    u32 x 4      d_a, d_v, h, C
    then every parameter tensor as raw float64 row-major bytes, in the
    canonical ModelParams.tensors() order (audio encoder, visual encoder,
    fusion, decoder, output weight, output bias; within each LSTM the
    gates f, i, o, c as W, U, b triples; within each fusion MLP w1, b1,
    w2, b2, hidden-state MLP before cell-state MLP).

Tensors are stored as float64 regardless of the training precision, so a
save/load/save cycle is byte-identical.  `save_model` writes a new file
and moves it onto the path only when it is complete (`binio.replacing`),
so a failed save leaves an existing checkpoint as it was.
"""

from pathlib import Path

import numpy as np

from . import binio
from .model import ModelParams, init_model_params, param_count

MAGIC = b"AVSM"
VERSION = 1


def save_model(params: ModelParams, path) -> None:
    header = [MAGIC, binio.pack_u16(VERSION, "version")]
    for field, value in (("d_a", params.audio_dim), ("d_v", params.visual_dim),
                         ("h", params.hidden_size), ("C", params.num_events)):
        header.append(binio.pack_u32(value, field))
    # Streamed tensor by tensor, so the file is never built in memory, into
    # a new file that replaces `path` only once it is whole.
    with binio.replacing(path) as fh:
        fh.write(b"".join(header))
        for _, arr in params.tensors():
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_model(path) -> ModelParams:
    """Read a checkpoint; returns float64 parameters exactly as stored."""
    with binio.naming(path):
        reader = binio.ByteReader(Path(path).read_bytes())
        magic = reader.take(4)
        if magic != MAGIC:
            raise binio.BadMagicError(MAGIC, magic)
        version = reader.u16()
        if version != VERSION:
            raise binio.UnsupportedVersionError(VERSION, version)
        d_a = reader.u32()
        d_v = reader.u32()
        h = reader.u32()
        c = reader.u32()
        if min(d_a, d_v, h, c) < 1:
            raise binio.FormatError(
                "invalid header dimensions d_a=%d d_v=%d h=%d C=%d" % (d_a, d_v, h, c))
        # Checked before the skeleton is built, so a header with huge
        # dimensions fails without allocating what it declares.
        needed = 8 * param_count(d_a, d_v, h, c)
        available = len(reader.data) - reader.offset
        if needed > available:
            raise binio.TruncatedFileError(reader.offset, needed, available)
        if needed < available:
            raise binio.TrailingDataError(reader.offset + needed, available - needed)
        params = init_model_params(d_a, d_v, h, c, rng=None, dtype=np.float64)
        for name, arr in params.tensors():
            arr[...] = reader.array("<f8", arr.size).reshape(arr.shape)
            if not np.isfinite(arr).all():
                raise binio.FormatError("non-finite value in tensor %s" % name)
        reader.expect_eof()
        return params
