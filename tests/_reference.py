"""Independent scalar-loop reference for the model's forward pass.

Everything here is written with explicit Python loops and math.exp /
math.tanh on floats, deliberately sharing no code with the package, so
the vectorized implementation can be checked against it.  Parameters are
read from the package's dataclasses, LSTM gates and fusion tracks by their
canonical tensor names (wf, uf, bf, ..., g_h.w1, ...), but only ever
indexed elementwise.

The end of the file holds a second kind of reference: the packed MLP
pairs (the fusion block and the label-guided heads) as per-MLP numpy
expressions, one MLP and one input at a time, as the package computed
them before each pair was packed.  The packed pair must reproduce those
bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def matvec(m, x):
    rows, cols = m.shape
    return [sum(float(m[i, j]) * float(x[j]) for j in range(cols))
            for i in range(rows)]


def lstm_step(p, x, h_prev, c_prev):
    """One LSTM step; returns (h, c) as Python lists."""
    size = len(h_prev)
    t = dict(p.tensors())

    def gate(name, squash):
        wx = matvec(t["w" + name], x)
        uh = matvec(t["u" + name], h_prev)
        return [squash(wx[k] + uh[k] + float(t["b" + name][k])) for k in range(size)]

    f = gate("f", sigmoid)
    i = gate("i", sigmoid)
    o = gate("o", sigmoid)
    g = gate("c", math.tanh)
    c = [f[k] * float(c_prev[k]) + i[k] * g[k] for k in range(size)]
    h = [o[k] * math.tanh(c[k]) for k in range(size)]
    return h, c


def run_lstm(p, xs, h0=None, c0=None):
    """All hidden states plus the final (h, c), starting from zeros."""
    size = dict(p.tensors())["uf"].shape[0]
    h = list(h0) if h0 is not None else [0.0] * size
    c = list(c0) if c0 is not None else [0.0] * size
    hs = []
    for t in range(xs.shape[0]):
        h, c = lstm_step(p, xs[t], h, c)
        hs.append(h)
    return hs, h, c


def mlp(p, x):
    hidden = [math.tanh(v + float(p.b1[k]))
              for k, v in enumerate(matvec(p.w1, x))]
    return [v + float(p.b2[k]) for k, v in enumerate(matvec(p.w2, hidden))]


def track_mlp(pair, track):
    """One MLP of a packed pair by tensor name (a fusion track "g_h" or
    "g_c", a head "aux_audio" or "aux_visual"), with the attributes w1,
    b1, w2, b2 that `mlp` reads."""
    t = dict(pair.tensors())
    return SimpleNamespace(**{name: t[track + "." + name]
                              for name in ("w1", "b1", "w2", "b2")})


def fuse_track(g, a, v):
    ga = mlp(g, a)
    gv = mlp(g, v)
    m = [0.5 * (ga[k] + gv[k]) for k in range(len(ga))]
    out_a = [math.tanh(float(a[k]) + m[k]) for k in range(len(m))]
    out_v = [math.tanh(float(v[k]) + m[k]) for k in range(len(m))]
    return [out_a[k] + out_v[k] for k in range(len(m))]


def forward_logits(params, audio, visual, init_mode="fusion"):
    """Per-segment logits of the full model as a list of lists."""
    _, ah, ac = run_lstm(params.enc_audio, audio)
    _, vh, vc = run_lstm(params.enc_visual, visual)
    if init_mode == "fusion":
        h0 = fuse_track(track_mlp(params.fusion, "g_h"), ah, vh)
        c0 = fuse_track(track_mlp(params.fusion, "g_c"), ac, vc)
    elif init_mode == "audio_only":
        h0, c0 = ah, ac
    elif init_mode == "visual_only":
        h0, c0 = vh, vc
    else:
        h0 = [ah[k] + vh[k] for k in range(len(ah))]
        c0 = [ac[k] + vc[k] for k in range(len(ac))]
    steps = audio.shape[0]
    inputs = [[float(v) for v in audio[t]] + [float(v) for v in visual[t]]
              for t in range(steps)]
    logits = []
    h, c = h0, c0
    for t in range(steps):
        h, c = lstm_step(params.decoder, inputs[t], h, c)
        row = matvec(params.out_w, h)
        logits.append([row[k] + float(params.out_b[k]) for k in range(len(row))])
    return logits


def softmax(row):
    peak = max(row)
    exps = [math.exp(v - peak) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def average_pool(rows):
    steps = len(rows)
    return [sum(row[k] for row in rows) / steps for k in range(len(rows[0]))]


# ---------------------------------------------------------------------------
# per-MLP numpy expressions of the packed pairs


def mlp_expression(g, x):
    """(y, hidden) of one MLP applied to one vector x."""
    hidden = np.tanh(x @ g.w1.T + g.b1)
    return hidden @ g.w2.T + g.b2, hidden


def mlp_backward_expression(g, x, hidden, gout):
    """One MLP backward, its applications stacked as rows of x, hidden and
    gout: (grad on x, {name: (rows g, rows x or None)})."""
    dz1 = gout @ g.w2 * (1.0 - hidden * hidden)
    rows = {"w1": (dz1, x), "b1": (dz1, None), "w2": (gout, hidden),
            "b2": (gout, None)}
    return dz1 @ g.w1, rows


def fuse_track_expression(g, a, v):
    """One track forward: (fused, (hidden_a, hidden_v), (out_a, out_v))."""
    ga, hidden_a = mlp_expression(g, a)
    gv, hidden_v = mlp_expression(g, v)
    m = 0.5 * (ga + gv)
    out_a = np.tanh(a + m)
    out_v = np.tanh(v + m)
    return out_a + out_v, (hidden_a, hidden_v), (out_a, out_v)


def fuse_track_backward_expression(g, a, v, gout):
    """One track backward, the two modalities' MLP applications stacked as
    two rows: (grad on a, grad on v, {name: (rows g, rows x or None)})."""
    _, (hidden_a, hidden_v), (out_a, out_v) = fuse_track_expression(g, a, v)
    dza = gout * (1.0 - out_a * out_a)
    dzv = gout * (1.0 - out_v * out_v)
    dm = 0.5 * (dza + dzv)
    dx, rows = mlp_backward_expression(g, np.stack((a, v)),
                                       np.stack((hidden_a, hidden_v)),
                                       np.stack((dm, dm)))
    return dza + dx[0], dzv + dx[1], rows
