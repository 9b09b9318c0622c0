"""Training precision against checking precision: the trainer's minibatch
step in float32 against the same model and inputs in float64, on every
training path (each decoder-init mode under both losses, with the aux
heads where the mode has them), at the acceptance shape and the AVE
shape.  Measured worst cases over these 16 cases: relative loss error
5.7e-8, relative gradient-norm error 4.4e-7."""

import numpy as np
import pytest

from avloc import data, model, trainer

B = 4
MAIN = dict(num_events=4, audio_dim=16, visual_dim=24, hidden_size=32)
AVE = dict(num_events=28, audio_dim=128, visual_dim=512, hidden_size=128)
STEPS = 10
LOSS_BOUND = 1e-6
GRAD_BOUND = 1e-5


def problem(shape, seed):
    """Float32 parameters, aux heads and videos; the float64 copies are
    exact."""
    rng = np.random.default_rng(seed)
    c = shape["num_events"]
    params = model.init_model_params(rng=rng, dtype=np.float32, **shape)
    heads = trainer.init_aux_heads(shape["hidden_size"], c, rng, np.float32)
    seqs = []
    for k in range(B):
        labels = np.full(STEPS, c)
        start = rng.integers(0, STEPS // 2)
        length = rng.integers(1, STEPS // 2 + 1)
        labels[start:start + length] = rng.integers(0, c)
        seqs.append(data.FeatureSequence(
            "v%d" % k,
            rng.standard_normal((STEPS, shape["audio_dim"])).astype(np.float32),
            rng.standard_normal((STEPS, shape["visual_dim"])).astype(np.float32),
            labels, c))
    return params, heads, seqs


def step(params, heads, seqs, dtype, init_mode, setting):
    """The trainer's minibatch step in `dtype`: (loss, every gradient array
    flattened into one vector)."""
    dec_init, use_aux = trainer.INIT_MODES[init_mode]

    def cast(arr):
        return arr.astype(dtype)

    seqs = [data.FeatureSequence(s.video_id, cast(s.audio), cast(s.visual),
                                 s.labels, s.num_events) for s in seqs]
    # The trainer casts video labels to the training precision.
    labels = [cast(s.video_label()) for s in seqs]
    loss, grads, aux_grads = trainer._minibatch_grads(
        params.map(cast), seqs, labels, setting, dec_init,
        heads.map(cast) if use_aux else None, trainer.TrainConfig().aux_weight)
    arrays = [arr for _, arr in grads.arrays()]
    if aux_grads is not None:
        arrays += [arr for _, arr in aux_grads.arrays()]
    for arr in arrays:
        assert arr.dtype == dtype
    return loss, np.concatenate([arr.ravel().astype(np.float64) for arr in arrays])


@pytest.mark.parametrize("shape", [MAIN, AVE], ids=["main", "ave"])
@pytest.mark.parametrize("setting", trainer.SETTINGS)
@pytest.mark.parametrize("init_mode", list(trainer.INIT_MODES))
def test_float32_step_agrees_with_float64(shape, setting, init_mode):
    params, heads, seqs = problem(shape, seed=5)
    loss32, grad32 = step(params, heads, seqs, np.float32, init_mode, setting)
    loss64, grad64 = step(params, heads, seqs, np.float64, init_mode, setting)
    assert abs(loss32 - loss64) <= LOSS_BOUND * abs(loss64)
    assert (np.linalg.norm(grad32 - grad64)
            <= GRAD_BOUND * np.linalg.norm(grad64))
