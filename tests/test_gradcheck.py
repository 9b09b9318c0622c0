import numpy as np

from avloc import gradcheck, model, ops, trainer
from avloc.tree import RowGrads, Rows


def test_gradcheck_passes_with_tiny_error():
    result = gradcheck.run_gradcheck(seed=0)
    assert result.passed
    assert result.max_rel_error < 1e-6
    assert result.worst_tensor
    assert list(result.per_path) == [
        "%s/%s" % (init, setting) for init in trainer.INIT_MODES
        for setting in ("supervised", "weak")]
    assert len(result.per_path) == 8
    assert all(err < 1e-6 for err, _ in result.per_path.values())
    assert "PASS" in result.summary()


def test_gradcheck_catches_broken_tanh_grad(monkeypatch):
    def broken(out, gout):
        return gout * (1.0 - out)  # missing the square

    monkeypatch.setattr(ops, "tanh_grad", broken)
    result = gradcheck.run_gradcheck(seed=0)
    assert not result.passed
    assert "FAIL" in result.summary()


def test_gradcheck_covers_the_aux_heads(monkeypatch):
    real = trainer.aux_objective

    def doubled_head_grads(*args):
        loss, grads, dh_a, dh_v = real(*args)
        doubled = grads.bundle.map(lambda rows: Rows(2.0 * rows.g, rows.x))
        return loss, RowGrads(doubled), dh_a, dh_v

    monkeypatch.setattr(trainer, "aux_objective", doubled_head_grads)
    result = gradcheck.run_gradcheck(seed=0)
    failed = {path for path, (err, _) in result.per_path.items()
              if err >= result.tolerance}
    assert failed == {"label_guided/supervised", "label_guided/weak"}
    assert not result.passed and result.worst_tensor.startswith("aux_")


def test_gradcheck_catches_broken_sigmoid_grad(monkeypatch):
    def broken(out, gout):
        return gout * out

    monkeypatch.setattr(ops, "sigmoid_grad", broken)
    assert not gradcheck.run_gradcheck(seed=0).passed


def test_relative_error_denominator_is_guarded():
    a = {"w": np.array([0.0, 1e-9]), "b": np.zeros(2)}
    n = {"w": np.array([0.0, 0.0]), "b": np.zeros(2)}
    err, worst = gradcheck.max_relative_error(a, n)
    assert np.isfinite(err)
    assert err == 1e-9  # |a - 0| / max(1, 0)
    assert worst == "w"


def test_all_zero_parameters_are_degenerate_but_safe():
    params = model.init_model_params(3, 4, 4, 2, np.random.default_rng(0),
                                     np.float64).map(np.zeros_like)
    rng = np.random.default_rng(0)
    audio = rng.uniform(-1, 1, size=(3, 3))
    visual = rng.uniform(-1, 1, size=(3, 4))
    labels = np.array([0, 2, 1])
    trace = model.forward(params, audio, visual)
    _, grads = model.supervised_loss(trace, labels)
    tensors = dict(params.tensors())

    def value():
        tr = model.forward(params, audio, visual)
        return model.supervised_objective(tr, labels)[0]

    numeric = gradcheck.finite_difference_grads(value, tensors)
    err, _ = gradcheck.max_relative_error(dict(grads.tensors()), numeric)
    assert np.isfinite(err)
    assert err < 1e-4


def test_finite_differences_restore_perturbed_entries():
    tensors = {"w": np.array([1.0, 2.0])}
    gradcheck.finite_difference_grads(lambda: float(tensors["w"].sum()), tensors)
    assert np.array_equal(tensors["w"], [1.0, 2.0])
