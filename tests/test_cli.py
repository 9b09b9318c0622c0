import re

import numpy as np
import pytest

from avloc import checkpoint, cli, model
from avloc.ops import Precision
from avloc.trainer import ConfigError


def test_read_config_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\n  lr = 0.5\nhidden=9\n")
    assert cli.read_config(path) == {"lr": "0.5", "hidden": "9"}


def test_read_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("lr 0.5\n")
    with pytest.raises(ConfigError):
        cli.read_config(path)


def test_read_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"lr=0.5\nhidden=\xff9\n")
    with pytest.raises(ConfigError) as info:
        cli.read_config(path)
    assert str(path) in str(info.value) and "UTF-8" in str(info.value)


def test_synth_config_from_file_values():
    cfg = cli.build_synth_config({"num_events": "3", "noise_sigma": "0.25",
                                  "train_videos": "7"})
    assert cfg.num_events == 3
    assert cfg.noise_sigma == 0.25
    assert cfg.train_videos == 7


def test_synth_config_rejects_unknown_or_bad_values():
    with pytest.raises(ConfigError):
        cli.build_synth_config({"bogus": "1"})
    with pytest.raises(ConfigError):
        cli.build_synth_config({"num_events": "many"})


def parse_train(extra):
    return cli.make_parser().parse_args(
        ["train", "--manifest", "m.txt", "--out", "m.ckpt"] + extra)


def test_flags_override_config_file():
    file_values = {"lr": "0.5", "hidden": "9", "setting": "weak",
                   "patience": "none", "clip_norm": "none",
                   "precision": "checking", "init": "label_guided",
                   "batch_size": "3", "aux_weight": "0.25"}
    args = parse_train(["--lr", "0.25", "--seed", "5"])
    cfg = cli.build_train_config(file_values, args)
    assert cfg.lr == 0.25          # flag wins
    assert cfg.seed == 5
    assert cfg.hidden_size == 9    # file value survives
    assert cfg.setting == "weak"
    assert cfg.init_mode == "label_guided"
    assert cfg.patience is None
    assert cfg.clip_norm is None
    assert cfg.precision is Precision.CHECKING
    assert cfg.batch_size == 3
    assert cfg.aux_weight == 0.25


def test_patience_and_clip_flags_accept_none():
    args = parse_train(["--patience", "none", "--clip-norm", "none"])
    cfg = cli.build_train_config({}, args)
    assert cfg.patience is None and cfg.clip_norm is None
    args = parse_train(["--patience", "7", "--clip-norm", "2.5"])
    cfg = cli.build_train_config({}, args)
    assert cfg.patience == 7 and cfg.clip_norm == 2.5


def test_unknown_train_key_is_rejected():
    args = parse_train([])
    with pytest.raises(ConfigError):
        cli.build_train_config({"momentum": "0.9"}, args)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth + one trained checkpoint, shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.cfg"
    synth_cfg.write_text(
        "num_events=2\naudio_dim=5\nvisual_dim=4\nnum_segments=4\n"
        "train_videos=6\nval_videos=2\ntest_videos=2\nnoise_sigma=0.1\nseed=5\n")
    assert cli.main(["synth", "--config", str(synth_cfg),
                     "--out", str(root / "ds")]) == 0
    ckpt = root / "model.ckpt"
    assert cli.main(["train", "--manifest", str(root / "ds/manifest.txt"),
                     "--setting", "supervised", "--init", "fusion",
                     "--seed", "1", "--epochs", "3", "--hidden", "6",
                     "--out", str(ckpt)]) == 0
    return root


def test_synth_reports_counts(pipeline, capsys):
    assert cli.main(["synth", "--config", str(pipeline / "synth.cfg"),
                     "--out", str(pipeline / "ds2")]) == 0
    out = capsys.readouterr().out
    assert "wrote 10 videos (train 6 / val 2 / test 2)" in out


def test_train_logs_one_line_per_epoch(pipeline, capsys):
    out = pipeline / "again.ckpt"
    assert cli.main(["train", "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--setting", "supervised", "--seed", "1",
                     "--epochs", "3", "--hidden", "6",
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l]
    assert len(lines) == 3
    for i, line in enumerate(lines, 1):
        fields = line.split("\t")
        assert len(fields) == 3 and int(fields[0]) == i
    assert "checkpoint written" in captured.err


def test_repeat_training_is_byte_identical(pipeline):
    first = (pipeline / "model.ckpt").read_bytes()
    out = pipeline / "repeat.ckpt"
    assert cli.main(["train", "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--setting", "supervised", "--init", "fusion",
                     "--seed", "1", "--epochs", "3", "--hidden", "6",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_eval_prints_accuracy_and_per_class_table(pipeline, capsys):
    assert cli.main(["eval", "--checkpoint", str(pipeline / "model.ckpt"),
                     "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--split", "test"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert re.match(r"accuracy \d\.\d{4} over \d+ segments", out[0])
    assert len(out) == 4  # overall + two events + background
    assert out[-1].lstrip().startswith("background")


def test_eval_errors_exit_nonzero(pipeline, capsys):
    code = cli.main(["eval", "--checkpoint", str(pipeline / "missing.ckpt"),
                     "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--split", "test"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")

    wrong = model.init_model_params(9, 9, 4, 2, np.random.default_rng(0))
    checkpoint.save_model(wrong, pipeline / "wrong.ckpt")
    code = cli.main(["eval", "--checkpoint", str(pipeline / "wrong.ckpt"),
                     "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--split", "test"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_setting_exits_nonzero(pipeline, capsys):
    cfg = pipeline / "bad.cfg"
    cfg.write_text("setting=semi\n")
    code = cli.main(["train", "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--epochs", "1", "--config", str(cfg),
                     "--out", str(pipeline / "x.ckpt")])
    assert code == 1
    assert "setting" in capsys.readouterr().err


def test_gradcheck_command_reports_pass(capsys):
    assert cli.main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "supervised" in out and "weak" in out
