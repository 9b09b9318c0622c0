import dataclasses
import re
import typing

import numpy as np
import pytest

from avloc import binio, checkpoint, cli, data, model
from avloc.data import SynthConfig
from avloc.ops import Precision
from avloc.trainer import ConfigError, TrainConfig


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


@pytest.mark.parametrize("key", ["beta1", "beta2", "eps", "init_mode",
                                 "hidden_size"])
def test_adam_constants_and_field_names_are_not_train_options(key):
    with pytest.raises(ConfigError) as info:
        cli.build_train_config({key: "0.5"}, parse_train([]))
    assert str(info.value) == "unknown train option %r" % key


# (config class, option name, field) for every field of both configs
RENAMED = {"init_mode": "init", "hidden_size": "hidden"}
OPTIONS = [(cls, RENAMED.get(f.name, f.name), f)
           for cls in (TrainConfig, SynthConfig) for f in dataclasses.fields(cls)]
SAMPLES = {int: ("7", 7), float: ("0.375", 0.375), str: ("weak", "weak"),
           Precision: ("checking", Precision.CHECKING)}


def build(cls, values: dict):
    if cls is TrainConfig:
        return cli.build_train_config(values, parse_train([]))
    return cli.build_synth_config(values)


def test_the_optional_fields_are_patience_and_clip_norm():
    optional = {f.name for _, _, f in OPTIONS
                if type(None) in typing.get_args(f.type)}
    assert optional == {"patience", "clip_norm"}


@pytest.mark.parametrize("cls,key,field", OPTIONS,
                         ids=["%s.%s" % (c.__name__, k) for c, k, _ in OPTIONS])
def test_every_config_field_is_an_option_of_its_type(cls, key, field):
    base = (typing.get_args(field.type) or (field.type,))[0]
    text, value = SAMPLES[base]
    assert getattr(build(cls, {key: text}), field.name) == value

    # "none" is None for exactly the `X | None` fields; any other field
    # rejects it, when it is built or when it is validated.
    if type(None) in typing.get_args(field.type):
        cfg = build(cls, {key: "None"})
        assert getattr(cfg, field.name) is None
        cfg.validate()
    else:
        with pytest.raises(ConfigError):
            build(cls, {key: "none"}).validate()

    if base in (int, float):
        with pytest.raises(ConfigError) as info:
            build(cls, {key: "x1"})
        assert str(info.value) == "%s: expected %s, got 'x1'" % (key, base.__name__)
    elif base is Precision:
        with pytest.raises(ConfigError) as info:
            build(cls, {key: "x1"})
        assert str(info.value) == "precision must be standard or checking, got 'x1'"


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
                     "--split", "test", "--init", "fusion"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert re.match(r"accuracy \d\.\d{4} over \d+ segments", out[0])
    assert len(out) == 4  # overall + two events + background
    assert out[-1].lstrip().startswith("background")


def test_eval_errors_exit_nonzero(pipeline, capsys):
    code = cli.main(["eval", "--checkpoint", str(pipeline / "missing.ckpt"),
                     "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--split", "test", "--init", "fusion"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")

    wrong = model.init_model_params(9, 9, 4, 2, np.random.default_rng(0))
    checkpoint.save_model(wrong, pipeline / "wrong.ckpt")
    code = cli.main(["eval", "--checkpoint", str(pipeline / "wrong.ckpt"),
                     "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--split", "test", "--init", "fusion"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_without_init_exits_2(pipeline, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(pipeline / "model.ckpt"),
                  "--manifest", str(pipeline / "ds/manifest.txt"),
                  "--split", "test"])
    assert exc.value.code == 2
    assert "--init" in capsys.readouterr().err


@pytest.mark.parametrize("line,name", [
    ("noise_sigma=nan", "noise_sigma"), ("train_videos=-3", "train_videos")])
def test_synth_rejects_a_config_it_cannot_honour(tmp_path, capsys, line, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not out.exists()


def test_bad_config_setting_exits_nonzero(pipeline, capsys):
    cfg = pipeline / "bad.cfg"
    cfg.write_text("setting=semi\n")
    code = cli.main(["train", "--manifest", str(pipeline / "ds/manifest.txt"),
                     "--epochs", "1", "--config", str(cfg),
                     "--out", str(pipeline / "x.ckpt")])
    assert code == 1
    assert "setting" in capsys.readouterr().err


def write_features_with_no_audio(path, t=4, d_v=4, c=2):
    """A feature file whose header declares d_a = 0, which write_features
    refuses to write."""
    path.write_bytes(b"".join([
        data.MAGIC, binio.pack_u16(data.VERSION, "version"),
        *(binio.pack_u32(v, "dim") for v in (t, 0, d_v, c)),
        np.zeros((t, d_v), "<f4").tobytes(), np.full(t, c, "<u2").tobytes()]))


def user_error_argv(case, root):
    """argv of a command that fails on user input, in `root`."""
    manifest = str(root / "ds/manifest.txt")
    train = ["train", "--manifest", manifest, "--epochs", "1",
             "--out", str(root / "x.ckpt")]
    cfg = root / "case.cfg"
    if case == "synth_invalid":
        cfg.write_text("num_events=0\n")
        return ["synth", "--config", str(cfg), "--out", str(root / "s")]
    if case == "synth_negative_seed":
        cfg.write_text("seed=-1\n")
        return ["synth", "--config", str(cfg), "--out", str(root / "s")]
    if case == "train_negative_seed":
        return train + ["--seed", "-1"]
    if case == "gradcheck_negative_seed":
        return ["gradcheck", "--seed", "-1"]
    if case == "eval_class_count_mismatch":
        wrong = model.init_model_params(5, 4, 3, 3, np.random.default_rng(0))
        checkpoint.save_model(wrong, root / "c3.ckpt")
        return ["eval", "--checkpoint", str(root / "c3.ckpt"),
                "--manifest", manifest, "--split", "test", "--init", "fusion"]
    if case in ("manifest_zero_dim", "features_zero_dim"):
        (root / "zero").mkdir(exist_ok=True)
        write_features_with_no_audio(root / "zero/v.avsd")
        d_a = 0 if case == "manifest_zero_dim" else 5
        (root / "zero/manifest.txt").write_text(
            "C=2\nd_a=%d\nd_v=4\nT=4\ncategories=a,b\nv\ttrain\tv.avsd\n" % d_a)
        return ["train", "--manifest", str(root / "zero/manifest.txt"),
                "--out", str(root / "x.ckpt")]
    if case == "eval_empty_split":
        # the pipeline's data set without its test videos
        text = (root / "ds/manifest.txt").read_text()
        kept = [line for line in text.splitlines(keepends=True)
                if "\ttest\t" not in line]
        (root / "ds/no_test.txt").write_text("".join(kept))
        return ["eval", "--checkpoint", str(root / "model.ckpt"),
                "--manifest", str(root / "ds/no_test.txt"), "--split", "test",
                "--init", "fusion"]
    if case == "clip_norm_file":
        cfg.write_text("clip_norm=-1\n")
        return train + ["--config", str(cfg)]
    if case == "clip_norm_flag":
        return train + ["--clip-norm", "0"]
    if case == "lr_flag_nan":
        return train + ["--lr", "nan"]
    if case == "aux_weight_file_inf":
        cfg.write_text("aux_weight=inf\n")
        return train + ["--config", str(cfg)]
    raise AssertionError(case)


@pytest.mark.parametrize("case,names", [
    ("synth_invalid", "num_events"), ("synth_negative_seed", "seed"),
    ("train_negative_seed", "seed"), ("gradcheck_negative_seed", "seed"),
    ("eval_class_count_mismatch", "C=3"), ("eval_empty_split", "'test'"),
    ("manifest_zero_dim", "d_a"), ("features_zero_dim", "d_a"),
    ("clip_norm_file", "clip_norm"), ("clip_norm_flag", "clip_norm"),
    ("lr_flag_nan", "learning rate"), ("aux_weight_file_inf", "aux_weight")])
def test_user_errors_exit_1_with_a_message(pipeline, capsys, case, names):
    code = cli.main(user_error_argv(case, pipeline))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and names in err


def test_a_value_error_from_the_program_is_not_a_user_error(pipeline, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(cli.trainer, "train", broken)
    with pytest.raises(ValueError, match="a programming error"):
        cli.main(["train", "--manifest", str(pipeline / "ds/manifest.txt"),
                  "--out", str(pipeline / "x.ckpt")])


def test_gradcheck_command_reports_pass(capsys):
    assert cli.main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "supervised" in out and "weak" in out
