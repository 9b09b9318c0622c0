"""Command-line interface: synth, train, eval, gradcheck.

Options can come from a line-oriented `key=value` config file; explicit
flags override file values.  Known failures (bad files, dimension
mismatches, invalid configs) print a message to stderr and exit 1.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import checkpoint, data, gradcheck, optim, trainer
from .binio import FormatError
from .data import ManifestError, SynthConfig
from .model import cast_model
from .ops import Precision, ShapeError
from .trainer import INIT_MODES, SETTINGS, ConfigError, TrainConfig


def read_config(path) -> dict:
    """Parse `key=value` lines of UTF-8 text; blank lines and `#` comments
    are skipped."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: not UTF-8 text at byte %d: %s"
                          % (path, exc.start, exc.reason)) from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value, got %r"
                              % (path, lineno, line))
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _convert(key: str, text: str, target_type):
    try:
        return target_type(text)
    except ValueError:
        raise ConfigError("%s: expected %s, got %r"
                          % (key, target_type.__name__, text)) from None


def _optional_float(key: str, text: str) -> float | None:
    return None if text.lower() == "none" else _convert(key, text, float)


def _optional_int(key: str, text: str) -> int | None:
    return None if text.lower() == "none" else _convert(key, text, int)


def _precision(text: str) -> Precision:
    try:
        return Precision(text)
    except ValueError:
        raise ConfigError("precision must be standard or checking, got %r"
                          % text) from None


def build_synth_config(file_values: dict) -> SynthConfig:
    cfg = SynthConfig()
    known = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
    for key, text in file_values.items():
        if key not in known:
            raise ConfigError("unknown synth option %r" % key)
        target = type(known[key])
        setattr(cfg, key, _convert(key, text, target))
    return cfg


_TRAIN_KEYS = ("setting", "init", "epochs", "batch_size", "lr", "beta1",
               "beta2", "eps", "clip_norm", "seed", "hidden", "precision",
               "patience", "aux_weight")
_INT_KEYS = ("epochs", "batch_size", "seed", "hidden")
_FLOAT_KEYS = ("lr", "beta1", "beta2", "eps", "aux_weight")
# option name -> TrainConfig field, where they differ
_TRAIN_FIELDS = {"init": "init_mode", "hidden": "hidden_size"}


def _parse_train_value(key: str, text: str):
    if key in ("setting", "init"):
        return text
    if key in _INT_KEYS:
        return _convert(key, text, int)
    if key in _FLOAT_KEYS:
        return _convert(key, text, float)
    if key == "clip_norm":
        return _optional_float(key, text)
    if key == "patience":
        return _optional_int(key, text)
    if key == "precision":
        return _precision(text)
    raise ConfigError("unknown train option %r" % key)


def build_train_config(file_values: dict, args) -> TrainConfig:
    cfg = TrainConfig()
    for key, text in file_values.items():
        setattr(cfg, _TRAIN_FIELDS.get(key, key), _parse_train_value(key, text))
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is None:
            continue
        # clip_norm and patience arrive as raw strings so "none" works
        if isinstance(flag, str):
            flag = _parse_train_value(key, flag)
        setattr(cfg, _TRAIN_FIELDS.get(key, key), flag)
    return cfg


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avloc",
        description="Audio-visual event localization: synthetic data, "
                    "training, evaluation, gradient checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="key=value file of SynthConfig fields")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--setting", choices=SETTINGS)
    p.add_argument("--init", choices=sorted(INIT_MODES))
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", help="epochs without improvement, or 'none'")
    p.add_argument("--clip-norm", dest="clip_norm",
                   help="global gradient-norm cap, or 'none'")
    p.add_argument("--aux-weight", dest="aux_weight", type=float)
    p.add_argument("--precision", type=_precision)
    p.add_argument("--config", help="key=value file of train options")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True, choices=data.SPLITS)
    p.add_argument("--init", choices=sorted(INIT_MODES), default="fusion",
                   help="decoder-init mode the checkpoint was trained with")
    p.add_argument("--precision", type=_precision, default=Precision.STANDARD,
                   help="evaluate in standard (f32) or checking (f64) precision")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_synth(args) -> int:
    cfg = build_synth_config(read_config(args.config) if args.config else {})
    manifest = data.generate_synthetic(cfg, args.out)
    print("wrote %d videos (train %d / val %d / test %d) under %s"
          % (len(manifest.entries), len(manifest.split("train")),
             len(manifest.split("val")), len(manifest.split("test")), args.out))
    return 0


def cmd_train(args) -> int:
    cfg = build_train_config(read_config(args.config) if args.config else {},
                             args)
    manifest = data.read_manifest(args.manifest)
    result = trainer.train(manifest, cfg, log=print)
    checkpoint.save_model(result.params, args.out)
    print("best val accuracy %.4f at epoch %d; checkpoint written to %s"
          % (result.best_val_accuracy, result.best_epoch, args.out),
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    params = checkpoint.load_model(args.checkpoint)
    params = cast_model(params, args.precision.dtype)
    manifest = data.read_manifest(args.manifest)
    report = trainer.evaluate(params, manifest, args.split,
                                init_mode=INIT_MODES[args.init][0])
    for line in report.lines():
        print(line)
    return 0


def cmd_gradcheck(args) -> int:
    result = gradcheck.run_gradcheck(seed=args.seed)
    print(result.summary())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = {"synth": cmd_synth, "train": cmd_train,
               "eval": cmd_eval, "gradcheck": cmd_gradcheck}[args.command]
    try:
        return handler(args)
    except (ConfigError, FormatError, ManifestError, ShapeError,
            optim.NanGradError, FloatingPointError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
