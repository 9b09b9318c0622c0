"""Command-line interface: synth, train, eval, gradcheck.

Options can come from a line-oriented `key=value` config file; explicit
flags override file values.  Known failures (bad files, dimension
mismatches, invalid configs) print a message to stderr and exit 1.
"""

import argparse
import dataclasses
import sys
import typing

from . import checkpoint, data, gradcheck, optim, trainer
from .binio import FormatError
from .data import ManifestError, SynthConfig, read_text
from .model import cast_model
from .ops import Precision, ShapeError
from .trainer import INIT_MODES, SETTINGS, ConfigError, TrainConfig


def read_config(path) -> dict:
    """Parse `key=value` lines of UTF-8 text; blank lines and `#` comments
    are skipped, and a key given twice is a ConfigError."""
    text = read_text(path, ConfigError)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value, got %r"
                              % (path, lineno, line))
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError("%s:%d: repeated key %s" % (path, lineno, key))
        values[key] = value.strip()
    return values


# option name -> config field, where they differ
_FIELD_NAMES = {"init": "init_mode", "hidden": "hidden_size"}


def _convert(key: str, text: str, field_type):
    """`text` as a value of a config field's annotated type; a field typed
    `X | None` also takes `none`."""
    if field_type is Precision:
        return _precision(text)
    base, *optional = typing.get_args(field_type) or (field_type,)
    if optional and text.lower() == "none":
        return None
    try:
        return base(text)
    except ValueError:
        raise ConfigError("%s: expected %s, got %r"
                          % (key, base.__name__, text)) from None


def _precision(text: str) -> Precision:
    try:
        return Precision(text)
    except ValueError:
        raise ConfigError("precision must be standard or checking, got %r"
                          % text) from None


def _build_config(cls, kind: str, file_values: dict, args=None):
    """A `cls` with the file's values set over its defaults, then the value
    of every flag in `args` that was given.  An option is a field of `cls`,
    under its `_FIELD_NAMES` name where it has one."""
    renamed = {name: key for key, name in _FIELD_NAMES.items()}
    options = {renamed.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    flags = {key: getattr(args, key) for key in options
             if getattr(args, key, None) is not None}
    cfg = cls()
    for key, value in [*file_values.items(), *flags.items()]:
        if key not in options:
            raise ConfigError("unknown %s option %r" % (kind, key))
        # Flags that take "none" arrive as text, like a file's values.
        if isinstance(value, str):
            value = _convert(key, value, options[key].type)
        setattr(cfg, options[key].name, value)
    return cfg


def build_synth_config(file_values: dict) -> SynthConfig:
    return _build_config(SynthConfig, "synth", file_values)


def build_train_config(file_values: dict, args) -> TrainConfig:
    return _build_config(TrainConfig, "train", file_values, args)


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
    # A v1 checkpoint does not record its init mode, so eval cannot infer it.
    p.add_argument("--init", choices=sorted(INIT_MODES), required=True,
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
            optim.NanGradError, FloatingPointError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
