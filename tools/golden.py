"""Pin the bytes that avloc writes, so that a change meant to keep them can
prove that it does.

Runs a small matrix through `avloc.cli.main`, once per BLAS thread count
(1 and 2), each in a subprocess of its own started with that count:

    synth       36 videos at the acceptance shape, 20 of them test
                videos, so that evaluation ends on a ragged chunk, and
                12 train videos in batches of 5, a ragged last batch
    train, eval supervised/fusion, weak/label_guided, weak/fusion,
                supervised/visual_only and supervised/fusion with
                --clip-norm 0.05, each in standard (float32) and in
                checking (float64) precision
    gradcheck   --seed 0

and takes the SHA-256 of every output: the feature files, the manifest,
the checkpoints, each command's printed lines (epoch logs, eval reports,
the gradcheck report).  `tests/golden/digests.json` holds the digests
together with the numpy version and BLAS build that made them; bits can
differ on another build, so the digests are compared only under the
build that pinned them.

Usage:
    python3 tools/golden.py          compare with tests/golden/digests.json
    python3 tools/golden.py --pin    rewrite tests/golden/digests.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "golden" / "digests.json"
PIN_COMMAND = "python3 tools/golden.py --pin"
THREADS = (1, 2)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The acceptance shape (C = 4, d_a = 16, d_v = 24, T = 10, h = 32), few videos.
SYNTH = dict(num_events=4, audio_dim=16, visual_dim=24, num_segments=10,
             train_videos=12, val_videos=4, test_videos=20, seed=0)
TRAIN = ["--epochs", "3", "--batch-size", "5", "--hidden", "32", "--seed", "1"]
# (name, setting, init, extra train flags)
CASES = (
    ("supervised-fusion", "supervised", "fusion", []),
    ("weak-label_guided", "weak", "label_guided", []),
    ("weak-fusion", "weak", "fusion", []),
    ("supervised-visual_only", "supervised", "visual_only", []),
    ("supervised-fusion-clip", "supervised", "fusion", ["--clip-norm", "0.05"]),
)
PRECISIONS = ("standard", "checking")


def build() -> dict:
    """The numpy version and BLAS build, whose arithmetic the digests pin."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                               blas.get("openblas configuration", ""))
    except (TypeError, KeyError):  # numpy before 1.26
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _cli(name: str, argv: list) -> None:
    """Run one command with `avloc.cli.main` and keep what it prints,
    stdout and stderr in order, in `<name>.out`."""
    # Imported here: only the matrix's subprocess has the package on its path.
    from avloc import cli

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        status = cli.main(argv)
    Path(name + ".out").write_text(printed.getvalue(), encoding="utf-8")
    if status != 0:
        raise SystemExit("%s exited %d:\n%s" % (name, status, printed.getvalue()))


def run_matrix() -> None:
    """The whole matrix, written under the current directory with relative
    paths, so that every printed line is the same in any directory."""
    Path("synth.cfg").write_text(
        "".join("%s=%s\n" % item for item in SYNTH.items()), encoding="utf-8")
    _cli("synth", ["synth", "--config", "synth.cfg", "--out", "data"])
    for name, setting, init, extra in CASES:
        for precision in PRECISIONS:
            run = "%s-%s" % (name, precision)
            _cli("train-" + run, ["train", "--manifest", "data/manifest.txt",
                                  "--setting", setting, "--init", init,
                                  "--precision", precision, *TRAIN, *extra,
                                  "--out", run + ".ckpt"])
            _cli("eval-" + run, ["eval", "--checkpoint", run + ".ckpt",
                                 "--manifest", "data/manifest.txt",
                                 "--split", "test", "--init", init,
                                 "--precision", precision])
    _cli("gradcheck", ["gradcheck", "--seed", "0"])


def _start(threads: int, workdir: Path) -> subprocess.Popen:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARIABLES, str(threads)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--run-here"], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def _hash_tree(workdir: Path) -> dict:
    return {path.relative_to(workdir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def digests(workdir: Path) -> dict:
    """{thread count: {output path: SHA-256}}, from one subprocess per BLAS
    thread count, run side by side, each in a directory under workdir."""
    runs = {}
    for threads in THREADS:
        (workdir / str(threads)).mkdir()
        runs[str(threads)] = _start(threads, workdir / str(threads))
    failures = []
    for threads, proc in runs.items():
        output, _ = proc.communicate()
        if proc.returncode != 0:
            failures.append("%s BLAS thread(s):\n%s"
                            % (threads, output.decode(errors="replace")))
    if failures:
        raise RuntimeError("the matrix failed with " + "\n".join(failures))
    return {threads: _hash_tree(workdir / threads) for threads in runs}


def differences(pinned: dict, got: dict) -> list:
    """One line per output whose digest is not the pinned one, or that is
    missing on either side."""
    lines = []
    for threads in sorted(set(pinned) | set(got)):
        want, have = pinned.get(threads, {}), got.get(threads, {})
        for path in sorted(set(want) | set(have)):
            if want.get(path) != have.get(path):
                lines.append("%s BLAS thread(s): %s %s" % (
                    threads, path, "changed" if path in want and path in have
                    else "missing" if path in want else "not pinned"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pin", action="store_true",
                        help="rewrite %s" % PINNED.relative_to(ROOT))
    parser.add_argument("--run-here", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_here:
        run_matrix()
        return 0
    here = build()
    if not args.pin:
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        pinned_build = {key: pinned.get(key) for key in here}
        if pinned_build != here:
            print("the digests were pinned under another numpy or BLAS build "
                  "(%s; this is %s), so they prove nothing here; re-pin with %s"
                  % (pinned_build, here, PIN_COMMAND))
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    if args.pin:
        PINNED.parent.mkdir(parents=True, exist_ok=True)
        PINNED.write_text(json.dumps(dict(here, digests=got), indent=1,
                                     sort_keys=True) + "\n", encoding="utf-8")
        print("pinned %d digests in %s"
              % (sum(map(len, got.values())), PINNED.relative_to(ROOT)))
        return 0
    lines = differences(pinned["digests"], got)
    for line in lines:
        print(line)
    print("%d of %d outputs differ from the pinned digests"
          % (len(lines), sum(map(len, pinned["digests"].values()))))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
