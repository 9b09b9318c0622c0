"""Every byte that the CLI writes for a small matrix of runs equals the
pinned one (`tools/golden.py`, `tests/golden/digests.json`).

A change that means to keep the bits leaves the digests as they are.  A
change that means to move them re-pins in a commit of its own and names
the tolerance tests that still hold.  On another numpy or BLAS build the
digests prove nothing either way, so the test fails and says so; it does
not skip.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def _tool():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_equal_the_pinned_digests(capsys):
    """On a mismatch the tool prints each output that differs, or, under
    another build, both builds and the re-pin command."""
    status = _tool().main([])
    assert status == 0, capsys.readouterr().out


def test_differences_name_each_changed_missing_and_new_output():
    golden = _tool()
    pinned = {"1": {"a": "0", "b": "1"}, "2": {"a": "0"}}
    got = {"1": {"a": "0", "b": "2", "c": "3"}}
    assert golden.differences(pinned, got) == [
        "1 BLAS thread(s): b changed", "1 BLAS thread(s): c not pinned",
        "2 BLAS thread(s): a missing"]
