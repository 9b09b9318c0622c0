"""The step loops of `run_lstm` and `lstm_sequence_backward` make only
direct numpy calls.

On rows of 32-512 elements a numpy call costs far more than its
arithmetic, and the slow forms cost two to four times a ufunc called with
an output buffer: an in-place operator (`x += y`), a binary operator (`a *
b`, which also allocates its result) and `np.concatenate`.  A call into a
function of the package costs a Python frame per step, and the
benchmark's tracer wraps every public one in a span.  A subscript, as in
`gates[t]` or `z[:h]`, makes a new view each step; the row views come
prebuilt from `lstm.LstmBuffers` instead.  The check reads the syntax
tree of `lstm.py`.
"""

import ast
from pathlib import Path

import avloc

SRC = Path(avloc.__file__).resolve().parent
STEP_LOOPS = ("run_lstm", "lstm_sequence_backward")


def _package_names() -> set:
    """Names of every function and class defined in the package."""
    names = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names.update(node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return names


def _callee(node: ast.expr):
    """(name, whether it is a numpy attribute) of a called expression,
    or None for one of any other form."""
    if isinstance(node, ast.Attribute):
        return node.attr, isinstance(node.value, ast.Name) and node.value.id == "np"
    if isinstance(node, ast.Name):
        return node.id, False
    return None


def _aliases(fn: ast.FunctionDef) -> dict:
    """Local names that fn binds to a function, as in `mul = np.multiply`,
    `dot, add = np.dot, np.add` or `sig = ops.sigmoid`, to that function's
    `_callee` entry."""
    aliases = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        pairs = (zip(target.elts, value.elts)
                 if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                 else [(target, value)])
        for name, bound in pairs:
            if isinstance(name, ast.Name) and _callee(bound) is not None:
                aliases[name.id] = _callee(bound)
    return aliases


def loop_violations(fn: ast.FunctionDef, package_names: set) -> list:
    """(line, what) for each forbidden construct in the body of a `for`
    loop of fn."""
    aliases = _aliases(fn)
    found = []
    for loop in (node for node in ast.walk(fn) if isinstance(node, ast.For)):
        for node in (sub for stmt in loop.body for sub in ast.walk(stmt)):
            if isinstance(node, ast.AugAssign):
                found.append((node.lineno, "augmented assignment"))
            elif isinstance(node, ast.BinOp):
                found.append((node.lineno, "binary operator"))
            elif isinstance(node, ast.Subscript):
                found.append((node.lineno, "subscript"))
            elif isinstance(node, ast.Call) and _callee(node.func) is not None:
                name, numpy = _callee(node.func)
                if isinstance(node.func, ast.Name) and name in aliases:
                    name, numpy = aliases[name]
                if numpy and name == "concatenate":
                    found.append((node.lineno, "np.concatenate"))
                elif not numpy and name in package_names:
                    found.append((node.lineno, "call to avloc's %s" % name))
    return found


def _functions(source: str) -> dict:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def test_lstm_step_loops_make_only_direct_numpy_calls():
    functions = _functions((SRC / "lstm.py").read_text(encoding="utf-8"))
    names = _package_names()
    for name in STEP_LOOPS:
        assert any(isinstance(node, ast.For) for node in ast.walk(functions[name]))
        assert loop_violations(functions[name], names) == [], name


def test_the_guard_catches_each_forbidden_form():
    source = '''
def step(u, zs, c, f, ig):
    mul = np.multiply
    sig = ops.sigmoid
    for z in zs:
        c += ig
        h = u @ z
        mul(f, np.concatenate((c, c)), c)
        ops.sigmoid(z, out=z)
        sig(z)
        np.tanh(c, c)
        np.tanh(zs[0], c)
'''
    found = loop_violations(_functions(source)["step"], {"sigmoid"})
    assert [what for _, what in found] == [
        "augmented assignment", "binary operator", "np.concatenate",
        "call to avloc's sigmoid", "call to avloc's sigmoid", "subscript"]


def test_the_guard_catches_a_row_taken_in_the_step_loop():
    """lstm.py itself, with the unroll writing its candidate gate into
    `gates[t]` instead of the prebuilt row view."""
    source = (SRC / "lstm.py").read_text(encoding="utf-8")
    assert source.count("tanh(z_g, g)") == 1
    mutant = source.replace("tanh(z_g, g)", "tanh(z_g, gates[t])")
    found = loop_violations(_functions(mutant)["run_lstm"], _package_names())
    assert [what for _, what in found] == ["subscript"]
