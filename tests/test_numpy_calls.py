"""The package calls numpy's ufuncs and C methods on every command's path, not their Python-level wrappers.

Each wrapper named in WRAPPERS is a Python frame, often two with its
dispatcher, around one call the package can make itself: ``np.add.reduce``
for ``ndarray.sum`` and ``np.sum``, ``np.zeros(shape)`` for
``np.zeros_like``, norm's own dot formula for ``np.linalg.norm``, and so on.
A profile hook records every Python frame of numpy entered straight from a
frame of ``src/mspace`` while a command runs; none may be a wrapper. The
wrappers whose Python code does work the package needs (a two-sided
``clip``, ``einsum``, ``linspace``, the ``np.linalg`` decompositions) are
not named.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mspace import cli

NUMPY = Path(np.__file__).parent
PACKAGE = Path(cli.__file__).parent
DATA = Path(__file__).parent / "data"

# (file under numpy, qualified name) of each wrapper
WRAPPERS = {
    *(("_core/_methods.py", name) for name in ("_sum", "_prod", "_amax", "_amin", "_all", "_any")),
    ("_core/fromnumeric.py", "sum"),
    ("_core/fromnumeric.py", "cumsum"),
    ("_core/fromnumeric.py", "diagonal"),
    ("_core/numeric.py", "zeros_like"),
    ("_core/numeric.py", "indices"),
    ("linalg/_linalg.py", "norm"),
    ("lib/_function_base_impl.py", "vectorize.__call__"),
    ("lib/_shape_base_impl.py", "split"),
}

NOISY = ["--alice", "noisy:0.8", "--bob", "noisy:0.7"]
# one line of each subcommand, the paper's Bell state under noisy detectors among them, and file inputs
LINES = [
    ["map", "--state", "bell", *NOISY],
    ["map", "--state", str(DATA / "rank2_qutrits.json"), "--measurements", "random:4:1"],
    ["entanglement", "--state", "bell", *NOISY, "--measure", "entropy"],
    ["entanglement", "--state", str(DATA / "rank2_qutrits.json"), "--measure", "eof"],
    ["theorem1", "--random", "--seed", "1", "--trials", "5", "--dims", "2,3", "--outcomes", "3"],
    ["locc", "--state", "bell", "--alice", "z-projectors", "--bob", "noisy:0.9", "--all-outcomes"],
    ["locc", "--state", "random:3", "--dims", "3,3", "--alice", "random:3:1", "--bob", "random:2:2"],
    ["konrad", "--seed", "1", "--trials", "5", "--two-sided"],
    ["konrad", "--seed", "1", "--trials", "5"],
    ["modes", "--n-max", "12", "--m-max", "5"],
    ["sweep", "--eta-start", "0.6", "--eta-end", "0.9", "--steps", "6"],
]


def numpy_entries(run) -> set[tuple[str, str]]:
    """Each Python function of numpy that ``run()`` enters straight from a frame of the package."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_back is not None:
            callee, caller = Path(frame.f_code.co_filename), Path(frame.f_back.f_code.co_filename)
            if caller.parent == PACKAGE and NUMPY in callee.parents:
                seen.add((callee.relative_to(NUMPY).as_posix(), frame.f_code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_no_command_calls_a_numpy_wrapper(capsys, argv):
    codes = []
    entered = numpy_entries(lambda: codes.append(cli.main(argv)))
    assert codes == [0], capsys.readouterr().err
    assert entered & WRAPPERS == set()


def test_every_subcommand_has_a_line():
    assert {argv[0] for argv in LINES} == set(cli.COMMANDS)


def test_the_hook_sees_wrappers_called_from_the_package():
    # a frame whose code is filed under the package, as the package's own frames are
    probe = compile(
        "np.sum(x); x.max(); x.all(); np.zeros_like(x); np.linalg.norm(x); np.split(x, 2); np.linspace(0, 1)",
        str(PACKAGE / "probe.py"),
        "exec",
    )
    entered = numpy_entries(lambda: exec(probe, {"np": np, "x": np.ones(4)}))
    assert entered & WRAPPERS == {
        ("_core/fromnumeric.py", "sum"),
        ("_core/_methods.py", "_amax"),
        ("_core/_methods.py", "_all"),
        ("_core/numeric.py", "zeros_like"),
        ("linalg/_linalg.py", "norm"),
        ("lib/_shape_base_impl.py", "split"),
    }
    assert ("_core/function_base.py", "linspace") in entered
    # the same calls from a frame outside the package are not recorded
    assert numpy_entries(lambda: exec(compile("np.sum(x)", __file__, "exec"), {"np": np, "x": np.ones(4)})) == set()
