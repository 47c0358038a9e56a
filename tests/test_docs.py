"""The public surface states its contracts, and the README's examples run and parse."""

import inspect
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import hklocal as hk
from hklocal.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _public_callables():
    """(name, object) of every function and class in ``hklocal.__all__``
    and of each public method, not property, that a class defines itself."""
    for name in hk.__all__:
        obj = getattr(hk, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _has_docstring(obj) -> bool:
    doc = obj.__doc__
    # A dataclass without a docstring gets its signature, "Name(field, ...)".
    return bool(doc and doc.strip()) and not (
        inspect.isclass(obj) and doc.startswith(obj.__name__ + "("))


def test_public_functions_classes_and_methods_have_docstrings():
    names = [name for name, _ in _public_callables()]
    assert "Graph.compact_id" in names and "KrylovOperator.solve" in names
    assert "DirichletOperator.s" not in names  # a property
    missing = [name for name, obj in _public_callables() if not _has_docstring(obj)]
    assert missing == []


def test_readme_quick_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    x_exact = np.asarray(namespace["x_exact"])
    assert x_exact.shape == (20,) and np.isfinite(x_exact).all()


def test_readme_command_lines_parse():
    # Each example of README "Command line" gives its command only flags the
    # command takes.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\nFIX=.*?```", text, re.S).group(0)
    lines = [line for line in block.splitlines() if line.startswith("hklocal ")]
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            assert _build_parser().parse_args(argv).command == argv[0]
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
