"""The README's python examples run as written and say what they compute."""

import dataclasses
import os
import re

import pytest

from ppboot import EstimandSpec
from conftest import make_pair

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)


def _trailing_comparison(block):
    """The expression in the block's trailing ``# == ...`` comment."""
    lines = block.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("# == "))
    return " ".join(line.lstrip("#").strip() for line in lines[start:]).removeprefix("== ")


@pytest.fixture
def namespace():
    labeled, unlabeled = make_pair(n=40, N=200, seed=11)
    return {
        "X": labeled.features, "y": labeled.outcomes, "f_labeled": labeled.predictions,
        "X_new": unlabeled.features, "f_unlabeled": unlabeled.predictions,
        "spec": EstimandSpec("mean"),
    }


def test_blocks_run_and_steps_equal_the_interval(namespace, capsys):
    library, steps = _python_blocks()
    exec(library, namespace)
    assert capsys.readouterr().out.split() == [
        repr(namespace["ci"].lower), repr(namespace["ci"].upper), repr(namespace["ci"].lambda_used)
    ]
    exec(steps, namespace)
    expected = eval(_trailing_comparison(steps), namespace)
    for field in dataclasses.fields(expected):
        assert getattr(namespace["ci"], field.name) == getattr(expected, field.name), field.name
