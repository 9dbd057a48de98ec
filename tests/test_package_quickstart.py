"""The quick start in ``repro``'s package docstring runs as written."""

import textwrap

import numpy as np

import repro


def test_package_docstring_quick_start_runs():
    block = repro.__doc__.split("Quick start::", 1)[1]
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    assert isinstance(namespace["verdict"], (bool, np.bool_))
