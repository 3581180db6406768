"""Checks on the package source itself."""

import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

# a read of a private numpy name: numpy._core, np._NoValue, ...
PRIVATE_NUMPY = re.compile(rb"\b(numpy|np)\._")


def private_numpy_reads(root):
    """``path:line`` of every line under ``root`` that reads a private
    numpy module or name, as ``grep -rnE '\\b(numpy|np)\\._'`` finds them."""
    return [f"{path}:{n}" for path in sorted(root.rglob("*"))
            if path.is_file()
            for n, line in enumerate(path.read_bytes().splitlines(), 1)
            if PRIVATE_NUMPY.search(line)]


def test_src_uses_public_numpy_only(tmp_path):
    """No file under src/ reads a private numpy module or name, which a
    numpy release may move or drop; the scan finds a planted one."""
    assert private_numpy_reads(SRC) == []
    (tmp_path / "a.py").write_text("import numpy as np\nx = np._NoValue\n")
    assert private_numpy_reads(tmp_path) == [f"{tmp_path / 'a.py'}:2"]
