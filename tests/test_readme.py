"""The library tour in README.md runs, and each of its claims holds.

A claim is a line of the tour's ``python`` block whose code is an
expression followed by ``# value``; the value is the comment text before
any `` -- ``.  Every other line runs as it stands.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_lines():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S)
    assert block, "README.md has no python block"
    return block.group(1).splitlines()


def test_readme_tour_claims_hold():
    namespace = {}
    claims = 0
    for line in tour_lines():
        code, _, comment = line.partition("#")
        statement = ast.parse(code.strip() or "pass").body
        if comment and statement and isinstance(statement[0], ast.Expr):
            value = comment.split(" -- ")[0].strip()
            assert eval(code, namespace) == eval(value, namespace), line
            claims += 1
        else:
            exec(code, namespace)
    assert claims >= 5
