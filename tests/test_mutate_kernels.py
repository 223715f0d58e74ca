"""The sites and mutants of ``tools/mutate_kernels.py``, without running ``verify``."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutate_kernels.py"
_SPEC = importlib.util.spec_from_file_location("mutate_kernels", _PATH)
mutate_kernels = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate_kernels)

SOURCE = '''
X = 1 + 2


def f(a, b=-1):
    return -a.conj() + b - 3
'''


def test_one_mutant_per_site_in_function_bodies_only():
    got = []
    for index, line, description, text in mutate_kernels.mutants(SOURCE):
        module = ast.parse(text)
        assert ast.unparse(module.body[0]) == "X = 1 + 2" and ast.unparse(module.body[1].args) == "a, b=-1"
        got.append((index, line, description, ast.unparse(module.body[1].body[0])))
    assert got == [
        (0, 6, ".conj() dropped", "return -a + b - 3"),
        (1, 6, "unary minus dropped", "return a.conj() + b - 3"),
        (2, 6, "+ -> -", "return -a.conj() - b - 3"),
        (3, 6, "- -> +", "return -a.conj() + b + 3"),
    ]


def test_every_kernel_module_has_sites():
    src = _PATH.parent.parent / "src" / "weylkit"
    for name in mutate_kernels.TARGETS:
        assert any(True for _ in mutate_kernels.mutants((src / name).read_text()))
