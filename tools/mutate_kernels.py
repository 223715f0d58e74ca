"""Mutation score of ``weylkit verify`` over the kernels in channels.py, weyl.py and dilation.py.

Usage (from the root of a checkout)::

    python tools/mutate_kernels.py

Each mutant changes one site in one function body: a ``+`` turned into ``-``
or back, a unary minus dropped, or a ``.conj()`` dropped (mutation analysis:
DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).  The mutated
module is written into a temporary copy of ``src/``; the checkout itself is
never edited.  Each mutant runs

    python -m weylkit verify --d 2,3,5,8 --draws 2 --out <tmp>/report.json

with a 120-s timeout, and is classified by the outcome: exit 0 is *survived*,
exit 1 with a report that parses and reads ``fail`` is *caught*, anything
else (another exit code, a missing or unreadable report, a timeout) is
*crashed*.  The script prints the counts and every survivor and crashed
mutant, and exits 1 if any mutant crashed or the unmutated copy does not
pass.  Survivors are listed, not failed.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ("channels.py", "weyl.py", "dilation.py")
VERIFY = ["-m", "weylkit", "verify", "--d", "2,3,5,8", "--draws", "2", "--out"]
TIMEOUT_S = 120


class _Mutator(ast.NodeTransformer):
    """Visit the mutation sites inside function bodies in a fixed order, and mutate the ``target``-th one."""

    def __init__(self, target: int = -1):
        self.target = target
        self.sites: list[tuple[int, str]] = []  # (line, description) of every site seen
        self.depth = 0

    def visit_FunctionDef(self, node):
        self.depth += 1  # the body only: no decorator, default or annotation is mutated
        node.body = [self.visit(stmt) for stmt in node.body]
        self.depth -= 1
        return node

    def _site(self, node, description: str, mutant):
        if not self.depth:
            return node
        self.sites.append((node.lineno, description))
        return mutant() if len(self.sites) - 1 == self.target else node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        swap = {ast.Add: (ast.Sub, "+ -> -"), ast.Sub: (ast.Add, "- -> +")}.get(type(node.op))
        if swap is None:
            return node
        return self._site(node, swap[1], lambda: ast.BinOp(node.left, swap[0](), node.right))

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.USub):
            return node
        return self._site(node, "unary minus dropped", lambda: node.operand)

    def visit_Call(self, node):
        self.generic_visit(node)
        f = node.func
        if not (isinstance(f, ast.Attribute) and f.attr == "conj" and not node.args and not node.keywords):
            return node
        return self._site(node, ".conj() dropped", lambda: f.value)


def mutants(source: str):
    """Yield ``(index, line, description, mutated source)`` for every site of one module."""
    counter = _Mutator()
    counter.visit(ast.parse(source))
    for index, (line, description) in enumerate(counter.sites):
        tree = _Mutator(index).visit(ast.parse(source))
        yield index, line, description, ast.unparse(tree)


def run_verify(src: Path, work: Path) -> str:
    """Run ``verify`` on the package under ``src`` and classify the outcome."""
    report = work / "report.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        proc = subprocess.run(
            [sys.executable, *VERIFY, str(report)], cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "crashed"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        try:
            if json.loads(report.read_text())["overall"] == "fail":
                return "caught"
        except (OSError, ValueError, KeyError, TypeError):
            pass
    return "crashed"


def main() -> int:
    counts = {"caught": 0, "survived": 0, "crashed": 0}
    listed = []
    with tempfile.TemporaryDirectory(prefix="mutate-kernels-") as tmp:
        work = Path(tmp)
        src = work / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if run_verify(src, work) != "survived":
            print("error: verify does not pass on the unmutated copy", file=sys.stderr)
            return 1
        for name in TARGETS:
            path = src / "weylkit" / name
            original = path.read_text()
            for index, line, description, text in mutants(original):
                path.write_text(text)
                outcome = run_verify(src, work)
                counts[outcome] += 1
                if outcome != "caught":
                    listed.append(f"{outcome}: {name}:{line} #{index} {description}")
            path.write_text(original)
    total = sum(counts.values())
    print(f"mutants: {total}  caught: {counts['caught']}  survived: {counts['survived']}  crashed: {counts['crashed']}")
    print("\n".join(listed))
    return 1 if counts["crashed"] else 0


if __name__ == "__main__":
    sys.exit(main())
