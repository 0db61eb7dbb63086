"""The package's size budget (ROADMAP north star: sbnn should not get
bigger). Two counts over src/sbnn/*.py, each with a cap:

- lines, counted as `cat src/sbnn/*.py | wc -l` counts them
- settable values: every function parameter except self and cls (*args
  and **kwargs included), plus every init field of a dataclass

A change that has to cross a cap raises it here and says why in CHANGES.md.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sbnn"
MAX_LINES = 3300
MAX_SETTABLE_VALUES = 349


def _sources():
    return [p.read_bytes() for p in sorted(PACKAGE.glob("*.py"))]


def _is_dataclass(cls):
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _init_fields(cls):
    n = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords
        ):
            continue
        n += 1
    return n


def settable_values(source) -> int:
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            n += sum(1 for x in args if x.arg not in ("self", "cls"))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += _init_fields(node)
    return n


def test_counts_what_it_documents():
    src = b'''
@dataclass
class A:
    x: int
    y: float = 0.0
    z: list = field(default_factory=list)
    k: ClassVar[int] = 1
    h: int = field(init=False)

    def f(self, a, *rest, b=1, **kw):
        return lambda c: c

@classmethod
def g(cls, d, /, e):
    pass
'''
    # A: x, y, z; f: a, rest, b, kw; the lambda: c; g: d, e
    assert settable_values(src) == 3 + 4 + 1 + 2


def test_package_within_its_size_budget():
    sources = _sources()
    lines = sum(s.count(b"\n") for s in sources)
    values = sum(settable_values(s) for s in sources)
    print(f"src/sbnn: {lines} lines, {values} settable values")
    assert lines <= MAX_LINES
    assert values <= MAX_SETTABLE_VALUES
