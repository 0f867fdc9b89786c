"""Rules on the source of `src/ebchannels/*.py`, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ebchannels"


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 2


def _squares(tree) -> list[tuple[int, str]]:
    """(line, form) of every square not written as a product.

    x ** 2 and pow(x, 2) go through libm pow on floats, which misrounds
    about 0.1 % of squares; math.pow is libm pow, and np.square is a
    second spelling of x * x.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(node.op, ast.Pow) and _is_two(exponent):
                found.append((node.lineno, "x ** 2"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "pow" and len(node.args) > 1:
                if _is_two(node.args[1]):
                    found.append((node.lineno, "pow(x, 2)"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) == ("math", "pow"):
                found.append((node.lineno, "math.pow"))
            elif node.value.id in ("np", "numpy") and node.attr == "square":
                found.append((node.lineno, "np.square"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            for alias in node.names:
                if alias.name in ("pow", "square"):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    return sorted(found)


# math's exp, cos, sin and log on each value fix the published digits of a
# scan; numpy's vectorized ones can differ from them in the last bit
_MATH_ONLY = ("exp", "cos", "sin", "log")


def _numpy_transcendentals(tree) -> list[tuple[int, str]]:
    """(line, name) of every numpy exp, cos, sin or log, named or imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and node.attr in _MATH_ONLY:
                found.append((node.lineno, f"numpy.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in _MATH_ONLY:
                    found.append((node.lineno, f"numpy.{alias.name}"))
    return sorted(found)


def test_the_square_check_names_each_form():
    source = "\n".join([
        "a = x ** 2",
        "b = (x + y) ** 2.0",
        "c = pow(x, 2)",
        "d = math.pow(x, 2)",
        "e = np.square(x)",
        "x **= 2",
        "from math import pow",
        "f = 2.0**-40 + 2.0**1023 + x ** 3 + x * x + pow(x, 3) + d**2 - 1",
        "g = '(x ** 2)'",
    ])
    assert _squares(ast.parse(source)) == [
        (1, "x ** 2"),
        (2, "x ** 2"),
        (3, "pow(x, 2)"),
        (4, "math.pow"),
        (5, "np.square"),
        (6, "x ** 2"),
        (7, "math.pow"),
        (8, "x ** 2"),
    ]


def test_source_squares_by_multiplying():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(SRC.parents[1])}:{line}: {form}"
        for path in paths
        for line, form in _squares(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "square by multiplying, x * x:\n" + "\n".join(found)


def test_the_transcendental_check_names_each_form():
    source = "\n".join([
        "a = np.exp(-t / T)",
        "b = numpy.cos(x) + np.sin(x)",
        "from numpy import log",
        "f = np.exp",
        "g = math.exp(x) + np.sqrt(x) + np.expm1(x) + _elementwise(math.cos, x)",
        "h = 'np.exp(x)'",
    ])
    assert _numpy_transcendentals(ast.parse(source)) == [
        (1, "numpy.exp"),
        (2, "numpy.cos"),
        (2, "numpy.sin"),
        (3, "numpy.log"),
        (4, "numpy.exp"),
    ]


def test_markov_takes_exp_cos_sin_and_log_from_math():
    path = SRC / "markov.py"
    found = [
        f"markov.py:{line}: {name}"
        for line, name in _numpy_transcendentals(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "use math's function, through _elementwise on arrays:\n" + "\n".join(found)
