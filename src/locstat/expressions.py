"""Tiny expression grammar for coefficient functions in config files.

Accepted: +, -, *, /, unary minus, sin, cos, exp, numeric constants and the
variable ``t``. Parsed with the stdlib ``ast`` module against a whitelist,
so nothing outside the grammar can execute. Compiled functions broadcast
over numpy arrays and are picklable (they carry only the source string).
"""

import ast

import numpy as np

__all__ = ["ExprFunc", "ExprVector", "ExprMatrix", "parse_expression"]

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


def _check(node: ast.AST, source: str) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, source)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _ALLOWED_BINOPS:
            raise ValueError(f"operator not in grammar: {ast.dump(node.op)} in {source!r}")
        _check(node.left, source)
        _check(node.right, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ValueError(f"operator not in grammar in {source!r}")
        _check(node.operand, source)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ValueError(f"only sin, cos, exp may be called, got {source!r}")
        if len(node.args) != 1 or node.keywords:
            raise ValueError(f"calls take exactly one positional argument in {source!r}")
        _check(node.args[0], source)
    elif isinstance(node, ast.Name):
        if node.id != "t":
            raise ValueError(f"unknown name {node.id!r} in {source!r}; only 't' is allowed")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant in {source!r}")
    else:
        raise ValueError(f"syntax not in grammar: {type(node).__name__} in {source!r}")


def _eval(node: ast.AST, t):
    if isinstance(node, ast.Expression):
        return _eval(node.body, t)
    if isinstance(node, ast.BinOp):
        return _ALLOWED_BINOPS[type(node.op)](_eval(node.left, t), _eval(node.right, t))
    if isinstance(node, ast.UnaryOp):
        val = _eval(node.operand, t)
        return -val if isinstance(node.op, ast.USub) else +val
    if isinstance(node, ast.Call):
        return _ALLOWED_CALLS[node.func.id](_eval(node.args[0], t))
    if isinstance(node, ast.Name):
        return t
    if isinstance(node, ast.Constant):
        return node.value
    raise AssertionError("unreachable: node was validated")


class ExprFunc:
    """Callable wrapper around a validated expression string."""

    def __init__(self, source: str):
        self.source = source
        self._tree = None
        parse_expression(source)  # validate eagerly

    def _ensure(self):
        if self._tree is None:
            self._tree = parse_expression(self.source)
        return self._tree

    def __call__(self, t):
        """The value at ``t`` with the shape of ``t``, a new array in which
        -0.0 comes out +0.0 (the sum with +0 that broadcasts a constant)."""
        t = np.asarray(t, dtype=float)
        raw = np.asarray(self._raw(t), dtype=float)
        return raw + (0.0 if raw.shape == t.shape else np.zeros_like(t))

    def _raw(self, t: np.ndarray):
        """The value at the float array ``t``, a scalar for an expression
        without ``t``."""
        return _eval(self._ensure(), t)

    def __getstate__(self):
        return {"source": self.source}

    def __setstate__(self, state):
        self.source = state["source"]
        self._tree = None

    def __repr__(self):
        return f"ExprFunc({self.source!r})"


def parse_expression(source: str) -> ast.Expression:
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {source!r}: {exc}") from None
    _check(tree, source)
    return tree


def _fill(t, rows) -> np.ndarray:
    """The values of ``rows`` of expressions at times ``t``, shape
    ``t.shape + (len(rows), len(rows[0]))``.

    Each entry adds its raw value to one zero array, as ``ExprFunc`` adds
    zeros to it: 0.0 + x equals x + 0.0 bit for bit, so -0.0 comes out +0.0.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, f in enumerate(row):
            out[..., i, j] += f._raw(t)
    return out


class ExprVector:
    """Vector-valued coefficient function from a list of expression strings.

    Called with times ``t`` of shape ``S`` it returns shape ``S + (p,)``, one
    entry per expression along the last axis; a scalar ``t`` gives ``(p,)``.
    """

    def __init__(self, sources):
        self.funcs = [ExprFunc(s) for s in sources]

    def __call__(self, t):
        return _fill(t, [self.funcs])[..., 0, :]

    def __repr__(self):
        return f"ExprVector({[f.source for f in self.funcs]!r})"


class ExprMatrix:
    """Matrix-valued coefficient function from nested expression strings.

    Called with times ``t`` of shape ``S`` it returns shape ``S + (p, q)``
    for ``p`` rows of ``q`` expressions; a scalar ``t`` gives ``(p, q)``.
    """

    def __init__(self, sources):
        self.rows = [[ExprFunc(s) for s in row] for row in sources]
        n_cols = {len(row) for row in self.rows}
        if len(n_cols) != 1:
            raise ValueError("matrix rows must have equal length")

    def __call__(self, t):
        return _fill(t, self.rows)

    def __repr__(self):
        return f"ExprMatrix({[[f.source for f in row] for row in self.rows]!r})"
