"""A tiny arithmetic expression grammar over named coordinates.

Supports ``+ - * /``, integer powers, ``sin``/``cos``, numeric literals and
coordinate names.  Expressions are parsed from Python syntax via ``ast`` into
a small closed node set, evaluate by the same numpy operations on numbers and
on arrays of values at many points at once (an integer power is a product of
its base), so arrays give the single points' values bit for bit, and
differentiate symbolically: fields declared this way have exact partials.
A manifold's metric expressions are the only ones a model derives from: its
inverse comes from :func:`inverse_matrix`, its connection and curvature from
the jets of the metric and the inverse.
"""

from __future__ import annotations

import ast
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError


class Expr:
    """Base node.  Trees are built by :func:`parse_expression` and by the
    simplifying constructors :func:`add`, :func:`mul` and :func:`div`, which
    fold constants and drop zero terms and unit factors."""

    def eval(self, env: Mapping[str, float | np.ndarray]) -> complex | np.ndarray:  # pragma: no cover - interface
        """The value at one point, or elementwise values when ``env`` holds arrays."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":  # pragma: no cover - interface
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: complex):
        self.value = value

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def __repr__(self):
        return f"Const({self.value!r})"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def __repr__(self):
        return f"Var({self.name!r})"


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


class Div(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a, self.b = a, b

    def eval(self, env):
        return self.a.eval(env) / self.b.eval(env)

    def diff(self, var):
        num = add(
            mul(self.a.diff(var), self.b),
            mul(Const(-1.0), mul(self.a, self.b.diff(var))),
        )
        return Div(num, Pow(self.b, 2))


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base, self.exponent = base, exponent

    def eval(self, env):
        v = self.base.eval(env)
        out = v if self.exponent else np.ones(np.shape(v))
        for _ in range(self.exponent - 1):  # left to right, on points and arrays alike
            out = out * v
        return out

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return Const(0.0)
        return mul(mul(Const(float(n)), power(self.base, n - 1)), self.base.diff(var))


class Sin(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def eval(self, env):
        return np.sin(self.arg.eval(env))

    def diff(self, var):
        return mul(Cos(self.arg), self.arg.diff(var))


class Cos(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def eval(self, env):
        return np.cos(self.arg.eval(env))

    def diff(self, var):
        return mul(Const(-1.0), mul(Sin(self.arg), self.arg.diff(var)))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def power(base: Expr, n: int) -> Expr:
    return Const(1.0) if n == 0 else base if n == 1 else Pow(base, n)


def inverse_matrix(m):
    """Closed-form inverse of a square object array of expressions:
    reciprocals when it is diagonal, else the 2x2 adjugate over the determinant."""
    if all(_is_const(m[i, j], 0.0) for i, j in np.ndindex(m.shape) if i != j):
        inv = np.full(m.shape, Const(0.0), dtype=object)
        np.fill_diagonal(inv, [div(Const(1.0), e) for e in np.diagonal(m)])
        return inv
    if len(m) != 2:
        raise ConfigError("non-diagonal expression matrices can be inverted in two dimensions only")
    det = add(mul(m[0, 0], m[1, 1]), mul(Const(-1.0), mul(m[0, 1], m[1, 0])))
    adjugate = [[m[1, 1], mul(Const(-1.0), m[0, 1])], [mul(Const(-1.0), m[1, 0]), m[0, 0]]]
    return np.array([[div(e, det) for e in row] for row in adjugate], dtype=object)


_FUNCTIONS = {"sin": Sin, "cos": Cos}


def _convert(node: ast.AST, variables: Sequence[str]) -> Expr:
    if isinstance(node, ast.Expression):
        return _convert(node.body, variables)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return Const(float(node.value))
        raise ConfigError(f"unsupported literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id in variables:
            return Var(node.id)
        if node.id == "pi":
            return Const(math.pi)
        raise ConfigError(f"unknown name {node.id!r}; coordinates are {tuple(variables)}")
    if isinstance(node, ast.UnaryOp):
        inner = _convert(node.operand, variables)
        if isinstance(node.op, ast.USub):
            return mul(Const(-1.0), inner)
        if isinstance(node.op, ast.UAdd):
            return inner
        raise ConfigError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                raise ConfigError("exponents must be integer literals")
            return Pow(_convert(node.left, variables), node.right.value)
        a = _convert(node.left, variables)
        b = _convert(node.right, variables)
        if isinstance(node.op, ast.Add):
            return add(a, b)
        if isinstance(node.op, ast.Sub):
            return add(a, mul(Const(-1.0), b))
        if isinstance(node.op, ast.Mult):
            return mul(a, b)
        if isinstance(node.op, ast.Div):
            return Div(a, b)
        raise ConfigError("unsupported binary operator")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError("only sin() and cos() calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id}() takes exactly one positional argument")
        return _FUNCTIONS[node.func.id](_convert(node.args[0], variables))
    raise ConfigError(f"unsupported syntax node {type(node).__name__}")


def parse_expression(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` into an expression over the given coordinate names."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {source!r}: {exc}") from exc
    return _convert(tree, tuple(variables))
