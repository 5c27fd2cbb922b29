"""Exact rational scalars, invariant errors, and the JSON boundary.

Everything in this package computes with `fractions.Fraction`, or with
integers over one common denominator (`scaled`) in its hot loops; floats
are rejected at the boundary so no rounding can leak in.  No matrix is
inverted anywhere: the fan walk starts from a cone whose inverse is
written down in closed form (`ncfan._walk_tables`) and changes it by
exact rank-one steps.  The one reduction is over GF(2): `ladder._plan`
eliminates its seed incidence (`_gf2_rank`) once per (k, n).  The JSON
loaders of every type (`pluecker`, `ncfan`) read their (k, n) header and
their rationals through the checks here and raise `SchemaError`, with a
JSON pointer to the fault, on any malformed input.  `record` makes the
package's frozen value classes (`KSubset`, `LadderPoint`, the reports, ...)
without `dataclasses`, whose import and generated methods would be most
of the command-line start-up.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable
from fractions import Fraction

Rational = int | Fraction


def _compare(key, op):
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented

    return method


def _bind(cls, names: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of a `record` call, in field order; missing ones
    from the class-level defaults."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            if name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            values[name] = cls.__dict__[name]
    return [values[name] for name in names]


def record(cls=None, *, order: bool = False):
    """Class decorator for a frozen value class: its annotated names, in
    order, are its fields, and a class attribute of the same name is that
    field's default.

    It installs `__init__` by position or keyword, which then runs the
    class's own `__post_init__`; `==` and `hash` on the field values, only
    against the same class; `repr` as `Name(field=value, ...)`; and with
    `order`, `<`, `<=`, `>`, `>=` on the field values.  Assigning or
    deleting any attribute raises AttributeError; `cached_property` still
    works, since it writes the instance dict directly.  Equality, hash and
    order read the fields through one `operator.attrgetter`, and every
    method is a closure made here: no source is generated per class.
    """
    if cls is None:
        return lambda cls: record(cls, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    key = operator.attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    arity = len(names)
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(cls, names, args, kwargs)
        # Field by field, never through self.__dict__: reading that would
        # make a dict per instance and slow every later attribute read.
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init is not None:
            post_init(self)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": _compare(key, operator.eq),
               "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    if order:
        for op in ("lt", "le", "gt", "ge"):
            methods[f"__{op}__"] = _compare(key, getattr(operator, op))
    for name, method in methods.items():
        setattr(cls, name, method)
    return cls


class InvariantError(RuntimeError):
    """A mathematical invariant the code relies on does not hold.

    Raised explicitly instead of by `assert`, so that the check survives
    `python -O`; it signals a bug or a broken input table, not bad data.
    """


class SchemaError(ValueError):
    """Input violates a JSON schema; carries a JSON-pointer-ish path.  The
    message names the pointer unless it is empty (the whole input)."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{message} (at {pointer})" if pointer else message)
        self.pointer = pointer


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction; refuse floats.
    A `Fraction` is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def coordinates(values: Iterable, n: int) -> list[Fraction]:
    """n coordinates through `as_fraction`: the one reader of outside points."""
    values = [as_fraction(v) for v in values]
    if len(values) != n:
        raise ValueError(f"need {n} coordinates, got {len(values)}")
    return values


# The one spelling of a rational in a JSON string: ASCII digits, an
# optional leading minus, an optional "/q"; no sign "+", space, point or
# exponent.
_JSON_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def json_fraction(value, pointer: str) -> Fraction:
    """A decoded JSON value as a Fraction: a JSON integer, or a string
    "p", "-p", "p/q" or "-p/q"; anything else is a SchemaError."""
    if type(value) is int or (isinstance(value, str) and _JSON_RATIONAL.fullmatch(value)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(
        pointer, f"not a rational: {value!r}; use an integer or a 'p/q' string"
    )


def json_kn(obj, body: str) -> tuple[int, int]:
    """The integer k and n of a JSON object with keys k, n and `body`."""
    if not isinstance(obj, dict):
        raise SchemaError("", f"expected an object with keys k, n, {body}")
    for key in ("k", "n", body):
        if key not in obj:
            raise SchemaError(f"/{key}", "missing required key")
    k, n = obj["k"], obj["n"]
    if type(k) is not int or type(n) is not int:
        raise SchemaError("/k", "k and n must be integers")
    return k, n


def json_rows(obj, build):
    """Decode {"k", "n", "rows"} into `build(k, n, rows)` of exact rationals."""
    k, n = json_kn(obj, "rows")
    rows = obj["rows"]
    if not isinstance(rows, list):
        raise SchemaError("/rows", "expected a list of rows")
    cooked = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"/rows/{i}", "expected a list")
        cooked.append([json_fraction(v, f"/rows/{i}/{j}") for j, v in enumerate(row)])
    try:
        return build(k, n, cooked)
    except ValueError as exc:
        raise SchemaError("/rows", str(exc)) from None


def scaled(values: Iterable[Rational]) -> tuple[list[int], int]:
    """Rationals as integers over one common denominator: (ints, scale),
    `scale` the least common multiple of the denominators; each value is
    int / scale."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_fraction(value: Rational) -> str:
    """Render a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(Fraction(value))
