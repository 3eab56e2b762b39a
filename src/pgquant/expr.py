"""Parser and printer for generator expressions.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' UINT)?          UINT <= MAX_POWER
    atom    := NUMBER | GENERATOR | '(' expr ')'

Generators are ``th<i>`` / ``bth<i>`` with 1-based mode indices; the index
may be omitted when there is a single mode (``th``, ``bth``).  Number
literals are floats, optionally suffixed with ``i`` for a pure imaginary
value (``2``, ``1.5e-3``, ``2i``, bare ``i``); a general complex constant
is written as a parenthesized sum, ``(1+2i)``.  ``*`` is the
noncommutative algebra product and is evaluated left to right exactly as
written -- input order is never silently canonicalized.

The parser's actions compute the polynomial as they go: each rule returns
a ``ParaPoly``, and each operand is evaluated before the operand that
follows it.  Lexical errors are raised before any arithmetic, grammar
errors once the prefix before them has been evaluated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import ParaPoly
from .qnum import Deformation

__all__ = [
    "ExprSyntaxError",
    "parse",
    "poly_to_expr",
]


# The largest exponent; a base with no constant term vanishes by power
# 2d(k'-1)+1, at most 473 (k = 238, two modes), where ``^n`` stops folding.
MAX_POWER = 1000


class ExprSyntaxError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<gen>bth\d*|th\d*)
      | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?|i)
      | (?P<op>[*+\-^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, dfm: Deformation, modes: int):
        self.text = text
        self.dfm = dfm
        self.modes = modes
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def _at_op(self, *ops: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "op" and tok.text in ops

    def parse(self) -> ParaPoly:
        try:
            value = self._expr()
        except RecursionError:  # no depth limit of its own: whatever the interpreter's stack allows parses
            tok = self._peek()
            raise ExprSyntaxError("expression nested too deeply", len(self.text) if tok is None else tok.pos) from None
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return value

    def _expr(self) -> ParaPoly:
        value = self._term()
        while self._at_op("+", "-"):
            op = self._next().text
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> ParaPoly:
        value = self._unary()
        while self._at_op("*"):
            self._next()
            value = value * self._unary()
        return value

    def _unary(self) -> ParaPoly:
        if self._at_op("-"):
            self._next()
            return -self._unary()
        return self._power()

    def _power(self) -> ParaPoly:
        base = self._atom()
        if self._at_op("^"):
            self._next()
            tok = self._peek()
            if tok is None:
                raise ExprSyntaxError("integer power expected after '^'", len(self.text))
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                raise ExprSyntaxError("integer power expected after '^'", tok.pos)
            if int(tok.text) > MAX_POWER:
                raise ExprSyntaxError(f"power {tok.text} exceeds the largest power {MAX_POWER}", tok.pos)
            self._next()
            out = ParaPoly.unit(self.dfm, self.modes)
            for _ in range(int(tok.text)):
                out = out * base
                if not out.coeffs.any():  # and stays zero, all +0
                    break
            return out
        return base

    def _atom(self) -> ParaPoly:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        if tok.kind == "num":
            self._next()
            return ParaPoly.constant(self.dfm, self.modes, _literal_value(tok.text))
        if tok.kind == "gen":
            self._next()
            return self._generator(tok)
        if self._at_op("("):
            self._next()
            value = self._expr()
            if not self._at_op(")"):
                where = self._peek()
                pos = where.pos if where is not None else len(self.text)
                raise ExprSyntaxError("expected ')'", pos)
            self._next()
            return value
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def _generator(self, tok: _Token) -> ParaPoly:
        barred = tok.text.startswith("bth")
        digits = tok.text[3:] if barred else tok.text[2:]
        if digits == "":
            if self.modes != 1:
                raise ExprSyntaxError(
                    f"generator index required when modes={self.modes}", tok.pos
                )
            mode = 1
        else:
            mode = int(digits)
        if not 1 <= mode <= self.modes:
            raise ExprSyntaxError(
                f"unknown generator index {mode} (modes=1..{self.modes})", tok.pos
            )
        return ParaPoly.generator(self.dfm, self.modes, mode, barred=barred)


def _literal_value(text: str) -> complex:
    if text == "i":
        return 1j
    if text.endswith("i"):
        return complex(0.0, float(text[:-1]))
    return complex(float(text), 0.0)


def parse(text: str, dfm: Deformation, modes: int = 1) -> ParaPoly:
    """Parse an expression straight to a polynomial; generator indices are
    validated against ``modes``.

    Products multiply in the algebra exactly in the order written, so
    ``bth*th`` and ``th*bth`` give polynomials differing by the
    commutation phase.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    return _Parser(text, dfm, modes).parse()


def _fmt_complex(c: complex) -> str:
    # repr round-trips exactly through float()
    re_, im = c.real, c.imag
    if im == 0.0:
        return repr(re_)
    if re_ == 0.0:
        return repr(im) + "i"
    sign = "+" if im >= 0 else "-"
    return f"({re_!r}{sign}{abs(im)!r}i)"


def poly_to_expr(p: ParaPoly) -> str:
    """Render a polynomial as a parseable expression.

    Round-trips exactly: parsing the output reproduces the same
    coefficients, because the monomial factors are emitted in canonical
    order (no reordering phases) and floats are printed with full
    precision.  ``p.terms`` is in row-major order, which is sorted order.
    """
    terms = p.terms
    if not terms:
        return "0"
    suffixes = [""] if p.d == 1 else [str(i + 1) for i in range(p.d)]
    names = [f"th{s}" for s in suffixes] + [f"bth{s}" for s in suffixes]
    parts = []
    for (theta, bar), c in terms.items():
        gens = [name + (f"^{power}" if power > 1 else "") for name, power in zip(names, theta + bar) if power]
        if not gens:
            parts.append(_fmt_complex(c))
        elif c == 1:
            parts.append("*".join(gens))
        elif c == -1:
            parts.append("-" + "*".join(gens))
        else:
            parts.append(_fmt_complex(c) + "*" + "*".join(gens))
    return " + ".join(parts)
