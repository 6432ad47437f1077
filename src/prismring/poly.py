"""Sparse exact multivariate polynomials with grevlex/lex term orders.

Exponent vectors are dense tuples of machine ints (one slot per variable,
at most 64 variables). Coefficients live in a :class:`~prismring.fields.Field`:
``Fraction`` over the rationals, ``int`` over GF(p).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import Field, QQ

MAX_VARS = 64

GREVLEX = "grevlex"
LEX = "lex"


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def lex_key(exp):
    return exp


def order_key(order: str):
    if order == GREVLEX:
        return grevlex_key
    if order == LEX:
        return lex_key
    raise ValueError(f"unknown monomial order {order!r}")


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial over a fixed ordered variable tuple.

    ``terms`` maps exponent tuples to nonzero field coefficients. The
    ``order`` tag controls serialization and leading-term queries.
    """

    __slots__ = ("vars", "field", "terms", "order")

    def __init__(self, vars, terms, field: Field = QQ, order: str = GREVLEX):
        vars = tuple(vars)
        if len(vars) > MAX_VARS:
            raise ValueError(f"at most {MAX_VARS} variables supported")
        self.vars = vars
        self.field = field
        self.order = order
        clean = {}
        for exp, c in terms.items():
            if len(exp) != len(vars):
                raise ValueError("exponent arity does not match variable count")
            c = field.coerce(c)
            if not field.is_zero(c):
                clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars, field=QQ, order=GREVLEX):
        return cls(vars, {}, field, order)

    @classmethod
    def constant(cls, vars, value, field=QQ, order=GREVLEX):
        n = len(tuple(vars))
        return cls(vars, {(0,) * n: value}, field, order)

    @classmethod
    def variable(cls, vars, name, field=QQ, order=GREVLEX):
        vars = tuple(vars)
        i = vars.index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return cls(vars, {tuple(exp): field.one()}, field, order)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        zero_exp = (0,) * len(self.vars)
        return self.terms.get(zero_exp, self.field.zero())

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self, order=None):
        key = order_key(order or self.order)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self, order=None):
        key = order_key(order or self.order)
        return max(self.terms, key=key)

    def leading_coefficient(self, order=None):
        return self.terms[self.leading_monomial(order)]

    def used_variables(self):
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(self.vars[i])
        return used

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.vars != other.vars or self.field != other.field:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other, self.field, self.order)
        self._check_compatible(other)
        res = dict(self.terms)
        f = self.field
        for e, c in other.terms.items():
            v = f.add(res.get(e, f.zero()), c)
            if f.is_zero(v):
                res.pop(e, None)
            else:
                res[e] = v
        return self._wrap(res)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        f = self.field
        return self._wrap({e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other, self.field, self.order)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        f = self.field
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                v = f.add(res.get(e, f.zero()), f.mul(c1, c2))
                if f.is_zero(v):
                    res.pop(e, None)
                else:
                    res[e] = v
        return self._wrap(res)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.vars, 1, self.field, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if f.is_zero(c):
            return Polynomial.zero(self.vars, self.field, self.order)
        return self._wrap({e: f.mul(v, c) for e, v in self.terms.items()})

    def monic(self, order=None):
        if self.is_zero():
            return self
        lc = self.leading_coefficient(order)
        inv = self.field.inv(lc)
        return self.scale(inv)

    @classmethod
    def _trusted(cls, vars, terms, field, order):
        """A polynomial that takes ``terms`` as they are: the caller vouches
        for a tuple ``vars``, exponent tuples of its length and nonzero
        coefficients already in ``field``."""
        p = cls.__new__(cls)
        p.vars = vars
        p.field = field
        p.order = order
        p.terms = terms
        return p

    def _wrap(self, terms):
        return Polynomial._trusted(self.vars, terms, self.field, self.order)

    def with_order(self, order: str):
        p = self._wrap(dict(self.terms))
        p.order = order
        return p

    def rename(self, vars, mapping=None):
        """Re-express over a new variable tuple.

        ``mapping`` maps old names to new names (identity by default). Every
        used variable must land inside ``vars``.
        """
        vars = tuple(vars)
        mapping = mapping or {}
        index = {v: i for i, v in enumerate(vars)}
        res = {}
        f = self.field
        for e, c in self.terms.items():
            new = [0] * len(vars)
            for i, power in enumerate(e):
                if not power:
                    continue
                name = mapping.get(self.vars[i], self.vars[i])
                if name not in index:
                    raise ValueError(f"variable {name!r} missing from target ring")
                new[index[name]] += power
            key = tuple(new)
            v = f.add(res.get(key, f.zero()), c)
            if f.is_zero(v):
                res.pop(key, None)
            else:
                res[key] = v
        return Polynomial(vars, res, self.field, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)


# -- text format -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_\[\],.]*)|(?P<op>[-+*^/()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize polynomial near {rest[:20]!r}")
        pos = m.end()
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens, vars, field, order):
        self.tokens = tokens
        self.i = 0
        self.vars = tuple(vars)
        self.field = field
        self.order = order

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.i != len(self.tokens):
            raise ValueError("trailing tokens in polynomial")
        return p

    def expr(self):
        kind, val = self.peek()
        negate = False
        if (kind, val) == ("op", "-"):
            self.take()
            negate = True
        elif (kind, val) == ("op", "+"):
            self.take()
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                p = p + self.term()
            elif (kind, val) == ("op", "-"):
                self.take()
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ValueError("exponent must be an integer")
            p = p ** val
        return p

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            num = val
            if self.peek() == ("op", "/"):
                self.take()
                kind2, den = self.take()
                if kind2 != "num":
                    raise ValueError("malformed rational coefficient")
                return Polynomial.constant(
                    self.vars, Fraction(num, den), self.field, self.order
                )
            return Polynomial.constant(self.vars, num, self.field, self.order)
        if kind == "name":
            if val not in self.vars:
                raise ValueError(f"unknown variable {val!r}")
            return Polynomial.variable(self.vars, val, self.field, self.order)
        if (kind, val) == ("op", "("):
            p = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
            return p
        if (kind, val) == ("op", "-"):
            return -self.factor()
        raise ValueError(f"unexpected token {val!r}")


def parse_polynomial(text: str, vars, field: Field = QQ, order: str = GREVLEX) -> Polynomial:
    return _Parser(_tokenize(text), vars, field, order).parse()


def _format_coeff(c) -> str:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def format_polynomial(p: Polynomial) -> str:
    """Canonical infix form: terms descending in the polynomial's order."""
    if p.is_zero():
        return "0"
    parts = []
    one = p.field.one()
    for e, c in p.sorted_terms():
        monos = [
            p.vars[i] if power == 1 else f"{p.vars[i]}^{power}"
            for i, power in enumerate(e)
            if power
        ]
        if isinstance(c, Fraction):
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        if not monos:
            body = _format_coeff(mag)
        elif mag == one:
            body = "*".join(monos)
        else:
            body = "*".join([_format_coeff(mag)] + monos)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


# -- polynomial system files -------------------------------------------


def format_field(field: Field) -> str:
    return "Q" if field.is_rational else f"GF({field.p})"


def parse_field(text: str) -> Field:
    text = text.strip()
    if text == "Q":
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if not m:
        raise ValueError(f"unknown field spec {text!r}")
    return Field(int(m.group(1)))


def write_system(polys, vars, field: Field, comments=None) -> str:
    """Render a polynomial system in the text format.

    header lines ``vars:`` and ``field:``, then one polynomial per line in
    canonical grevlex-descending infix form (whatever order tag the
    polynomials carry). ``comments`` (if given) are emitted first as ``#``
    lines and ignored by the reader.
    """
    lines = []
    for c in comments or []:
        lines.append(f"# {c}")
    lines.append("vars: " + " ".join(vars))
    lines.append("field: " + format_field(field))
    for p in polys:
        lines.append(format_polynomial(p.with_order(GREVLEX)))
    return "\n".join(lines) + "\n"


def read_system(text: str):
    """Parse a system file; returns (polys, vars, field)."""
    vars = None
    field = None
    polys = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vars:"):
            vars = tuple(line[len("vars:"):].split())
            if len(set(vars)) < len(vars):
                repeated = sorted({v for v in vars if vars.count(v) > 1})
                raise ValueError(f"repeated variable name(s) on vars: {', '.join(repeated)}")
            continue
        if line.startswith("field:"):
            field = parse_field(line[len("field:"):])
            continue
        if vars is None or field is None:
            raise ValueError("system file must declare vars: and field: first")
        polys.append(parse_polynomial(line, vars, field))
    if vars is None or field is None:
        raise ValueError("system file missing vars:/field: header")
    return polys, vars, field
