"""Text syntax for diagrams, skein elements and quantum-algebra elements.

Grammar (EBNF):

    diagram  := "tangle(" INT "){" [slice (";" slice)*] "}" [" west=" SIGNS] [" east=" SIGNS]
    slice    := ("x" | "xb" | "cap" | "cup") INT
    SIGNS    := ("+" | "-")*

    element  := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := ["-"] atom ["^" INT]
    atom     := NUMBER | "s" | "q" | "a" | "b" | "c" | "d"
              | "beta(" SIGNS ";" SIGNS ")" | "(" element ")"

    scalar   := element with only NUMBER, "s", "q" atoms

Element expressions evaluate either in the bigon skein algebra (products via
diagram stacking) or in the quantum coordinate algebra (products via PBW
rewriting); the two evaluations agree under the transport isomorphism.  A
scalar is read as a multiple of the skein unit by the same parser.  A negative
power needs a base that is a scalar multiple of the unit.  Printers emit
canonical forms that parse back to equal values.
"""

from __future__ import annotations

from fractions import Fraction
from string import digits

from .scalar import MINUS_ONE, ONE, HalfLaurent, format_scalar

#: Largest exponent magnitude the parsers accept after ``^``.  Larger powers
#: are refused before any work, so input such as ``9^9999999`` fails at once
#: instead of hanging.  At this bound ``(1+s)^256`` parses in about 0.04 s
#: and the element ``a^256`` in about 0.12 s on a 2-core x86 host, while
#: printed results of long words stay parseable (a 60-crossing braid of
#: width 7 reduces to exponents up to 96).
MAX_EXPONENT = 256

#: Largest predicted size of a result of ``^``, in the units of
#: ``HalfLaurent.bit_size`` summed over terms, that the parsers compute.
#: Exponents alone do not bound the work: ``((1+s)^64)^64`` predicts 16.8M
#: bits and ``(9/7+s+q)^256`` 0.96M, and both are refused at the operator,
#: while ``(1+s)^256`` predicts 66k.
MAX_POWER_BITS = 1 << 18


class ParseError(ValueError):
    """Syntax error with a 1-based column position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


class _Cursor:
    def __init__(self, text: str, pos: int = 0) -> None:
        self.text = text
        self.pos = pos

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, k: int = 1) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + k]

    def eat(self, token: str) -> None:
        if self.peek(len(token)) != token:
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def try_eat(self, token: str) -> bool:
        if self.peek(len(token)) == token:
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in digits:
            self.pos += 1
        lit = self.text[start : self.pos]
        if not lit.lstrip("+-"):
            raise ParseError("expected integer", start)
        try:
            return int(lit)
        except ValueError:  # beyond Python's int-string conversion limit
            raise ParseError(f"integer literal of {len(lit)} digits is too long", start) from None

    def signs(self) -> tuple[int, ...]:
        self.skip_ws()
        out = []
        while self.pos < len(self.text) and self.text[self.pos] in "+-":
            out.append(1 if self.text[self.pos] == "+" else -1)
            self.pos += 1
        return tuple(out)

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# -- diagrams ------------------------------------------------------------------


def parse_diagram(text: str):
    from .diagram import DiagramError, SliceWord, StatedWord

    cur = _Cursor(text)
    cur.eat("tangle")
    cur.eat("(")
    west_arity = cur.integer()
    cur.eat(")")
    cur.eat("{")
    slices: list[tuple[str, int]] = []
    if not cur.try_eat("}"):
        while True:
            kind = None
            for cand in ("xb", "x", "cap", "cup"):
                if cur.try_eat(cand):
                    kind = cand
                    break
            if kind is None:
                raise ParseError("expected slice (x, xb, cap or cup)", cur.pos)
            slices.append((kind, cur.integer()))
            if cur.try_eat("}"):
                break
            cur.eat(";")
    west: tuple[int, ...] = ()
    east: tuple[int, ...] = ()
    while not cur.done():
        if cur.try_eat("west="):
            west = cur.signs()
        elif cur.try_eat("east="):
            east = cur.signs()
        else:
            raise ParseError("expected west= or east=", cur.pos)
    try:
        word = SliceWord(west_arity, tuple(slices))
        return StatedWord(word, west, east)
    except DiagramError as exc:
        raise ParseError(str(exc), cur.pos) from exc


def format_diagram(diagram) -> str:
    body = ";".join(f"{kind}{i}" for kind, i in diagram.word.slices)
    out = f"tangle({diagram.word.west_arity}){{{body}}}"
    sig = lambda v: "".join("+" if s > 0 else "-" for s in v)
    if diagram.west:
        out += f" west={sig(diagram.west)}"
    if diagram.east:
        out += f" east={sig(diagram.east)}"
    return out


# -- element expressions -------------------------------------------------------
#
# The evaluator is parameterized by a tiny interface so one grammar serves
# the skein-algebra and coordinate-algebra readings and, without generator
# and beta atoms, scalars (multiples of the skein unit).


class _SkeinOps:
    @staticmethod
    def scalar(x: HalfLaurent):
        from .diagram import SkeinElement

        return SkeinElement.unit().scale(x)

    @staticmethod
    def generator(name: str):
        from .bigon_skein import generator

        return generator(name)

    @staticmethod
    def beta(mu, nu):
        from .diagram import reduce_parallel

        if len(mu) != len(nu):
            raise ValueError("beta needs equal-length sign strings")
        return reduce_parallel(mu, nu)

    @staticmethod
    def mul(x, y):
        from .bigon_skein import mul

        return mul(x, y)


class _HopfOps:
    @staticmethod
    def scalar(x: HalfLaurent):
        from .quantum_sl2 import HopfElement

        return HopfElement.one().scale(x)

    @staticmethod
    def generator(name: str):
        from .quantum_sl2 import gen

        return gen(name)

    @staticmethod
    def beta(mu, nu):
        from .quantum_sl2 import from_skein

        return from_skein(_SkeinOps.beta(mu, nu))

    @staticmethod
    def mul(x, y):
        from .quantum_sl2 import mul

        return mul(x, y)


class _ScalarOps(_SkeinOps):
    generator = beta = None


class _ElementParser:
    def __init__(self, text: str, ops):
        self.cur = _Cursor(text)
        self.ops = ops

    def parse(self):
        val = self.expr()
        if not self.cur.done():
            raise ParseError("trailing input", self.cur.pos)
        return val

    def expr(self):
        val = self.term().copy()
        while True:
            if self.cur.try_eat("+"):
                val.add_scaled(self.term())
            elif self.cur.try_eat("-"):
                val.add_scaled(self.term(), MINUS_ONE)
            else:
                return val

    def term(self):
        val = self.factor()
        while self.cur.try_eat("*"):
            val = self.ops.mul(val, self.factor())
        return val

    def factor(self):
        if self.cur.try_eat("-"):
            inner = self.factor()
            return self.ops.mul(self.ops.scalar(MINUS_ONE), inner)
        return self.power()

    def power(self):
        base, scalar = self.atom()
        if self.cur.peek() == "^":
            op = self.cur.pos
            self.cur.eat("^")
            self.cur.skip_ws()
            start = self.cur.pos
            e = self.cur.integer()
            if abs(e) > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the bound {MAX_EXPONENT}", start)
            if scalar is None:
                scalar = self._unit_multiple(base)
            if scalar is not None:
                _check_power_size(scalar.power_bits(e), op)
                return self.ops.scalar(scalar**e)
            if e < 0:
                raise ParseError("element atoms only take nonnegative powers", self.cur.pos)
            out = self.ops.scalar(ONE)
            for _ in range(e):
                # Every product of a term of out with a term of base has a
                # coefficient of about the summed size, before merging.
                _check_power_size(len(base.items()) * _bits(out) + len(out.items()) * _bits(base), op)
                out = self.ops.mul(out, base)
            return out
        return base if scalar is None else self.ops.scalar(scalar)

    def _unit_multiple(self, x) -> HalfLaurent | None:
        """c when x is c times the unit (c may be zero), else None."""
        ((unit, _),) = self.ops.scalar(ONE).items()
        c = x.coefficient(unit)
        return c if x == self.ops.scalar(c) else None

    def atom(self):
        """Returns (element, scalar): scalar is set when the atom is a pure scalar."""
        cur = self.cur
        ch = cur.peek()
        if ch == "(":
            cur.eat("(")
            val = self.expr()
            cur.eat(")")
            return val, None
        if self.ops.beta and cur.try_eat("beta("):
            mu = cur.signs()
            cur.eat(";")
            nu = cur.signs()
            cur.eat(")")
            try:
                return self.ops.beta(mu, nu), None
            except ValueError as exc:
                raise ParseError(str(exc), cur.pos) from exc
        if ch == "s":
            cur.eat("s")
            return None, HalfLaurent.s_pow(1)
        if ch == "q":
            cur.eat("q")
            return None, HalfLaurent.q_pow(1)
        if self.ops.generator and ch and ch in "abcd":
            cur.eat(ch)
            return self.ops.generator(ch), None
        if ch and ch in digits:
            num = cur.integer()
            if cur.peek() == "/":
                cur.eat("/")
                den = cur.integer()
                if den == 0:
                    raise ParseError("zero denominator", cur.pos)
                return None, HalfLaurent.rational(Fraction(num, den))
            return None, HalfLaurent.rational(num)
        raise ParseError(f"expected {'element' if self.ops.generator else 'scalar'} atom", cur.pos)


def _bits(x) -> int:
    return sum(c.bit_size() for _, c in x.items())


def _check_power_size(bits: float, op: int) -> None:
    if bits > MAX_POWER_BITS:
        raise ParseError(f"result of ^ exceeds the size bound of {MAX_POWER_BITS} coefficient bits", op)


def parse_scalar(text: str) -> HalfLaurent:
    """Parse a scalar expression; inverse of :func:`format_scalar`."""
    from .diagram import UNIT_TANGLE

    return _ElementParser(text, _ScalarOps).parse().coefficient(UNIT_TANGLE)


def parse_element(text: str):
    """Parse an expression as a bigon skein element."""
    return _ElementParser(text, _SkeinOps).parse()


def parse_hopf(text: str):
    """Parse an expression as a quantum coordinate algebra element."""
    return _ElementParser(text, _HopfOps).parse()


def _format_terms(pairs: list[tuple[str, HalfLaurent]]) -> str:
    if not pairs:
        return "0"
    chunks: list[str] = []
    for label, coeff in pairs:
        cs = format_scalar(coeff)
        multi = " " in cs  # more than one monomial
        if label == "1":
            body = f"({cs}) * 1" if multi else f"{cs} * 1" if cs not in ("1", "-1") else (
                "1" if cs == "1" else "-1"
            )
        elif cs == "1":
            body = label
        elif cs == "-1":
            body = f"-{label}"
        else:
            body = f"({cs}) * {label}" if multi else f"{cs} * {label}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(f"- {body[1:]}")
        else:
            chunks.append(f"+ {body}")
    return " ".join(chunks)


def format_element(x) -> str:
    from .diagram import _tangle_sort_key

    terms = sorted(x.items(), key=lambda kv: _tangle_sort_key(kv[0]))
    return _format_terms([(str(b), c) for b, c in terms])


def format_hopf(x) -> str:
    terms = sorted(x.items(), key=lambda kv: (kv[0].degree, kv[0]))
    return _format_terms([(str(m), c) for m, c in terms])


def format_tensor(x, sort_key) -> str:
    """Tensor terms ``(coeff) * b1 (x) b2``, ordered by ``sort_key`` of the key tuple."""
    if x.is_zero():
        return "0"
    return "  +  ".join(
        f"({c}) * " + " (x) ".join(str(b) for b in key)
        for key, c in sorted(x.items(), key=lambda kv: sort_key(kv[0]))
    )
