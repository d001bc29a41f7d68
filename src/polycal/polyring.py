"""Exact sparse multivariate polynomial arithmetic over the integers and rationals.

Values are built from three immutable layers:

  VarId       a variable, either x<k> (problem variables) or y<k>
              (definition variables introduced by extension axioms)
  Monomial    a finite product of variables with positive integer exponents,
              interned so that equal monomials are one object
  Polynomial  a finite sum of monomials with nonzero coefficients

Coefficients are plain Python ints whenever they are integral and
``fractions.Fraction`` (always in lowest terms) otherwise, so structural
equality of polynomials coincides with mathematical equality.  The zero
polynomial is the empty term map; its degree is the sentinel -1.

Monomials and polynomials are immutable through their interface: only
their builders set their private slots, once each, and no property has a
setter (tests/test_records.py checks the package for other stores).

Term order is graded lexicographic: higher total degree first, ties broken
at the earliest variable with differing exponent (variables are ordered
x1 < x2 < ... < y1 < y2 < ...; a larger exponent there wins).  The order
fixes serialization and display, and makes reduction deterministic.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import re
import weakref
from _weakref import _remove_dead_weakref
from decimal import Decimal
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]

_VAR_NAME_RE = re.compile(r"([xy])([1-9][0-9]*)")
# Canonical forms only: no -0, no leading zeros, no zero or padded denominator.
_SCALAR_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


class FormatError(ValueError):
    """Raised when serialized input is malformed or not in canonical form."""


def shown(value: object) -> str:
    """repr(value) for a FormatError message about a document value.

    repr raises ValueError on an int past the int-str digit limit, and so on
    any container holding one; such a value is described by its size.  A
    value already known to be a str needs no helper.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an integer too long to print"


def shown_scalar(value: Scalar) -> str:
    """scalar_to_str(value) for a rejection message, but a numerator or
    denominator past the int-str digit limit is shown by its bit length:
    writing out its digits takes quadratic time."""
    value = as_scalar(value)
    if isinstance(value, int):
        return shown(value)
    return f"{shown(value.numerator)}/{shown(value.denominator)}"


# Validators shared by every from_obj decoder; each names the field it checks.


def require_fields(obj: object, fields: AbstractSet[str], what: str) -> dict:
    """obj itself, if it is a JSON object with exactly the given keys."""
    if not isinstance(obj, dict) or obj.keys() != fields:
        raise FormatError(f"{what} must have exactly the fields {sorted(fields)}")
    return obj


def require_int(value: object, what: str) -> int:
    """A plain int; bool is refused although it subclasses int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{what} must be an integer")
    return value


def require_index(value: object, what: str) -> int:
    """A plain int that is at least 0."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"{what} must be a non-negative integer")
    return value


def require_int_str(value: object, what: str) -> int:
    """A canonical decimal integer string (see scalar_from_str)."""
    scalar = scalar_from_str(value)  # type: ignore[arg-type]
    if isinstance(scalar, Fraction):
        raise FormatError(f"{what} must be an integer string, got {value!r}")
    return scalar


def require_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{what} must be a boolean")
    return value


class UnboundVariable(KeyError):
    """Raised when evaluation hits a variable missing from the assignment."""


def as_scalar(value: Scalar) -> Scalar:
    """Normalize a coefficient: Fractions with denominator 1 become ints."""
    # The exact type test first: isinstance against Fraction, an ABC, costs
    # ten times more, and almost every coefficient is an int.
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"not an exact scalar: {value!r}")


def int_to_str(value: int) -> str:
    """Decimal digits of any integer; Decimal ignores the int-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


# The most digits a numeral read from a document may have.  The Decimal
# fallback past the int-str digit limit takes quadratic time (10^6 digits:
# 34 s; 2 * 10^5: about 1.6 s).  Generators write numerals this long only
# from input numerals this long: the n=9 chain's constant has 212 digits.
NUMERAL_DIGIT_LIMIT = 200_000


def int_from_str(text: str) -> int:
    """Inverse of int_to_str on decimal integer text; also a JSON parse_int hook.

    Text of more than NUMERAL_DIGIT_LIMIT digits is refused before any
    conversion.
    """
    if len(text) > NUMERAL_DIGIT_LIMIT:
        digits = len(text) - text.startswith("-")
        if digits > NUMERAL_DIGIT_LIMIT:
            raise FormatError(
                f"numeral of {digits} digits exceeds the limit {NUMERAL_DIGIT_LIMIT}"
            )
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def scalar_to_str(value: Scalar) -> str:
    """Canonical decimal form: ``p`` for integers, ``p/q`` in lowest terms."""
    if type(value) is int:
        return int_to_str(value)
    value = as_scalar(value)
    if isinstance(value, int):
        return int_to_str(value)
    return f"{int_to_str(value.numerator)}/{int_to_str(value.denominator)}"


def scalar_from_str(text: str) -> Scalar:
    """Parse a canonical scalar string, rejecting unreduced or padded forms."""
    if not isinstance(text, str):
        raise FormatError(f"scalar must be a string, got {shown(text)}")
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise FormatError(f"malformed or non-canonical scalar {text!r}")
    num_text, den_text = m.group(1), m.group(2)
    num = int_from_str(num_text)
    if den_text is None:
        return num
    den = int_from_str(den_text)
    if den == 1:
        raise FormatError(f"denominator 1 must be written as an integer: {text!r}")
    frac = Fraction(num, den)
    if frac.denominator != den:
        raise FormatError(f"fraction not in lowest terms: {text!r}")
    return frac


def ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n, for n >= 1.  ceil_log2(1) == 0."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs a positive integer, got {n}")
    return (n - 1).bit_length()


def scalar_bits(value: Scalar) -> int:
    """Bit cost of a coefficient: ceil_log2|num| + ceil_log2 den; 0 for 0."""
    if type(value) is not int:
        value = as_scalar(value)
    if value == 0:
        return 0
    if isinstance(value, int):
        return ceil_log2(abs(value))
    return ceil_log2(abs(value.numerator)) + ceil_log2(value.denominator)


class VarId(NamedTuple):
    """A variable name.  kind is "x" or "y"; index starts at 1.

    Tuple ordering gives the global variable order: all x's before all
    y's, each family by index.
    """

    kind: str
    index: int

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"

    def __repr__(self) -> str:  # keep reprs short in test output
        return self.name


def xvar(index: int) -> VarId:
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return VarId("x", index)


def yvar(index: int) -> VarId:
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    return VarId("y", index)


# Every name parse_var has accepted, so a name is validated once.  It grows
# only with distinct valid names, one small entry each.
_PARSED_VARS: dict[str, VarId] = {}


def parse_var(name: str) -> VarId:
    var = _PARSED_VARS.get(name) if isinstance(name, str) else None
    if var is None:
        m = _VAR_NAME_RE.fullmatch(name) if isinstance(name, str) else None
        if m is None:
            raise FormatError(f"malformed variable name {shown(name)}")
        try:
            var = _PARSED_VARS[name] = VarId(m.group(1), int(m.group(2)))
        except ValueError:  # an index past the int-str digit limit
            raise FormatError(f"variable name {name[0]} followed by "
                              f"{len(name) - 1} digits is too long") from None
    return var


class Monomial:
    """A product of variables with positive exponents; immutable and hashable.

    Monomials are interned: while anything holds a monomial, every way of
    building the same product returns that one object.  Equality and hash
    are therefore identity (both inherited from object, so a dict keyed by
    monomials hashes in C), and each monomial memoizes its products, so a
    repeated ``times`` is one dict lookup.  Only _intern sets its private
    slots.  The hash depends on the address, so no order of output may come
    from a set of monomials: the graded order (``<``) decides every order.
    """

    __slots__ = ("_pairs", "_degree", "_products", "__weakref__")

    def __new__(cls, pairs: Iterable[tuple[VarId, int]] = ()) -> Monomial:
        pairs = _canonical(pairs)
        return _intern(pairs, sum(e for _, e in pairs))

    def __init__(self, pairs: Iterable[tuple[VarId, int]] = ()) -> None:
        """Does nothing: __new__ returns an interned, fully built monomial.

        It stays in the class body so that wrapping it counts the calls of
        Monomial(...) (perfbench's ``polyring.monomials_built``).
        """

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle give back the interned monomial.
        return Monomial, (self._pairs,)

    @staticmethod
    def one() -> Monomial:
        return _MONO_ONE

    @staticmethod
    def of(var: VarId, exp: int = 1) -> Monomial:
        if exp < 0:
            raise ValueError(f"negative exponent for {var.name}")
        return _intern(((var, exp),) if exp else (), exp)

    @staticmethod
    def product(variables: Iterable[VarId]) -> Monomial:
        """The product of variables: sorted, and merged only if one repeats."""
        ordered = sorted(variables)
        if len(set(ordered)) < len(ordered):
            return Monomial((v, 1) for v in ordered)
        return _intern(tuple((v, 1) for v in ordered), len(ordered))

    @property
    def pairs(self) -> tuple[tuple[VarId, int], ...]:
        return self._pairs

    @property
    def degree(self) -> int:
        return self._degree

    def is_one(self) -> bool:
        return not self._pairs

    def exponent(self, var: VarId) -> int:
        for v, e in self._pairs:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[VarId, ...]:
        return tuple(v for v, _ in self._pairs)

    def times(self, other: Monomial) -> Monomial:
        # The memo is keyed by the other factor's pairs, not by the factor,
        # and never holds the unit: each monomial then refers only to
        # monomials of higher degree, so no cycle waits for the collector.
        if not other._pairs:
            return self
        if not self._pairs:
            return other
        product = self._products.get(other._pairs)
        if product is None:
            degree = self._degree + other._degree
            if len(other._pairs) == 1:
                product = _intern(_inserted(self._pairs, other._pairs[0]), degree)
            else:
                product = _intern(_canonical(self._pairs + other._pairs), degree)
            self._products[other._pairs] = product
        return product

    def without(self, var: VarId, exp: int = 1) -> Monomial:
        """Divide by var**exp; raises if the exponent would go negative."""
        current = self.exponent(var)
        if current < exp:
            raise ValueError(f"{self} is not divisible by {var.name}^{exp}")
        return _intern(tuple(
            (v, e - exp if v == var else e)
            for v, e in self._pairs if v != var or e != exp
        ), self._degree - exp)

    def __lt__(self, other: Monomial) -> bool:
        # graded lex: degree first, then the earliest differing variable, whose
        # owner is larger.  At equal degree, equal prefixes are equal monomials.
        if self._degree != other._degree:
            return self._degree < other._degree
        for (va, ea), (vb, eb) in zip(self._pairs, other._pairs):
            if va != vb:
                return va > vb
            if ea != eb:
                return ea < eb
        return False

    def __repr__(self) -> str:
        if not self._pairs:
            return "1"
        return "*".join(
            v.name if e == 1 else f"{v.name}^{e}" for v, e in self._pairs
        )


def _canonical(pairs: Iterable[tuple[VarId, int]]) -> tuple[tuple[VarId, int], ...]:
    """Merge exponents per variable, drop zeros and sort by variable."""
    merged: dict[VarId, int] = {}
    for var, exp in pairs:
        if exp < 0:
            raise ValueError(f"negative exponent for {var.name}")
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def _inserted(
    pairs: tuple[tuple[VarId, int], ...], pair: tuple[VarId, int]
) -> tuple[tuple[VarId, int], ...]:
    """Canonical pairs times one more (var, exp): no merge, no sort.

    The slices share the other (var, exp) tuples with the given pairs.
    """
    var = pair[0]
    i = bisect.bisect_left(pairs, (var,))  # (var,) sorts before every (var, e)
    if i < len(pairs) and pairs[i][0] == var:
        return pairs[:i] + ((var, pairs[i][1] + pair[1]),) + pairs[i + 1 :]
    return pairs[:i] + (pair,) + pairs[i:]


def drop_dead_entry(
    table: dict, key: object, ref: weakref.ref, remove=_remove_dead_weakref
) -> None:
    """The weak-reference callback of an intern table entry (see _intern).

    remove is the C function WeakValueDictionary drops its entries with: it
    pops the key only while the entry still holds a dead reference.  A
    callback run by the same death may already have built the object again
    under that key, and that live entry stays.  It is bound at definition,
    as module globals are gone at interpreter shutdown.
    """
    remove(table, key)


# Every live monomial, keyed by its canonical pairs, as a plain dict of weak
# references, so lookups and inserts run in C.  An entry goes when its
# monomial dies: the reference's callback pops its key (drop_dead_entry).
_INTERNED: dict[tuple[tuple[VarId, int], ...], weakref.ref] = {}


def _intern(pairs: tuple[tuple[VarId, int], ...], degree: int) -> Monomial:
    """The one monomial with these canonical pairs (see _canonical) and degree."""
    ref = _INTERNED.get(pairs)
    if ref is not None:
        mono = ref()
        if mono is not None:
            return mono
    mono = object.__new__(Monomial)
    mono._pairs = pairs
    mono._degree = degree
    mono._products = {}
    _INTERNED[pairs] = weakref.ref(
        mono, functools.partial(drop_dead_entry, _INTERNED, pairs)
    )
    return mono


_MONO_ONE = Monomial()


def _add_terms(
    acc: dict[Monomial, Scalar], terms: Iterable[tuple[Monomial, Scalar]]
) -> dict[Monomial, Scalar]:
    """Sum exact terms into acc and return it: a monomial whose coefficient
    sums to zero leaves acc, and every other coefficient is normalized."""
    for mono, coef in terms:
        new = acc.get(mono, 0) + coef
        if new == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = as_scalar(new)
    return acc


class Polynomial:
    """An immutable sparse polynomial: a map from Monomial to nonzero Scalar.

    Terms sum by one rule, _add_terms, in construction, add, mul and
    substitute: coefficients add, a monomial summing to zero goes, and each
    coefficient is normalized.  Only __init__ and _wrap set its private
    term dict, which nothing changes afterwards.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Monomial, Scalar]] = ()):
        self._terms = _add_terms({}, ((mono, as_scalar(coef)) for mono, coef in terms))

    def __reduce__(self) -> tuple:
        return Polynomial, (tuple(self._terms.items()),)

    @staticmethod
    def _wrap(terms: dict[Monomial, Scalar]) -> Polynomial:
        """Adopt an already-normalized term dict without copying."""
        poly = Polynomial.__new__(Polynomial)
        poly._terms = terms
        return poly

    @staticmethod
    def zero() -> Polynomial:
        return _POLY_ZERO

    @staticmethod
    def constant(value: Scalar) -> Polynomial:
        value = as_scalar(value)
        if value == 0:
            return _POLY_ZERO
        return Polynomial._wrap({_MONO_ONE: value})

    @staticmethod
    def variable(var: VarId) -> Polynomial:
        return Polynomial._wrap({Monomial.of(var): 1})

    # -- structure ---------------------------------------------------------

    @property
    def term_map(self) -> Mapping[Monomial, Scalar]:
        return self._terms

    def terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in canonical (descending graded-lex) order."""
        return [(m, self._terms[m]) for m in sorted(self._terms, reverse=True)]

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(_MONO_ONE, 0)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree for m in self._terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    def variables(self) -> tuple[VarId, ...]:
        seen: set[VarId] = set()
        for mono in self._terms:
            seen.update(mono.variables())
        return tuple(sorted(seen))

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def add(self, other: Polynomial) -> Polynomial:
        if not other._terms:
            return self
        if not self._terms:
            return other
        return Polynomial._wrap(_add_terms(dict(self._terms), other._terms.items()))

    def neg(self) -> Polynomial:
        return Polynomial._wrap({m: -c for m, c in self._terms.items()})

    def sub(self, other: Polynomial) -> Polynomial:
        return self.add(other.neg())

    def scale(self, factor: Scalar) -> Polynomial:
        factor = as_scalar(factor)
        if factor == 0:
            return _POLY_ZERO
        if factor == 1:
            return self
        return Polynomial._wrap(
            {m: as_scalar(c * factor) for m, c in self._terms.items()}
        )

    def mul_term(self, mono: Monomial, coef: Scalar = 1) -> Polynomial:
        coef = as_scalar(coef)
        if coef == 0:
            return _POLY_ZERO
        if mono.is_one():
            return self.scale(coef)
        return Polynomial._wrap(
            {m.times(mono): as_scalar(c * coef) for m, c in self._terms.items()}
        )

    def mul_var(self, var: VarId) -> Polynomial:
        return self.mul_term(Monomial.of(var))

    def mul(self, other: Polynomial) -> Polynomial:
        if not self._terms or not other._terms:
            return _POLY_ZERO
        if len(self._terms) > len(other._terms):
            self, other = other, self
        pairs = other._terms.items()
        return Polynomial._wrap(_add_terms({}, (
            (m1.times(m2), c1 * c2) for m1, c1 in self._terms.items() for m2, c2 in pairs
        )))

    def square(self) -> Polynomial:
        return self.mul(self)

    def substitute(self, bindings: Mapping[VarId, Polynomial]) -> Polynomial:
        """Simultaneously replace variables by polynomials."""
        if not bindings:
            return self
        power_cache: dict[tuple[VarId, int], Polynomial] = {}

        def power(var: VarId, exp: int) -> Polynomial:
            key = (var, exp)
            got = power_cache.get(key)
            if got is None:
                got = bindings[var]
                for _ in range(exp - 1):
                    got = got.mul(bindings[var])
                power_cache[key] = got
            return got

        acc: dict[Monomial, Scalar] = {}
        for mono, coef in self._terms.items():
            residual: list[tuple[VarId, int]] = []
            piece = Polynomial.constant(coef)
            for var, exp in mono.pairs:
                if var in bindings:
                    piece = piece.mul(power(var, exp))
                else:
                    residual.append((var, exp))
            if residual:
                piece = piece.mul_term(Monomial(residual))
            _add_terms(acc, piece._terms.items())
        return Polynomial._wrap(acc)

    def evaluate(self, assignment: Mapping[VarId, Scalar]) -> Scalar:
        """Exact value at a point; every variable of self must be bound."""
        total: Scalar = 0
        for mono, coef in self._terms.items():
            value = coef
            for var, exp in mono.pairs:
                if var not in assignment:
                    raise UnboundVariable(var.name)
                value *= assignment[var] ** exp
            total += value
        return as_scalar(total)

    # -- measures ----------------------------------------------------------

    def bit_size(self) -> int:
        """Sum of coefficient bit costs; the zero polynomial has size 0."""
        return sum(scalar_bits(c) for c in self._terms.values())

    def denominator_product(self) -> int:
        """Product of all coefficient denominators (1 for integral polys)."""
        product = 1
        for coef in self._terms.values():
            if isinstance(coef, Fraction):
                product *= coef.denominator
        return product

    def denominator_lcm(self) -> int:
        """Least positive integer clearing all coefficient denominators."""
        out = 1
        for coef in self._terms.values():
            if isinstance(coef, Fraction):
                out = out * coef.denominator // math.gcd(out, coef.denominator)
        return out

    # -- dunder sugar ------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        return self.add(other)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self.sub(other)

    def __neg__(self) -> Polynomial:
        return self.neg()

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, Polynomial):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> Polynomial:
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coef in self.terms():
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            if mono.is_one():
                body = scalar_to_str(mag)
            elif mag == 1:
                body = repr(mono)
            else:
                body = f"{scalar_to_str(mag)}*{mono!r}"
            chunks.append(f"{sign} {body}" if chunks else
                          (f"-{body}" if sign == "-" else body))
        return " ".join(chunks)


_POLY_ZERO = Polynomial()


def max_degree(polys: Iterable[Polynomial]) -> int:
    """The largest degree among polys, by one max over all their terms; -1
    when every one is zero."""
    return max([m._degree for poly in polys for m in poly._terms], default=-1)


def boolean_axiom(var: VarId) -> Polynomial:
    """The polynomial var**2 - var, zero exactly on 0/1 values."""
    return Polynomial(((Monomial.of(var, 2), 1), (Monomial.of(var), -1)))


class ReductionStep(NamedTuple):
    """One replayable rewrite: coefficient * monomial * (variable^2 - variable)."""

    monomial: Monomial
    coefficient: Scalar
    variable: VarId


class _MaxOrder:
    """heapq adapter: pops the graded-lex largest monomial first."""

    __slots__ = ("mono",)

    def __init__(self, mono: Monomial):
        self.mono = mono

    def __lt__(self, other: "_MaxOrder") -> bool:
        return other.mono < self.mono


def multilinear_reduce(
    poly: Polynomial, boolean_vars: frozenset[VarId] | set[VarId]
) -> tuple[Polynomial, list[ReductionStep]]:
    """Reduce exponents of the given variables to at most 1.

    Returns (reduced, steps) with the exact identity

        poly == reduced + sum(c * m * (v**2 - v) for (m, c, v) in steps)

    so the steps replay as a proof that poly follows from the boolean
    axioms plus the reduced remainder.  Deterministic: always rewrites the
    currently largest offending monomial, at its earliest offending variable.
    """
    work: dict[Monomial, Scalar] = dict(poly.term_map)
    steps: list[ReductionStep] = []

    def offender(mono: Monomial) -> VarId | None:
        for var, exp in mono.pairs:
            if exp >= 2 and var in boolean_vars:
                return var
        return None

    heap = [_MaxOrder(m) for m in work if offender(m) is not None]
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap).mono
        coef = work.pop(mono, 0)
        if coef == 0:  # a rewrite cancelled it while it was queued
            continue
        var = offender(mono)
        lowered = mono.without(var)
        steps.append(ReductionStep(mono.without(var, 2), coef, var))
        new = work.get(lowered, 0) + coef
        if new == 0:
            work.pop(lowered, None)
        else:
            fresh = lowered not in work
            work[lowered] = as_scalar(new)
            if fresh and offender(lowered) is not None:
                heapq.heappush(heap, _MaxOrder(lowered))
    return Polynomial._wrap(work), steps


# -- serialization ----------------------------------------------------------

# The largest exponent a serialized monomial may carry.  No generator emits
# more than 2, while the work of substitution and the size of rationalize's
# scale factors grow with the exponent (y_j^E in a definition adds T_j^E).
EXPONENT_LIMIT = 1000


def mono_to_obj(mono: Monomial) -> dict[str, int]:
    return {var.name: exp for var, exp in mono.pairs}


def _mono_item(name: str, exp: object) -> tuple[VarId, int]:
    """The pair of one validated monomial item: its name, then its exponent."""
    var = parse_var(name)
    if not isinstance(exp, int) or isinstance(exp, bool) or exp < 1:
        raise FormatError(f"exponent of {name} must be a positive integer")
    if exp > EXPONENT_LIMIT:
        raise FormatError(f"exponent of {name} exceeds the limit {EXPONENT_LIMIT}")
    return var, exp


def _mono_from_obj(obj: object) -> Monomial:
    """Validate a monomial object item by item."""
    if not isinstance(obj, dict):
        raise FormatError(f"monomial must be an object, got {shown(obj)}")
    pairs = [_mono_item(name, exp) for name, exp in obj.items()]
    # Distinct keys are distinct canonical names, hence distinct variables.
    return _intern(tuple(sorted(pairs)), sum(exp for _, exp in pairs))


_POLY_FIELDS = frozenset({"terms"})
_TERM_FIELDS = frozenset({"coef", "mono"})


class Decoder:
    """Decodes the polynomials of one document.

    Each distinct coefficient string, monomial object and monomial item
    ``(name, exponent)`` is validated once, each item by ``_mono_item``; a
    repeat is one dict lookup, and a new monomial maps its items to their
    pairs and sorts them.  The tables are plain dicts that live as long as
    the decoder, so make one per document: nothing outlives the decode and
    no document inherits another's work.
    """

    __slots__ = ("_scalars", "_monos", "_items")

    def __init__(self) -> None:
        self._scalars: dict[str, Scalar] = {}
        self._monos: dict[tuple[tuple[str, int], ...], Monomial] = {}
        self._items: dict[tuple[str, int], tuple[VarId, int]] = {}

    def scalar(self, text: object) -> Scalar:
        """scalar_from_str(text), remembered per exact string."""
        if type(text) is not str:
            return scalar_from_str(text)  # type: ignore[arg-type]
        value = self._scalars.get(text)
        if value is None:
            value = self._scalars[text] = scalar_from_str(text)
        return value

    def mono(self, obj: object) -> Monomial:
        """The monomial of a JSON object, remembered per tuple(obj.items())."""
        if type(obj) is dict:
            # True == 1.0 == 1: only exact ints may share an entry with {"x1": 1}.
            for exp in obj.values():
                if type(exp) is not int:
                    break
            else:
                key = tuple(obj.items())
                mono = self._monos.get(key)
                if mono is None:
                    mono = self._monos[key] = self._new_mono(key, obj)
                return mono
        return _mono_from_obj(obj)

    def _new_mono(self, key: tuple[tuple[str, int], ...], obj: dict) -> Monomial:
        """The monomial of obj, whose items are key and whose exponents are ints."""
        items = self._items
        for item in key:
            if item not in items:
                items[item] = _mono_item(*item)
        return _intern(tuple(sorted(map(items.__getitem__, key))), sum(obj.values()))

    def poly(self, obj: object) -> Polynomial:
        terms = require_fields(obj, _POLY_FIELDS, "polynomial")["terms"]
        if not isinstance(terms, list):
            raise FormatError("'terms' must be an array")
        scalar, mono_of = self.scalar, self.mono
        out: dict[Monomial, Scalar] = {}
        for entry in terms:
            require_fields(entry, _TERM_FIELDS, "term")
            coef = scalar(entry["coef"])
            if coef == 0:
                raise FormatError("zero coefficient is not canonical")
            mono = mono_of(entry["mono"])
            if mono in out:
                raise FormatError(f"duplicate monomial {mono!r}")
            out[mono] = coef
        # scalar_from_str returns normalized scalars, and zeros and repeated
        # monomials were refused, so the dict is already canonical.
        return Polynomial._wrap(out)


def poly_to_obj(poly: Polynomial) -> dict[str, object]:
    return {
        "terms": [
            {"coef": scalar_to_str(coef), "mono": mono_to_obj(mono)}
            for mono, coef in poly.terms()
        ]
    }


class _Members(dict):
    """(VarId, exponent) -> its member text in a monomial object, as "x12":1,
    made on first use."""

    __slots__ = ()

    def __missing__(self, pair: tuple[VarId, int]) -> str:
        (kind, index), exp = pair
        text = self[pair] = f'"{kind}{index}":{exp}'
        return text


class Encoder:
    """Writes the polynomials of one document as canonical JSON text; the
    counterpart of Decoder.

    Each distinct monomial's text is made once, from members made once per
    distinct (variable, exponent); a repeat is one dict lookup.  JSON keys
    sort as strings (x10 before x2), and sorting the members sorts their
    names: where one name is a prefix of another, the longer goes on with a
    digit where the shorter has ended at '"', which sorts first.  The tables
    live as long as the encoder, so make one per document.
    """

    __slots__ = ("_monos", "_members")

    def __init__(self) -> None:
        self._monos: dict[Monomial, str] = {}
        self._members = _Members()

    def mono(self, mono: Monomial) -> str:
        """canonical_json text of mono_to_obj(mono), without the newline."""
        text = self._monos.get(mono)
        if text is None:
            members = sorted(map(self._members.__getitem__, mono._pairs))
            text = self._monos[mono] = "{" + ",".join(members) + "}"
        return text

    def poly(self, poly: Polynomial) -> str:
        """canonical_json text of poly_to_obj(poly), without the newline."""
        mono_text = self.mono
        return '{"terms":[' + ",".join([
            f'{{"coef":"{scalar_to_str(coef)}","mono":{mono_text(mono)}}}'
            for mono, coef in poly.terms()
        ]) + "]}"


def poly_from_obj(obj: object) -> Polynomial:
    return Decoder().poly(obj)


# A term starts at a sign that follows no operator: x1^-1 and 1/-2 are one term.
_TERM_SPLIT_RE = re.compile(r"(?<![*/^])(?=[+-])")
_DIGITS_RE = re.compile(r"[0-9]+")


def _parsed_decimal(digits: str, what: str, text: str, least: int) -> int:
    """Unsigned decimal digits from poly_parse's text, read as an int >= least."""
    value = int_from_str(digits) if _DIGITS_RE.fullmatch(digits) else None
    if value is None or value < least:
        raise FormatError(f"{what} {digits!r} in {text!r} is not a decimal >= {least}")
    return value


def poly_parse(text: str) -> Polynomial:
    """Small convenience parser: ``"2*x1^2*y3 - x1 + 1/2"``.

    Accepts sums of products of rationals and powered variables; no
    parentheses.  Only a term carries a sign: exponents and denominators
    are positive decimals.  Intended for tests and demos, not a wire format.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise FormatError("empty polynomial text")
    pairs: list[tuple[Monomial, Scalar]] = []
    for chunk in _TERM_SPLIT_RE.split(stripped):
        if not chunk or chunk in "+-":
            if chunk:
                raise FormatError(f"dangling sign in {text!r}")
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coef: Scalar = sign
        factors: list[tuple[VarId, int]] = []
        for factor in chunk.split("*"):
            if not factor:
                raise FormatError(f"empty factor in {text!r}")
            if factor[0] in "xy":
                name, caret, exp_text = factor.partition("^")
                exp = _parsed_decimal(exp_text, "exponent", text, 1) if caret else 1
                factors.append((parse_var(name), exp))
            else:
                num, slash, den = factor.partition("/")
                coef *= _parsed_decimal(num, "numerator", text, 0)
                if slash:
                    coef = Fraction(coef, _parsed_decimal(den, "denominator", text, 1))
        pairs.append((Monomial(factors), coef))
    return Polynomial(pairs)
