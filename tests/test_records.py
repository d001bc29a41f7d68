"""The values a proof is made of: per-line records, monomials and polynomials.

None of them is frozen at run time.  The records are plain dataclasses
hashed by value, and Monomial and Polynomial keep their fields in private
slots behind properties with no setter.  The static test below is the check
that no code in the package writes a field after construction.
"""

import ast
import copy
import dataclasses
import pathlib
import pickle
from fractions import Fraction

import pytest

import polycal
from polycal.polyring import Monomial, Polynomial, xvar, yvar
from polycal.proofcore import Axiom, ExtensionAxiom, LinComb, MulVar, ProofLine, Sqrt
from polycal.reslin import (
    Disjunction,
    LinEq,
    RlAxiom,
    RlBooleanAxiom,
    RlContraction,
    RlLine,
    RlResolution,
    RlSimplification,
    RlWeakening,
)

SRC = pathlib.Path(polycal.__file__).parent

# The stores that build a monomial or a polynomial, outside any __init__:
# (module, enclosing function).
CONSTRUCTION_STORES = {
    ("polyring", "_intern"),
    ("polyring", "Polynomial._wrap"),
}
# The one builder that may call object.__setattr__: LinEq keeps its guard.
SETATTR_USERS = {("reslin", "_equation")}


def _field_writes(module: str, tree: ast.Module):
    """(kind, module, enclosing function, line) of each write in tree.

    kind is "init" for a store to self in an __init__, "store" for every
    other attribute store or delete, and "setattr" for each use of
    __setattr__ or __delattr__ and each call of setattr or delattr.
    """
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], function: str) -> None:
        where = ".".join(scope)
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                to_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                kind = "init" if to_self and function == "__init__" else "store"
                found.append((kind, module, where, node.lineno))
            elif node.attr in ("__setattr__", "__delattr__"):
                found.append(("setattr", module, where, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr")):
            found.append(("setattr", module, where, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(tree, (), "")
    return found


def test_values_are_never_written():
    writes = []
    for path in sorted(SRC.glob("*.py")):
        writes += _field_writes(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    stores = {(module, where) for kind, module, where, _ in writes if kind == "store"}
    setattrs = {(module, where) for kind, module, where, _ in writes if kind == "setattr"}
    assert stores == CONSTRUCTION_STORES, [
        w for w in writes if w[0] == "store" and w[1:3] not in CONSTRUCTION_STORES
    ]
    assert setattrs == SETATTR_USERS, [
        w for w in writes if w[0] == "setattr" and w[1:3] not in SETATTR_USERS
    ]
    assert ("init", "polyring", "Polynomial.__init__") in {w[:3] for w in writes}


def test_the_static_check_sees_a_stray_store():
    source = "def f(line):\n    line.rule = None\n\nclass C:\n    def g(self):\n        self.x = 1\n"
    writes = _field_writes("m", ast.parse(source))
    assert [w[:3] for w in writes] == [("store", "m", "f"), ("store", "m", "C.g")]


def _poly() -> Polynomial:
    return Polynomial([(Monomial.of(xvar(1)), 2), (Monomial.one(), Fraction(-1, 3))])


def _eq() -> LinEq:
    return LinEq.of({xvar(1): 1, xvar(2): -2}, 3)


# (record class, fresh field values, a field, another value for it)
RECORDS = [
    (Axiom, lambda: (0,), "index", 1),
    (LinComb, lambda: (0, 1, 2, Fraction(1, 3)), "beta", Fraction(2, 3)),
    (MulVar, lambda: (0, xvar(1)), "var", xvar(2)),
    (Sqrt, lambda: (3,), "k", 4),
    (ProofLine, lambda: (_poly(), LinComb(0, 1, 2, -1)), "poly", Polynomial.constant(1)),
    (ExtensionAxiom, lambda: (yvar(1), _poly()), "definition", Polynomial.constant(1)),
    (Disjunction, lambda: ((_eq(), LinEq.of({}, 1)),), "disjuncts", ()),
    (RlAxiom, lambda: (2,), "index", 3),
    (RlBooleanAxiom, lambda: (xvar(3),), "var", xvar(4)),
    (RlResolution, lambda: (0, 1, 0, 1, 2, -3), "alpha", 5),
    (RlWeakening, lambda: (0, _eq()), "eq", LinEq.of({xvar(1): 1}, 0)),
    (RlSimplification, lambda: (1, 0), "d", 1),
    (RlContraction, lambda: (1, 0, 2), "d2", 1),
    (RlLine, lambda: (Disjunction((_eq(),)), RlWeakening(0, _eq())), "rule", RlAxiom(0)),
]


@pytest.mark.parametrize("cls, make, field, other", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_compare_hash_copy_and_pickle_by_value(cls, make, field, other):
    first, second = cls(*make()), cls(*make())
    assert first == second and first is not second
    assert not hasattr(first, "__dict__")
    assert hash(first) == hash(second)
    changed = dataclasses.replace(first, **{field: other})
    assert changed != first and getattr(first, field) != other
    replaced = dataclasses.replace(first)
    assert replaced == first and replaced is not first
    assert copy.copy(first) == first
    assert copy.deepcopy(first) == first
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(first, protocol)) == first, protocol


def test_monomial_and_polynomial_fields_cannot_be_assigned():
    mono = Monomial.of(xvar(1), 2)
    poly = Polynomial([(mono, 3)])
    for value, name in ((mono, "pairs"), (mono, "degree"), (mono, "extra"),
                        (poly, "term_map"), (poly, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert mono.pairs == ((xvar(1), 2),) and mono.degree == 2
    assert dict(poly.term_map) == {mono: 3}
    # test_polyring.py::test_copies_and_pickles_keep_the_interned_monomial
    # checks that a copied or unpickled monomial is the interned one.
