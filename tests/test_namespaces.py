"""One owner per namespace: symbol tables merge in ``scalars``
(``SymbolTable.merge``), generator references resolve in the presentation
(``LieAlgebraPresentation.resolve``), and a complex model checks its own
coframe indices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.builders import builtin, heisenberg3
from hermitia.cealg import (
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    abelian,
    direct_sum,
)
from hermitia.complexops import AlmostComplexStructure
from hermitia.scalars import ScalarError, Symbol, SymbolTable

# relation right sides, each with its value: "1+1" is "2" and "2*s-s" is "s"
# as polynomials, though not as text
RELATIONS = {None: None, (2, "2"): (2, "2"), (2, "1+1"): (2, "2"), (2, "3"): (2, "3"),
             (3, "2"): (3, "2"), (2, "s"): (2, "s"), (2, "2*s-s"): (2, "s")}
RETYPED = {(2, "2"): (2, "1+1"), (2, "1+1"): (2, "2"), (2, "s"): (2, "2*s-s"), (2, "2*s-s"): (2, "s")}
HINTS = (None, "positive", "negative", "unknown")


def _allowed(earlier, relation):
    """A right side may name s only once s is declared with a relation."""
    return relation is None or "s" not in relation[1] or any(
        sym.name == "s" and sym.relation for sym in earlier)


def _declares(symbols):
    """Whether the declarations make a table: a relation that factors over
    the field of the earlier ones (b^2 = 2 after a^2 = 2) is refused."""
    try:
        SymbolTable(symbols)
    except ScalarError:
        return False
    return True


@st.composite
def declarations(draw):
    """A valid declaration list over the names a, b, s, u in any order."""
    out = []
    for name in draw(st.lists(st.sampled_from("absu"), unique=True, max_size=4)):
        relation = draw(st.sampled_from([
            r for r in RELATIONS if _allowed(out, r) and _declares(out + [Symbol(name, r)])]))
        out.append(Symbol(name, relation, draw(st.sampled_from(HINTS))))
    return out


@st.composite
def table_pairs(draw):
    """Two declaration lists; where both declare a name, the second may
    repeat the first's declaration, its right side retyped to equal text.
    A right side that no longer finds s related, or that the earlier
    declarations make reducible, is dropped."""
    first = draw(declarations())
    own = {sym.name: sym for sym in first}
    second = []
    for sym in draw(declarations()):
        twin = own.get(sym.name)
        if twin is not None and draw(st.booleans()):
            sym = Symbol(sym.name, RETYPED.get(twin.relation, twin.relation), twin.sign_hint)
        if not (_allowed(second, sym.relation) and _declares(second + [sym])):
            sym = Symbol(sym.name, None, sym.sign_hint)
        second.append(sym)
    return first, second


def _declared(sym):
    return RELATIONS[sym.relation], sym.sign_hint


def _model(table, prefix):
    """d x_(2+k) = s_k x1^x2 for the k-th declared symbol s_k: one structure
    equation per symbol, each printed the same in any table that declares
    its symbol."""
    n = 2 + len(table.symbols)
    differential = {2 + k: [(sym.name, (1, 2))] for k, sym in enumerate(table.symbols, 1)}
    names = [f"{prefix}{k}" for k in range(1, n + 1)]
    return LieAlgebraPresentation(n, differential, names=names, table=table)


@settings(max_examples=150, deadline=None)
@given(table_pairs())
def test_merge_keeps_declarations_and_refuses_exactly_the_conflicts(pair):
    d1, d2 = pair
    t1, t2 = SymbolTable(d1), SymbolTable(d2)
    first = {sym.name: sym for sym in d1}
    conflict = any(_declared(sym) != _declared(first[sym.name]) for sym in d2 if sym.name in first)
    g1, g2 = _model(t1, "x"), _model(t2, "y")
    if conflict:
        with pytest.raises(ScalarError, match="is declared with"):
            t1.merge(t2)
        with pytest.raises(ScalarError, match="is declared with"):
            direct_sum(g1, g2)
        return
    new = tuple(sym for sym in d2 if sym.name not in first)
    if not _declares(tuple(d1) + new):
        # each table is a field, but together they declare a reducible tower
        with pytest.raises(ScalarError, match="is reducible"):
            t1.merge(t2)
        with pytest.raises(ScalarError, match="is reducible"):
            direct_sum(g1, g2)
        return
    merged = t1.merge(t2)
    assert merged.symbols == tuple(d1) + new
    assert (merged is t1) == (not new)
    s = direct_sum(g1, g2)
    assert s.table.symbols == merged.symbols
    for g, shift in ((g1, 0), (g2, g1.dim)):
        for k in range(1, g.dim + 1):
            assert str(s.d_of_generator(k + shift)) == str(g.d_of_generator(k))


def _pair(d1, d2):
    return abelian(2, table=SymbolTable(d1)), abelian(2, table=SymbolTable(d2))


@pytest.mark.parametrize(
    "second", [[Symbol("a", sign_hint="negative")], [Symbol("a", sign_hint="negative"), Symbol("b")]],
    ids=["same-names", "extra-name"],
)
def test_direct_sum_refuses_a_sign_hint_conflict(second):
    g1, g2 = _pair([Symbol("a", sign_hint="positive")], second)
    with pytest.raises(ScalarError, match="sign hints 'positive' and 'negative'"):
        direct_sum(g1, g2)


def test_direct_sum_refuses_a_missing_sign_hint():
    g1, g2 = _pair([Symbol("a", sign_hint="positive")], [Symbol("a")])
    with pytest.raises(ScalarError, match="sign hints 'positive' and None"):
        direct_sum(g1, g2)


def test_direct_sum_compares_relations_over_names():
    """Both tables declare u^2 = s, at different indices."""
    t1 = SymbolTable([Symbol("s", (2, "2")), Symbol("u", (2, "s"))])
    t2 = SymbolTable([Symbol("r", (2, "3")), Symbol("s", (2, "2")), Symbol("u", (2, "s"))])
    g1, g2 = _model(t1, "x"), _model(t2, "y")
    s = direct_sum(g1, g2)
    assert [sym.name for sym in s.table.symbols] == ["s", "u", "r"]
    assert str(s.d_of_generator("y5")) == "u*y1^y2"
    assert s.table.scalar("u^4") == 2


def test_tables_differing_in_a_sign_hint_are_incompatible():
    t1 = SymbolTable([Symbol("a", sign_hint="positive")])
    t2 = SymbolTable([Symbol("a", sign_hint="negative")])
    assert not t1.compatible(t2)
    assert t1.symbol("a") != t2.symbol("a")
    with pytest.raises(ScalarError, match="incompatible symbol table"):
        t1.scalar(t2.symbol("a"))
    g1, g2 = abelian(2, table=t1), abelian(2, table=t2)
    assert not g1.same_algebra(g2)
    with pytest.raises(FormError, match="mismatched presentations"):
        g1.form([("a", (1,))]) + g2.form([("a", (2,))])


def test_scalars_of_incompatible_tables_are_never_equal():
    a = SymbolTable([Symbol("a")]).symbol("a")
    b = SymbolTable([Symbol("b")]).symbol("b")
    assert a != b and not a == b
    with pytest.raises(ScalarError, match="incompatible symbol tables"):
        a + b


def test_gaussian_values_of_incompatible_tables_compare_by_value():
    t1, t2 = SymbolTable([Symbol("a")]), SymbolTable([Symbol("s", (2, "2"))])
    for text in ("0", "1/2", "i", "3-2*i"):
        assert t1.scalar(text) == t2.scalar(text)
    assert t1.scalar("i") != t2.scalar("-i")


def test_merge_refuses_a_different_relation():
    t1 = SymbolTable([Symbol("s", (2, "2")), Symbol("u", (2, "s"))])
    t2 = SymbolTable([Symbol("s", (2, "2")), Symbol("u", (2, "2*s"))])
    with pytest.raises(ScalarError, match="symbol 'u' is declared with two different relations"):
        t1.merge(t2)


@pytest.mark.parametrize("indices", [(1.5,), (True, 2)], ids=["float", "bool"])
def test_form_refuses_a_non_integer_reference(indices):
    with pytest.raises(FormError, match="is not an integer"):
        abelian(3).form([(1, indices)])


@pytest.mark.parametrize(
    "action",
    [{0: "e1", 2: "e3"}, {1.7: "e2", 3: "e4"}, {1: (1, 2.9), 3: "e4"}],
    ids=["index-zero", "float-source", "float-target"],
)
def test_from_action_refuses_a_bad_reference(action):
    with pytest.raises(FormError):
        AlmostComplexStructure.from_action(abelian(4), action)


def test_from_action_reads_names_and_indices_alike():
    a4 = abelian(4)
    by_name = AlmostComplexStructure.from_action(a4, {"e1": "e2", "e3": "-e4"})
    by_index = AlmostComplexStructure.from_action(a4, {1: (1, 2), 3: (-1, 4)})
    assert by_name.matrix == by_index.matrix
    with pytest.raises(PresentationError, match="unknown generator name 'e9'"):
        AlmostComplexStructure.from_action(a4, {"e9": "e1"})


def test_d_of_generator_resolves_its_reference():
    h = heisenberg3()
    assert h.d_of_generator("e1") == h.form([(1, (2, 3))]) == h.d_of_generator(1)
    for bad in (0, 7):
        with pytest.raises(FormError, match="out of range"):
            h.d_of_generator(bad)


def test_bracket_coefficients_resolves_its_references():
    h = heisenberg3()
    assert h.bracket_coefficients("e2", "e3") == h.bracket_coefficients(2, 3)
    with pytest.raises(FormError, match="out of range"):
        h.bracket_coefficients(0, 9)


@pytest.fixture(scope="module")
def at4_model():
    return builtin("AT4").build().acs("J").model()


@pytest.mark.parametrize(
    "build",
    [lambda m: m.eta(0), lambda m: m.eta(4), lambda m: m.eta_monomial((4,)),
     lambda m: m.eta_monomial((1,), (0,))],
    ids=["eta-0", "eta-4", "monomial-4", "conjugate-0"],
)
def test_complex_model_refuses_a_coframe_index_outside_1_to_m(at4_model, build):
    assert at4_model.m == 3
    with pytest.raises(FormError, match=r"not all integers in 1\.\.3"):
        build(at4_model)


def test_complex_model_reads_coframe_indices_in_range(at4_model):
    assert str(at4_model.eta(3)) == "e5+i*e6"
    assert str(at4_model.eta_monomial((1, 2), (3,))) == "z1^z2^zb3"
