"""Every term list that becomes a form is made canonical in one place: the
public ``Form`` constructor, ``LieAlgebraPresentation.form`` and the
structure equations agree with each other and with a direct expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.builders import heisenberg3
from hermitia.cealg import (
    Form,
    FormError,
    LieAlgebraPresentation,
    PresentationError,
    abelian,
    direct_sum,
    wedge,
)
from hermitia.scalars import SymbolTable

TABLE = SymbolTable()


def _expected(dim, pairs):
    """The canonical {indices: Fraction} of (Fraction, indices) pairs, or
    None when an index lies outside 1..dim; the permutation sign is the
    parity of the inversions."""
    out = {}
    for c, idx in pairs:
        if not all(1 <= k <= dim for k in idx):
            return None
        if len(set(idx)) < len(idx):
            continue
        inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
        key = tuple(sorted(idx))
        out[key] = out.get(key, 0) + (-c if inversions % 2 else c)
    return {k: v for k, v in out.items() if v}


# A coefficient is carried as its exact value and the spelling handed in.
_SPELLINGS = (str, int, lambda q: q, TABLE.scalar)


@st.composite
def _term_lists(draw, degrees):
    dim = draw(st.integers(min_value=2, max_value=5))
    stray = draw(st.booleans())  # whether an index may fall outside 1..dim
    index = st.integers(min_value=1 - stray, max_value=dim + stray)
    keys = draw(st.lists(
        st.integers(min_value=min(degrees), max_value=max(degrees)).flatmap(
            lambda k: st.tuples(*[index] * k)),
        max_size=8, unique=True))
    terms = {}
    for key in keys:
        value = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 1, 2, 3))))
        spell = draw(st.sampled_from(_SPELLINGS))
        if spell is int:
            value = Fraction(int(value))
        terms[key] = (value, spell(value))
    return dim, terms


def _as_fractions(form):
    return {idx: c.as_rational() for idx, c in form.terms.items()}


def _outcome(build):
    try:
        return _as_fractions(build())
    except (FormError, PresentationError):
        return None


@settings(max_examples=200, deadline=None)
@given(_term_lists(degrees=(0, 4)))
def test_form_constructor_and_form_agree_with_the_expansion(case):
    dim, terms = case
    pres = abelian(dim)
    expected = _expected(dim, [(v, idx) for idx, (v, _) in terms.items()])
    pairs = [(c, idx) for idx, (_, c) in terms.items()]
    by_dict = _outcome(lambda: Form(pres, {idx: c for c, idx in pairs}))
    by_pairs = _outcome(lambda: pres.form(pairs))
    assert by_dict == by_pairs == expected


@settings(max_examples=200, deadline=None)
@given(_term_lists(degrees=(2, 2)))
def test_structure_equations_agree_with_the_form_constructors(case):
    dim, terms = case
    pres = abelian(dim)
    expected = _expected(dim, [(v, idx) for idx, (v, _) in terms.items()])
    pairs = [(c, idx) for idx, (_, c) in terms.items()]

    def structure_equation():
        p = LieAlgebraPresentation(dim, {1: pairs})
        return Form(p, p.d_gen.get(1, {}), _canonical=True)

    assert _outcome(structure_equation) == _outcome(lambda: pres.form(pairs)) == \
        _outcome(lambda: Form(pres, {idx: c for c, idx in pairs})) == expected
    if expected is None:
        with pytest.raises(PresentationError):
            structure_equation()


def test_form_constructor_sorts_indices_with_their_sign():
    p = abelian(3)
    f = Form(p, {(2, 1): 1})
    assert f == p.form([(1, (2, 1))]) == p.form([(-1, (1, 2))])
    assert str(wedge(f, p.generator(3))) == "-e1^e2^e3"


def test_form_constructor_drops_repeated_indices():
    p = abelian(3)
    assert Form(p, {(1, 1): 1}).is_zero()
    assert Form(p, {(1, 1): 1, (2, 1): 1, (1, 2): 1}).is_zero()


def test_form_constructor_refuses_an_index_out_of_range():
    p = abelian(3)
    for idx in ((7,), (0,), (1, 4)):
        with pytest.raises(FormError):
            Form(p, {idx: 1})


def test_direct_sum_embeds_attached_forms():
    h = heisenberg3()
    s = direct_sum(h, h)
    assert s.forms["Phi"] == s.form([(1, (2, 3)), (1, (5, 6))])
    assert s.forms["contact"] == s.form([(1, (1,)), (1, (4,))])
    one_sided = direct_sum(abelian(2), h)
    assert one_sided.forms["Phi"] == one_sided.form([(1, (4, 5))])


def test_form_constructor_refuses_a_fractional_index():
    """A float index used to pass the range check and build a form whose
    ``str`` raised ``TypeError``."""
    with pytest.raises(FormError, match="index 1.5 is not an integer"):
        Form(abelian(3), {(1.5,): 1})


def test_form_constructor_refuses_a_name_index():
    """``Form`` takes integer indices (``pres.form`` resolves names); a name
    used to raise a bare ``TypeError`` from the range check."""
    with pytest.raises(FormError, match="index 'e1' is not an integer"):
        Form(abelian(3), {("e1",): 1})


def test_bool_indices_are_refused_in_forms_and_structure_equations():
    """``True`` used to stand quietly for generator 1."""
    with pytest.raises(FormError, match="index True is not an integer"):
        Form(abelian(3), {(True, 2): 1})
    with pytest.raises(PresentationError, match="index True is not an integer .* generator 3"):
        LieAlgebraPresentation(3, {3: [(1, (True, 2))]})
