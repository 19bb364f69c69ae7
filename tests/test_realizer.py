from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import realizer_reference
from conftest import load_fixture_morpho
from lexgram.errors import LexgramError, RealizationError, UnboundPlaceholder, UnknownSymbolicToken
from lexgram.realizer import (
    DEFAULT_RULES,
    DEFAULT_SYMBOLS,
    MorphoRules,
    contract,
    elide,
    parse_morpho_rules,
    realize,
    render,
)
from lexgram.script import COLUMN, COMPONENT, LITERAL, SYMBOL, SYMBOLIC_TOKENS, Template, parse_template


def test_contract_covers_the_four_fusions():
    assert contract(["de", "le", "possible"]) == ["du", "possible"]
    assert contract(["de", "les", "temps"]) == ["des", "temps"]
    assert contract(["à", "le", "cas"]) == ["au", "cas"]
    assert contract(["à", "les", "aguets"]) == ["aux", "aguets"]


def test_contract_is_single_left_to_right_pass():
    # the fused token is not reconsidered as the left part of another pair
    assert contract(["de", "le", "le"]) == ["du", "le"]


def test_contract_is_idempotent():
    samples = (
        ["de", "le", "point", "de", "les", "vues"],
        ["à", "le", "cas"],
        ["en", "fait"],
    )
    for tokens in samples:
        once = contract(tokens)
        assert contract(once) == once


def test_elide_before_vowel_and_mute_h():
    assert elide(["de", "une", "façon"]) == ["d'une", "façon"]
    assert elide(["le", "état"]) == ["l'état"]
    assert elide(["la", "heure"]) == ["l'heure"]
    assert elide(["que", "il"]) == ["qu'il"]


def test_elide_skips_consonants_and_prefused_tokens():
    assert elide(["de", "façon"]) == ["de", "façon"]
    assert elide(["l'", "insu"]) == ["l'", "insu"]


def test_elide_is_idempotent():
    tokens = ["de", "une", "manière", "le", "état"]
    once = elide(tokens)
    assert elide(once) == once


def test_render_spacing_and_fusion():
    assert render(["au", "cas", "où"]) == "au cas où"
    assert render(["l'", "insu"]) == "l'insu"
    assert render(["à", "cette", "heure-", "ci"]) == "à cette heure-ci"
    assert render([]) == ""


def test_parse_morpho_rules_round_trips_the_defaults():
    rules = load_fixture_morpho()
    assert rules == DEFAULT_RULES


def test_parse_morpho_rules_rejects_bad_directive():
    with pytest.raises(RealizationError):
        parse_morpho_rules("shrink de le = du\n")


def test_default_symbols_cover_exactly_the_symbolic_tokens():
    assert DEFAULT_SYMBOLS.keys() == SYMBOLIC_TOKENS


def test_parse_morpho_rules_empty_vowels_falls_back():
    rules = parse_morpho_rules("contract de le = du\n")
    assert rules.vowels == DEFAULT_RULES.vowels


_COMPONENTS = {"Prép1": "à", "Det1": "le", "C1": "cas"}


def test_realize_substitutes_and_finishes():
    surface = realize("@<ENT>Prép1@ @<ENT>Det1@ @<ENT>C1@ où", _COMPONENTS)
    assert surface.rendered == "au cas où"
    assert surface.tokens == ("à", "le", "cas", "où")


def test_realize_symbolic_tokens_use_the_policy():
    surface = realize("@<ENT>Prép1@ Poss2 @<ENT>C1@", _COMPONENTS)
    assert surface.rendered == "à son cas"
    custom = dict(DEFAULT_SYMBOLS, Poss2="leur")
    surface = realize("@<ENT>Prép1@ Poss2 @<ENT>C1@", _COMPONENTS, symbols=custom)
    assert surface.rendered == "à leur cas"


def test_realize_splits_multiword_cells():
    surface = realize("en le @<ENT>C1@", {"C1": "état actuel"})
    assert surface.tokens == ("en", "le", "état", "actuel")
    assert surface.rendered == "en l'état actuel"


def test_realize_plain_ref_prefers_aux_then_component():
    components, aux = {"C1": "cas"}, {"C1-syn": "situation"}
    assert realize("@C1-syn@", components, aux).rendered == "situation"
    assert realize("@C1@", components, aux).rendered == "cas"


def test_realize_empty_value_contributes_no_token():
    surface = realize("@<ENT>Det1@ @<ENT>C1@", {"Det1": "", "C1": "pourboire"})
    assert surface.tokens == ("pourboire",)
    assert surface.rendered == "pourboire"


def test_realize_unbound_placeholder_is_an_error():
    with pytest.raises(UnboundPlaceholder):
        realize("@manque@", _COMPONENTS)


def test_realize_unknown_symbolic_token_is_an_error():
    with pytest.raises(UnknownSymbolicToken):
        realize("Poss2 @<ENT>C1@", _COMPONENTS, symbols={})


def test_realize_refuses_unexpanded_alternation():
    with pytest.raises((RealizationError, ValueError)):
        realize("de (E + une) façon", _COMPONENTS)


def test_criterion_contractions_on_fixture_token_lists():
    """The four strings the corpus build depends on, checked at token level."""
    assert render(elide(contract(["de", "les", "temps"]))) == "des temps"
    assert render(elide(contract(["à", "le", "cas"]))) == "au cas"
    assert render(elide(contract(["de", "une", "façon"]))) == "d'une façon"
    assert render(elide(contract(["le", "état"]))) == "l'état"


# =============================================================================
# differential tests against the part-by-part realizer
# =============================================================================

# Words that contract, elide, start with a vowel or a mute h, end in an
# apostrophe or a hyphen, or are empty, in both cases.
_WORDS = ("de", "le", "les", "la", "à", "que", "une", "il", "heure", "Heure", "homme",
          "état", "État", "cas", "l'", "d'", "heure-", "ci", "", "du", "au")
_NAMES = ("C1", "Det1", "Adj", "syn")
_SYMBOLS = ("Poss2", "Ddef", "N", "Nhum")

_cells = st.lists(st.sampled_from(_WORDS), max_size=3).map(" ".join) | st.sampled_from(("", " ", "de  la\tcas"))
_parts = st.one_of(
    st.tuples(st.just(LITERAL), st.sampled_from(_WORDS)),
    st.tuples(st.just(SYMBOL), st.sampled_from(_SYMBOLS)),
    st.tuples(st.sampled_from((COMPONENT, COLUMN)), st.sampled_from(_NAMES)),
)
_drawn_templates = st.lists(_parts, max_size=6).map(lambda parts: Template(tuple(parts)))
_drawn_components = st.dictionaries(st.sampled_from(_NAMES), _cells, max_size=4)
_drawn_aux = st.dictionaries(st.sampled_from(_NAMES), _cells, max_size=2)
_symbol_policies = st.just(DEFAULT_SYMBOLS) | st.dictionaries(st.sampled_from(_SYMBOLS), _cells, max_size=4)
_word = st.sampled_from(_WORDS[:-3])
_drawn_rules = st.just(DEFAULT_RULES) | st.builds(
    MorphoRules,
    st.lists(st.tuples(_word, _word, _word), max_size=6).map(tuple),
    st.dictionaries(_word, st.sampled_from(("d'", "l'", "qu'", "x")), max_size=4),
    st.sets(st.sampled_from("aeéiouhÉc"), max_size=5).map(frozenset),
    st.sets(st.sampled_from(("heure", "homme", "cas")), max_size=2).map(frozenset),
)

# two rules on one pair (the first wins), and pairs that overlap
_OVERLAPPING = MorphoRules(
    contractions=(("de", "le", "du"), ("de", "le", "X"), ("le", "les", "Y"), ("de", "les", "des")),
    elisions={"de": "d'", "le": "l'", "la": "l'", "l'": "L'"},
    vowels=frozenset("aeé"),
    mute_h=frozenset({"heure", "homme"}),
)


def _outcome(realize_with, *args):
    try:
        return realize_with(*args)
    except (LexgramError, ValueError) as err:
        return type(err), str(err)


def _template(text: str) -> Template:
    return parse_template(text)


_EXAMPLE_COMPONENTS = {"C1": "état actuel", "Det1": "", "Adj": "de le les"}
_EXAMPLE_AUX = {"syn": "heure"}


@example(_template("de le le @Adj@ de les"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, DEFAULT_SYMBOLS, _OVERLAPPING)
@example(_template("la @syn@ l' homme de @<ENT>Det1@ état"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, DEFAULT_SYMBOLS, _OVERLAPPING)
@example(_template("Poss2 @<ENT>C1@"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, {"Ddef": "la"}, DEFAULT_RULES)
@example(_template("de @<ENT>syn@"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, DEFAULT_SYMBOLS, DEFAULT_RULES)
@given(_drawn_templates, _drawn_components, _drawn_aux, _symbol_policies, _drawn_rules)
def test_realize_matches_the_reference(template, components, aux, symbols, rules):
    expected = _outcome(realizer_reference.realize, template, components, aux, symbols, rules)
    assert _outcome(realize, template, components, aux, symbols, rules) == expected
    # a template given as text realizes as its parsed form does
    if template.parts and all(text for kind, text in template.parts if kind == LITERAL):
        assert _outcome(realize, template.text, components, aux, symbols, rules) == expected


def test_realize_reference_examples_cover_both_errors():
    assert _outcome(realize, _template("Poss2 @<ENT>C1@"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, {"Ddef": "la"}) == (
        UnknownSymbolicToken, "no policy for symbolic token 'Poss2'",
    )
    assert _outcome(realize, _template("de @<ENT>syn@"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX) == (
        UnboundPlaceholder, "placeholder '@<ENT>syn@' is not bound",
    )
    realized = realize(_template("de le le @Adj@ de les"), _EXAMPLE_COMPONENTS, _EXAMPLE_AUX, rules=_OVERLAPPING)
    assert realized.rendered == "du le du les des"


@given(st.lists(st.sampled_from(_WORDS), max_size=6), _drawn_rules)
def test_token_operations_match_the_reference(tokens, rules):
    assert contract(tokens, rules) == realizer_reference.contract(tokens, rules)
    assert elide(tokens, rules) == realizer_reference.elide(tokens, rules)
    assert render(tokens) == realizer_reference.render(tokens)
