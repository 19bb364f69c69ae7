from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import template_reference
from conftest import fixture_path, load_fixture_script
from lexgram.errors import ScriptSyntaxError, UnknownSlotSymbol
from lexgram.script import (
    COLUMN,
    COMPONENT,
    GROUP,
    LITERAL,
    MAX_FLATS,
    SYMBOL,
    Action,
    ExtractionScript,
    ScriptRule,
    expand_alternation,
    parse_script,
    parse_template,
)
from lexgram.expansion import classify_substructure
from lexgram.model import Origin
from lexgram import script as script_module
from lexgram.lexicon import check_script_bindings
from lexgram.tables import parse_structure_label, parse_table


def _one_rule(text: str):
    script = parse_script(text)
    assert len(script.rules) == 1
    return script.rules[0]


def test_substructure_label_with_an_unknown_slot_names_file_and_line():
    text = fixture_path("extract.lgs").read_text(encoding="utf-8")
    bad = text.replace("substructure(Prép1 Det1 Modif", "substructure(Prép1 Det1 Mdif", 1)
    assert bad != text
    with pytest.raises(UnknownSlotSymbol) as err:
        parse_script(bad, source="extract.lgs")
    assert str(err.value) == (
        "extract.lgs:28: unknown component symbol 'Mdif' in 'Prép1 Det1 Mdif pré-adj Adj C1'"
    )


def test_parse_rule_fields():
    rule = _one_rule('PCA,PCDC : "Prép1 Det1 C1" => substructure(Prép1 Det1 C1) "@<ENT>Prép1@"')
    assert rule.tables == frozenset({"PCA", "PCDC"})
    assert rule.feature_id == "Prép1 Det1 C1"
    assert rule.action is Action.SUBSTRUCTURE
    assert rule.label == "Prép1 Det1 C1"
    assert len(rule.templates) == 1


def test_wildcard_tables_parse_to_none():
    rule = _one_rule('* : "N0 V Adv W" => construction')
    assert rule.tables is None
    assert rule.templates == ()
    assert rule.tables is None or "ANYTHING" in rule.tables


def test_feature_id_may_contain_punctuation():
    rule = _one_rule('T : "N0 V W de (E+une) (façon + manière) Adj" => paraphrase "en vue"')
    assert rule.feature_id == "N0 V W de (E+une) (façon + manière) Adj"


def test_template_list_and_continuation():
    text = 'T : "f" => paraphrase "en fait", \\\n    "à la fin"\n'
    rule = _one_rule(text)
    assert [t.text for t in rule.templates] == ["en fait", "à la fin"]


def test_comment_outside_quotes_only():
    script = parse_script('T : "f # not a comment" => paraphrase "en fait" # trailing\n')
    assert script.rules[0].feature_id == "f # not a comment"


def test_substructure_requires_label():
    with pytest.raises(ScriptSyntaxError):
        parse_script('T : "f" => substructure "@<ENT>C1@"')


def test_paraphrase_requires_templates():
    with pytest.raises(ScriptSyntaxError):
        parse_script('T : "f" => paraphrase')


def test_unknown_action_is_rejected():
    with pytest.raises(ScriptSyntaxError):
        parse_script('T : "f" => negation "ne pas"')


def test_duplicate_rule_is_rejected():
    text = 'T : "f" => paraphrase "a"\nT : "f" => paraphrase "b"\n'
    with pytest.raises(ScriptSyntaxError, match="duplicate rule for 'f' on 'T'"):
        parse_script(text)


def test_same_feature_for_disjoint_tables_is_allowed():
    text = 'T : "f" => paraphrase "a"\nU : "f" => paraphrase "b"\n'
    script = parse_script(text)
    assert len(script.rules) == 2


def test_effective_rules_explicit_beats_wildcard():
    text = '* : "f" => paraphrase "a"\nT : "f" => paraphrase "b"\n'
    script = parse_script(text)
    chosen = script.effective_rules("T")
    assert len(chosen) == 1
    assert chosen[0].templates[0].text == "b"
    fallback = script.effective_rules("U")
    assert fallback[0].templates[0].text == "a"


def test_effective_rules_keep_declaration_order():
    text = (
        'T : "f2" => intensifier "tout @x@"\n'
        'T : "f1" => paraphrase "en vue"\n'
    )
    script = parse_script(text)
    assert [r.feature_id for r in script.effective_rules("T")] == ["f2", "f1"]
    assert [r.feature_id for r in script.effective_rules("T", Action.PARAPHRASE)] == ["f1"]


def _scanned_effective_rules(script: ExtractionScript, table_id: str) -> list[ScriptRule]:
    """effective_rules as first written: a scan of every rule."""
    chosen: dict[str, ScriptRule] = {}
    for rule in script.rules:
        if rule.tables is not None and table_id not in rule.tables:
            continue
        prev = chosen.get(rule.feature_id)
        if prev is None or (prev.tables is None and rule.tables is not None):
            chosen[rule.feature_id] = rule
    return sorted(chosen.values(), key=lambda r: r.line)


# Few feature ids and tables, so that rules compete; lines repeat, as they
# do in scripts built in code, so that ties in the sort show.
_drawn_rules = st.builds(
    ScriptRule,
    st.sampled_from(("f1", "f2", "f3")),
    st.none() | st.frozensets(st.sampled_from(("T", "U", "V")), min_size=1),
    st.sampled_from((Action.PARAPHRASE, Action.CONSTRUCTION)),
    st.none(),
    st.just(()),
    st.integers(0, 3),
)


@given(st.lists(_drawn_rules, max_size=8).map(lambda rules: ExtractionScript(tuple(rules))))
def test_effective_rules_match_a_scan_of_every_rule(script):
    for table_id in ("T", "U", "W"):
        chosen = script.effective_rules(table_id)
        assert [id(rule) for rule in chosen] == [id(rule) for rule in _scanned_effective_rules(script, table_id)]


# --- templates ----------------------------------------------------------------

def test_parse_template_part_kinds():
    template = parse_template("à le niveau @Adj@ Poss2")
    kinds = [kind for kind, _ in template.parts]
    assert kinds == [LITERAL, LITERAL, LITERAL, COLUMN, SYMBOL]
    assert template.parts[3] == (COLUMN, "Adj")


def test_parse_template_component_marker():
    template = parse_template("@<ENT>Modif pré-adj@")
    assert template.parts == ((COMPONENT, "Modif pré-adj"),)


def test_parse_template_group_with_empty_alternative():
    template = parse_template("de (E + une) façon")
    assert template.parts[1] == (GROUP, ((), ((LITERAL, "une"),)))


def test_nested_group_is_rejected():
    with pytest.raises(ScriptSyntaxError, match="nested alternation"):
        parse_template("de ((a + b) + c)")


def test_unterminated_group_is_rejected():
    with pytest.raises(ScriptSyntaxError, match="unterminated '\\('"):
        parse_template("de (a + b")


def test_expand_alternation_orders_leftmost_most_significant():
    template = parse_template("de (E + une) (façon + manière) @Adj@")
    flats = expand_alternation(template)
    assert [f.text for f in flats] == [
        "de façon @Adj@",
        "de manière @Adj@",
        "de une façon @Adj@",
        "de une manière @Adj@",
    ]
    assert not any(kind == GROUP for f in flats for kind, _ in f.parts)


def test_expand_alternation_on_flat_template_is_identity():
    template = parse_template("en fait")
    assert expand_alternation(template) == [template]


# Differential tests against ``template_reference``, the parser with one
# class per part kind that the (kind, text) pairs replaced.

_TEMPLATE_PIECES = st.sampled_from((
    "de", "le", "une", "façon", "Poss2", "Ddef", "N", "Nhum", "E", "+",
    "@Adj@", "@<ENT> C1 @", "@<ENT>Det1@", "@", "(", ")", " ", "",
))
# well-formed groups, whose alternatives hold several parts, next to pieces
_drawn_groups = st.lists(st.lists(_TEMPLATE_PIECES, max_size=3).map(" ".join), min_size=1, max_size=3).map(
    lambda alts: "(" + " + ".join(alts) + ")",
)
_drawn_template_texts = (
    st.lists(_TEMPLATE_PIECES, max_size=12).map(" ".join)
    | st.lists(_TEMPLATE_PIECES, max_size=12).map("".join)
    | st.lists(_TEMPLATE_PIECES | _drawn_groups, max_size=5).map(" ".join)
)


def _parsed(parse, text):
    try:
        return parse(text)
    except ScriptSyntaxError as err:
        return type(err), str(err)


def _check_against_reference(text):
    got, want = _parsed(parse_template, text), _parsed(template_reference.parse_template, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.parts == template_reference.pairs(want.parts)
    assert got.text == want.text
    assert parse_template(got.text) == got
    flats, reference_flats = expand_alternation(got), template_reference.expand_alternation(want)
    assert [f.parts for f in flats] == [template_reference.pairs(f.parts) for f in reference_flats]
    assert [f.text for f in flats] == [f.text for f in reference_flats]


@given(_drawn_template_texts)
def test_parse_template_matches_the_reference(text):
    _check_against_reference(text)


@pytest.mark.parametrize("text, error", [
    ("de (E + une) @<ENT> C1 @ + Poss2 (Ddef + @Adj@)", None),
    ("(E) ()", None),
    ("(de une + E) façon (le + la @Adj@ + Ddef)", None),
    ("((a))", "nested alternation in '((a))'"),
    ("a)", "unmatched ')' in 'a)'"),
    ("(a", "unterminated '(' in '(a'"),
    ("@x", "unterminated placeholder in '@x'"),
    ("@ @", "empty placeholder in '@ @'"),
])
def test_parse_template_matches_the_reference_on_each_outcome(text, error):
    if error is not None:
        assert _parsed(template_reference.parse_template, text) == (ScriptSyntaxError, error)
    _check_against_reference(text)


# --- substructure classification ------------------------------------------------

def _slots(label: str):
    return parse_structure_label(label)


def test_ordered_subset_is_deletion():
    kind = classify_substructure("Prép1 Det1 C1", _slots("Prép1 Det1 C1 Prép2 Det2 C2"))
    assert kind is Origin.DELETION


def test_full_structure_is_deletion():
    kind = classify_substructure("Prép1 C1", _slots("Prép1 C1"))
    assert kind is Origin.DELETION


def test_reordered_slots_are_permutation():
    kind = classify_substructure("Prép1 Det1 Adj C1", _slots("Prép1 Det1 C1 Adj"))
    assert kind is Origin.PERMUTATION


def test_reordering_with_dropped_slot_is_permutation():
    kind = classify_substructure(
        "Prép1 Modif pré-adj Adj C1", _slots("Prép1 Det1 C1 Modif pré-adj Adj")
    )
    assert kind is Origin.PERMUTATION


def test_unsubscripted_label_does_not_match_subscripted_slots():
    kind = classify_substructure("Prép Det C", _slots("Prép1 Det1 C1"))
    assert kind is Origin.PERMUTATION


def test_fixture_script_parses_with_expected_rule_count():
    script = load_fixture_script()
    assert len(script.rules) == 16
    wildcard = [r for r in script.rules if r.tables is None]
    assert len(wildcard) == 1 and wildcard[0].feature_id == "N0 V Adv W"


# A template stands for the product of its groups' sizes in flat templates.
# compile checks placeholders on the parts and alternatives, so it builds
# none, and the script parser refuses a template of more than MAX_FLATS.
def test_a_template_at_the_flat_limit_parses_and_compile_leaves_it_unflattened():
    k = MAX_FLATS.bit_length() - 1
    assert 2 ** k == MAX_FLATS
    script = parse_script(f'* : "F" => paraphrase "{" ".join(["(a + @<ENT>C1@)"] * k)}"\n')
    (template,) = script.rules[0].templates
    assert [kind for kind, _ in template.parts] == [GROUP] * k
    check_script_bindings(parse_table("<ENT>C1\tF\nnuit\t+\n", "T"), script)
    assert "flats" not in vars(template)


def test_a_template_above_the_flat_limit_is_refused_before_any_flat_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(script_module, "expand_alternation", built.append)
    groups = " ".join(["(a + b)"] * (MAX_FLATS.bit_length() - 1))
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(f'T : "F" => paraphrase "de", "{groups} (c + d + E)"\n', source="big.lgs")
    assert str(err.value) == f"big.lgs:1: template '{groups} (c + d + E)' has 3,072 flat forms, more than 1,024"
    assert built == []
