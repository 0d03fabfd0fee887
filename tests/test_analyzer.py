import contextlib
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from morfo.analyzer import Analyzer, Provenance, load_default_table
from morfo.errors import LoadError
from morfo.features import FeatureSet, Gender, Mood, Number, Person, Pos, Tense
from morfo.lexicon import LexEntry, Lexicon, load_dictionary, normalize
from morfo.resources import data_path
from morfo.rules import COLUMNS, MorphRule, RuleTable, apply_rule, load_rules

ALPHABET = "abcdefghijklmnopqrstuvwxyzáéíóúñ"

# Rules whose replaced part holds a class, so the analyzer expands each into
# the literal root tails it matches. The first X rule overlaps the seed's
# "ar"/"er" -> "o" rules and keeps a context to check; the second X rule has
# only negated classes. Y can replace a whole three-letter root ("ser" ->
# "fui"). The two Z rules, one with classes and one literal, share a flag and
# a morph ending, so a root ending in "ar" is a head of both.
CLASS_RULES = [
    "X\t(?<=[^q])[ae]r\to\tverb\t\tsingular\tfirst\tindicative\tpresent\t",
    "X\t[^l][^m]\tamos\tverb\t\tplural\tfirst\tindicative\tpresent\t",
    "Y\t[sdi][aeo][rs]\tfui\tverb\t\tsingular\tfirst\tindicative\tpast\t",
    "Z\t[^aeiou]a[rs]\tiendo\tverb\t\t\t\tgerund\t\t",
    "Z\tar\tiendo\tverb\t\t\t\tgerund\t\t",
]


def fresh_analyzer(lexicon, rule_table, default_table):
    return Analyzer(lexicon, rule_table, default_table)


def test_amo_single_verb_reading(analyzer):
    results = analyzer.analyze("amo")
    assert len(results) == 1
    a = results[0]
    assert a.lemma == "amar"
    f = a.features
    assert (f.pos, f.number, f.person, f.mood, f.tense) == (
        Pos.VERB, Number.SINGULAR, Person.FIRST, Mood.INDICATIVE, Tense.PRESENT)


def test_results_are_not_shared_between_lookups(analyzer):
    expected = list(analyzer.analyze("amo"))
    preferred = analyzer.preferred_analysis("amo")
    for returned in (analyzer.analyze("amo"), analyzer.analyze("amo", None)):
        returned[:] = analyzer.analyze("mercado")
    assert analyzer.analyze("amo") == expected
    assert analyzer.preferred_analysis("amo") == preferred


def test_mercado_pos_hint_disambiguation(analyzer):
    noun = analyzer.preferred_analysis("mercado", Pos.NOUN)
    assert (noun.lemma, noun.features.pos, noun.features.gender, noun.features.number) == (
        "mercado", Pos.NOUN, Gender.MALE, Number.SINGULAR)
    verb = analyzer.preferred_analysis("mercado", Pos.VERB)
    assert (verb.lemma, verb.features.mood) == ("mercar", Mood.PARTICIPLE)


def test_mercado_noun_preferred_without_hint(analyzer):
    preferred = analyzer.preferred_analysis("mercado")
    assert preferred.features.pos is Pos.NOUN
    assert preferred.lemma == "mercado"


def test_vacas_preferred(analyzer):
    a = analyzer.preferred_analysis("vacas")
    assert (a.lemma, a.features.gender, a.features.number) == (
        "vaca", Gender.FEMALE, Number.PLURAL)


def test_unknown_word_falls_back(analyzer):
    results = analyzer.analyze("xyzal")
    assert len(results) == 1
    a = results[0]
    assert a.provenance is Provenance.DEFAULT_FALLBACK
    assert a.lemma == "xyzal"
    assert a.rule_id is None
    assert (a.features.pos, a.features.gender, a.features.number) == (
        Pos.NOUN, Gender.MALE, Number.SINGULAR)


def test_singleton_preferred(analyzer):
    assert analyzer.preferred_analysis("amo") == analyzer.analyze("amo")[0]


def test_irregular_forms_found_despite_first_letter(analyzer):
    lemmas = {(a.lemma, a.provenance) for a in analyzer.analyze("fue")}
    assert ("ser", Provenance.IRREGULAR_TABLE) in lemmas
    assert ("ir", Provenance.IRREGULAR_TABLE) in lemmas
    voy = analyzer.analyze("voy")
    assert voy[0].lemma == "ir"


def test_pos_filter(analyzer):
    for a in analyzer.analyze("mercado", Pos.VERB):
        assert a.features.pos is Pos.VERB
    # fallback still fires when nothing matches the hint
    results = analyzer.analyze("vacas", Pos.VERB)
    assert len(results) == 1
    assert results[0].provenance is Provenance.DEFAULT_FALLBACK


def test_punctuation_and_single_chars(analyzer):
    for token in (",", "...", "q"):
        a = analyzer.analyze(token)[0]
        assert a.features.pos is Pos.OTHER
        assert a.features.gender is None


def test_default_features_rows(analyzer):
    verb = analyzer.default_features("zzcantar")
    assert (verb.pos, verb.mood) == (Pos.VERB, Mood.INFINITIVE)
    fem = analyzer.default_features("zzlibertad")
    assert (fem.pos, fem.gender, fem.number) == (Pos.NOUN, Gender.FEMALE, Number.SINGULAR)
    plural = analyzer.default_features("zzpapeles")
    assert (plural.gender, plural.number) == (None, Number.PLURAL)


def test_default_table_load_error():
    with pytest.raises(LoadError, match="line 2"):
        load_default_table(io.StringIO("ending\tpos\n\tnoun\n"))
    with pytest.raises(LoadError, match="line 1: missing column"):
        load_default_table(io.StringIO("pos\tgender\n"))


def test_completeness_against_generation_oracle(analyzer, generation_set):
    for root, form, rule_id, _features in generation_set:
        pairs = {(a.lemma, a.rule_id) for a in analyzer.analyze(form)}
        assert (root, rule_id) in pairs, (root, form, rule_id)


def test_soundness_of_dictionary_analyses(analyzer, generation_set, lexicon, rule_table):
    sample = random.Random(7).sample(generation_set, 300)
    for _root, form, _rule_id, _features in sample:
        for a in analyzer.analyze(form):
            if a.provenance is Provenance.DEFAULT_FALLBACK:
                continue
            assert a.lemma in lexicon.flags
            assert apply_rule(a.lemma, rule_table.by_id[a.rule_id]) == form


def test_memo_transparency(lexicon, rule_table, default_table, generation_set):
    rng = random.Random(13)
    sample = [form for _r, form, _i, _f in rng.sample(generation_set, 500)]
    cold = fresh_analyzer(lexicon, rule_table, default_table)
    warm = fresh_analyzer(lexicon, rule_table, default_table)
    shuffled = sample[:]
    rng.shuffle(shuffled)
    for form in shuffled:  # prime the second analyzer in a different order
        warm.analyze(form)
    for form in sample:
        assert cold.analyze(form) == warm.analyze(form)


def test_provenance_audit(analyzer, oracle, generation_set):
    generated = {form for _r, form, _i, _f in generation_set}
    irregular = {form for root, form, _i, _f in generation_set if root[0] != form[0]}
    for form in list(generated)[:500]:
        results = analyzer.analyze(form)
        assert results == oracle.analyze(form)
        for a in results:
            assert a.provenance is not Provenance.DEFAULT_FALLBACK
    for form in irregular:
        assert analyzer.analyze(form) == oracle.analyze(form)
        assert analyzer.analyze(form)[0].provenance is Provenance.IRREGULAR_TABLE
    for token in ("xyzal", "zzlibertad"):
        assert token not in generated and token not in irregular
        assert analyzer.analyze(token)[0].provenance is Provenance.DEFAULT_FALLBACK


def test_stripping_amo_matches_oracle(analyzer, oracle):
    assert analyzer.analyze("amo") == oracle.analyze("amo")
    assert [a.lemma for a in analyzer.analyze("amo")] == ["amar"]


def test_stripping_unused_letter_matches_oracle(analyzer, oracle):
    assert analyzer.analyze("zzz") == oracle.analyze("zzz")
    assert analyzer.analyze("zzz")[0].provenance is Provenance.DEFAULT_FALLBACK


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, min_size=1, max_size=10))
def test_stripping_matches_oracle_on_random_strings(analyzer, oracle, surface):
    assert analyzer.analyze(surface) == oracle.analyze(surface)


def _check_order(results):
    """Irregular readings first, by (rule, lemma); dictionary readings next, by (lemma, rule)."""
    kinds = [a.provenance for a in results]
    assert kinds == sorted(kinds, key=lambda p: p is not Provenance.IRREGULAR_TABLE)
    irregular = [(a.rule_id, a.lemma) for a in results if a.provenance is Provenance.IRREGULAR_TABLE]
    dictionary = [(a.lemma, a.rule_id) for a in results if a.provenance is Provenance.DICTIONARY]
    assert irregular == sorted(irregular) and dictionary == sorted(dictionary)


@pytest.fixture(scope="module")
def class_rules():
    return load_rules(data_path("rules.tsv").read_text(encoding="utf-8").splitlines()
                      + CLASS_RULES)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stripping_matches_oracle_on_random_sub_lexicons(lexicon, class_rules, default_table,
                                                         brute_force, generation_set, data):
    chosen = data.draw(st.lists(st.sampled_from(list(lexicon)), max_size=40,
                                unique_by=lambda e: e.root))
    entries = [LexEntry(e.root, e.flags + tuple(data.draw(st.sets(st.sampled_from("XYZ")))
                                                - set(e.flags)))
               for e in chosen]
    analyzer = Analyzer(Lexicon({e.root: e.flags for e in entries}), class_rules, default_table)
    oracle = brute_force(analyzer)
    queries = list(oracle.forms)
    queries += data.draw(st.lists(st.sampled_from([f for _r, f, _i, _f in generation_set]),
                                  max_size=20))
    queries += data.draw(st.lists(st.text(alphabet=ALPHABET, min_size=1, max_size=10),
                                  max_size=20))
    for query in queries:
        for pos_hint in (None, Pos.VERB):
            results = analyzer.analyze(query, pos_hint)
            assert results == oracle.analyze(query, pos_hint), query
            _check_order(results)


# A small alphabet for rule tables whose morph endings nest; it holds the
# nominal endings' letters, so the nominal preference order is reached too.
NESTED_ALPHABET = "aáeéoñs"
_NESTED_FEATURES = [FeatureSet(pos=Pos.NOUN), FeatureSet(pos=Pos.ADJECTIVE),
                    FeatureSet(pos=Pos.VERB), FeatureSet(pos=Pos.VERB, mood=Mood.PARTICIPLE)]
_nested_token = st.one_of(
    st.sampled_from(NESTED_ALPHABET),
    st.builds(lambda negated, letters: "[" + "^" * negated + "".join(sorted(letters)) + "]",
              st.booleans(), st.sets(st.sampled_from(NESTED_ALPHABET), min_size=1, max_size=3)))


@st.composite
def nested_tables(draw):
    """(lexicon flags, rules): morph endings that are the suffixes of one string,
    the empty one included, and a rule that replaces a whole root, so that its
    morph ending is a whole word."""
    chain = draw(st.text(alphabet=NESTED_ALPHABET, min_size=1, max_size=4))
    endings = [chain[cut:] for cut in range(len(chain) + 1)]
    endings += draw(st.lists(st.text(alphabet=NESTED_ALPHABET, max_size=3), max_size=2))
    roots = draw(st.lists(st.text(alphabet=NESTED_ALPHABET, min_size=1, max_size=5),
                          min_size=1, max_size=12, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        context = "".join(draw(st.lists(_nested_token, max_size=1)))
        replaced = "".join(draw(st.lists(_nested_token, max_size=2)))
        rows.append((f"(?<={context}){replaced}" if context else replaced,
                     draw(st.sampled_from(endings))))
    rows.append((draw(st.sampled_from(roots)), draw(st.sampled_from([e for e in endings if e]))))
    rules = [MorphRule.build(draw(st.sampled_from("ABC")), stem_ending, morph_ending,
                             lambda: draw(st.sampled_from(_NESTED_FEATURES)), rule_id)
             for rule_id, (stem_ending, morph_ending) in enumerate(draw(st.permutations(rows)), 1)]
    flags = {root: tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3,
                                       unique=True)))
             for root in roots}
    return flags, rules


@settings(max_examples=60, deadline=None)
@given(table=nested_tables(), data=st.data())
def test_stripping_matches_oracle_on_random_nested_rule_tables(default_table, brute_force,
                                                               table, data):
    flags, rules = table
    with contextlib.redirect_stderr(io.StringIO()):  # a flag with no rules is warned about
        analyzer = Analyzer(Lexicon(flags), RuleTable(rules), default_table)
    oracle = brute_force(analyzer)
    queries = list(oracle.forms)
    queries += data.draw(st.lists(st.text(alphabet=NESTED_ALPHABET + "-", min_size=1,
                                          max_size=6), max_size=20))
    for query in queries:
        for pos_hint in (None, Pos.VERB, Pos.NOUN):
            results = analyzer.analyze(query, pos_hint)
            assert results == oracle.analyze(query, pos_hint), (query, pos_hint)
            _check_order(results)
    _check_preferred(analyzer, queries, (None, Pos.VERB, Pos.NOUN))


@pytest.mark.parametrize("entries, fui_lemmas", [
    # No root ends in a tail that Y's "[sdi][aeo][rs]" matches, so Y has no
    # head and "fui" no candidate root.
    (["amar/XY", "tul/Y", "ir/Y"], []),
    # A root as long as Y's replaced part is its own tail, so it is a head.
    (["ser/Y", "dar/XY", "ir/Y"], ["dar", "ser"]),
])
def test_class_rule_heads_are_the_root_tails_it_matches(default_table, brute_force, entries,
                                                        fui_lemmas):
    rules = load_rules(["\t".join(COLUMNS)] + CLASS_RULES)
    analyzer = Analyzer(load_dictionary(entries), rules, default_table)
    node = analyzer._trie
    for letter in reversed("fui"):
        node = node[1][letter]
    heads = [head for head, _by_flag in node[0]]
    assert sorted(heads) == sorted({lemma[-3:] for lemma in fui_lemmas})
    oracle = brute_force(analyzer)
    for word in ("fui", "amfui", "tfui", "amo", "amamos", "damos"):
        assert analyzer.analyze(word) == oracle.analyze(word), word
    assert [a.lemma for a in analyzer.analyze("fui") if a.rule_id] == fui_lemmas


def test_unknown_flags_warned_once_at_construction(capsys, rule_table, default_table):
    lexicon = load_dictionary(io.StringIO("ama/VQ\nvaca/SQW\ncasa/S\n"))
    analyzer = Analyzer(lexicon, rule_table, default_table)
    analyzer.analyze("ama")
    analyzer.analyze("vacas")
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert "2 dictionary entries" in warnings[0] and "(Q, W)" in warnings[0]


def test_analyze_normalizes_input(analyzer):
    assert analyzer.analyze("AMO") == analyzer.analyze(normalize("AMO"))


def _preference(surface):
    """``preferred_analysis``'s documented order, as a key over ``analyze`` results."""
    nominal = surface.endswith(("o", "a", "os", "as"))

    def rank(a):
        if nominal and a.features.pos is Pos.NOUN:
            shape = 0
        elif nominal and a.features.mood is Mood.PARTICIPLE:
            shape = 2
        else:
            shape = 1
        return shape, a.rule_id, a.lemma

    return rank


def _check_preferred(analyzer, words, hints):
    for word in words:
        for pos_hint in hints:
            expected = min(analyzer.analyze(word, pos_hint), key=_preference(normalize(word)))
            assert analyzer.preferred_analysis(word, pos_hint) == expected, (word, pos_hint)


def test_preferred_analysis_is_the_first_analysis_by_rank(analyzer, generation_set):
    rng = random.Random(23)
    words = sorted({form for _r, form, _i, _f in generation_set})
    words += ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 10)))
              for _ in range(5_000)]
    _check_preferred(analyzer, words, (None, *Pos))


def test_preferred_analysis_breaks_rule_ties_as_analyze_orders(class_rules, default_table,
                                                              brute_force):
    # One rule gives one word from several roots: Y gives "fui" (irregular
    # readings) and X gives "amo" (dictionary readings, nominal ending).
    lexicon = load_dictionary(["dar/Y", "ser/Y", "sos/Y", "der/Y", "amar/X", "amer/X"])
    analyzer = Analyzer(lexicon, class_rules, default_table)
    ties = [form for form, hits in brute_force(analyzer).forms.items()
            if len(hits) > len({rule_id for _root, rule_id, _f in hits})]
    assert {"fui", "amo"} <= set(ties)
    _check_preferred(analyzer, ties, (None, Pos.VERB))


def test_plain_string_hint_is_a_pos_hint(analyzer):
    for pos in Pos:
        for word in ("mercado", "amo", "fue", "vacas", "zzcantar", "xyzal", ","):
            for lookup in (analyzer.analyze, analyzer.preferred_analysis,
                           analyzer.default_features):
                assert lookup(word, pos.value) == lookup(word, pos), (lookup, word, pos)
    assert analyzer.preferred_analysis("mercado", "verb").lemma == "mercar"
    assert analyzer.default_features("zzcantar", "noun").pos is Pos.NOUN


# A default row: its ending (or "*") and two feature cells. Only these three
# pos values occur, so a pronoun or other hint has no rows of its own.
_DEFAULT_ROWS = st.tuples(st.just("*") | st.text(alphabet="abó", min_size=1, max_size=3),
                          st.sampled_from(["verb", "noun", "adjective"]),
                          st.sampled_from(["", "singular", "plural"]))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_DEFAULT_ROWS, max_size=8),
       words=st.lists(st.text(alphabet="abóx-", max_size=5), max_size=12))
@example(rows=[("abb", "verb", ""), ("ab", "noun", ""), ("b", "noun", "plural")], words=["ab"])
def test_default_fallback_matches_linear_scan(rule_table, brute_force, rows, words):
    table = load_default_table(["ending\tpos\tnumber"] + ["\t".join(row) for row in rows])
    analyzer = Analyzer(Lexicon({}), rule_table, table)
    oracle = brute_force(analyzer)
    for word in words:
        for pos_hint in (None, *Pos):
            assert (analyzer.default_features(word, pos_hint)
                    == oracle.default_features(normalize(word), pos_hint)), (word, pos_hint)
            if word:
                assert analyzer.analyze(word, pos_hint) == oracle.analyze(word, pos_hint)


def test_unknown_flag_warning_counts_every_root_of_a_shared_tuple(capsys, rule_table,
                                                                   default_table):
    lexicon = load_dictionary(["ama/VQ", "vaca/SQW", "casa/S", "perro/SWQ", "gato/SQW", "mar/QV"])
    Analyzer(lexicon, rule_table, default_table)
    assert capsys.readouterr().err.splitlines() == [
        "morfo: 5 dictionary entries carry flags with no rules (Q, W); those flags are skipped"]


def test_a_library_warning_is_one_stderr_line_and_nothing_on_stdout(rule_table, default_table):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        Analyzer(load_dictionary(["amar/VQ"]), rule_table, default_table)
    assert (err.getvalue(), out.getvalue()) == (
        "morfo: 1 dictionary entries carry flags with no rules (Q); those flags are skipped\n", "")
