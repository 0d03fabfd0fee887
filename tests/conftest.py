import pytest

from morfo.analyzer import Analysis, Analyzer, Provenance, load_default_table
from morfo.clitics import CliticSplitter, load_pronoun_table
from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.features import FeatureSet, Pos
from morfo.lexicon import load_dictionary, normalize
from morfo.rules import expand_entry, load_rules
from morfo.resources import data_path


def _read(name):
    return data_path(name).read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="session")
def lexicon():
    return load_dictionary(_read("dictionary.txt"))


@pytest.fixture(scope="session")
def rule_table():
    return load_rules(_read("rules.tsv"))


@pytest.fixture(scope="session")
def default_table():
    return load_default_table(_read("defaults.tsv"))


@pytest.fixture(scope="session")
def pronoun_table():
    return load_pronoun_table(_read("pronouns.tsv"))


@pytest.fixture(scope="session")
def nominal_flags():
    return load_nominal_flags(_read("nominal_flags.txt"))


@pytest.fixture(scope="session")
def analyzer(lexicon, rule_table, default_table):
    return Analyzer(lexicon, rule_table, default_table)


@pytest.fixture(scope="session")
def lemmatizer(analyzer):
    return Lemmatizer(analyzer)


@pytest.fixture(scope="session")
def nominalizer(lemmatizer, nominal_flags):
    return Nominalizer(lemmatizer, nominal_flags)


@pytest.fixture(scope="session")
def splitter(analyzer, pronoun_table):
    return CliticSplitter(analyzer, pronoun_table)


@pytest.fixture(scope="session")
def generation_set(lexicon, rule_table):
    """Brute-force expansion of every entry: list of (root, form, rule_id, features)."""
    out = []
    for entry in lexicon:
        for form, rule_id, features in expand_entry(entry, rule_table):
            out.append((entry.root, form, rule_id, features))
    return out


class BruteForce:
    """Reference analyzer: ``expand_entry`` over the whole lexicon, indexed by form.

    ``analyze`` follows the documented contract independently of how the
    analyzer finds its readings: readings whose lemma starts with a different
    letter from the word are ``irregular_table`` and come first, by rule then
    lemma; the others are ``dictionary``, by lemma then rule, and count only
    for alphabetic words; with none left after the POS filter, the fallback
    applies: a linear scan of the analyzer's default rows.
    """

    def __init__(self, analyzer):
        self.analyzer = analyzer
        self.forms = {}
        for entry in analyzer.lexicon:
            for form, rule_id, features in expand_entry(entry, analyzer.rules):
                self.forms.setdefault(form, []).append((entry.root, rule_id, features))

    def analyze(self, word, pos_hint=None):
        surface = normalize(word)
        hits = self.forms.get(surface, [])
        irregular = sorted(((rule_id, root, features) for root, rule_id, features in hits
                            if root[0] != surface[0]), key=lambda h: h[:2])
        dictionary = sorted((h for h in hits if h[0][0] == surface[0]),
                            key=lambda h: h[:2]) if surface.isalpha() else []
        results = [Analysis(surface, root, rule_id, features, Provenance.IRREGULAR_TABLE)
                   for rule_id, root, features in irregular]
        results += [Analysis(surface, root, rule_id, features, Provenance.DICTIONARY)
                    for root, rule_id, features in dictionary]
        results = [a for a in results if pos_hint is None or a.features.pos == pos_hint]
        return results or [Analysis(surface, surface, None,
                                    self.default_features(surface, pos_hint),
                                    Provenance.DEFAULT_FALLBACK)]

    def default_features(self, surface, pos_hint=None):
        """The rows of the hinted pos, then all rows, each longest ending first, ``*`` last."""
        if len(surface) <= 1 or not surface.isalpha():
            return FeatureSet(pos=Pos.OTHER)
        rows = sorted(self.analyzer.defaults, key=lambda r: (r.ending == "*", -len(r.ending)))
        passes = [rows]
        if pos_hint is not None:
            passes.insert(0, [r for r in rows if r.features.pos == pos_hint])
        for pass_rows in passes:
            for row in pass_rows:
                if row.ending == "*" or surface.endswith(row.ending):
                    return row.features
        return FeatureSet()


@pytest.fixture(scope="session")
def oracle(analyzer):
    return BruteForce(analyzer)


@pytest.fixture(scope="session")
def brute_force():
    """The reference analyzer class, for tests that build their own analyzer."""
    return BruteForce
