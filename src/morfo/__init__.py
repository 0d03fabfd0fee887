"""Rule-based morphological analysis toolkit for Spanish.

Built around a spell-checker-style data model: a dictionary of root words
carrying single-letter rule flags, plus a table of suffix-substitution rules
annotated with morphological features. On top of that sit an analyzer
(person/mood/tense/gender/number/animacy labeling), a lemmatizer, a verb
nominalizer, an enclitic splitter, an Ispell-style rule-file importer, and a
CoNLL-2009 evaluation harness.
"""

from morfo.features import (
    Animacy,
    FeatureSet,
    Gender,
    Mood,
    Number,
    Person,
    Pos,
    Tense,
)
from morfo.errors import LoadError
from morfo.lexicon import LexEntry, Lexicon, load_dictionary, normalize
from morfo.rules import MorphRule, RuleTable, apply_rule, expand_entry, load_rules
from morfo.analyzer import Analysis, Analyzer, Provenance, load_default_table

__version__ = "0.1.0"

#: Modules whose names are imported on first use, so that importing the
#: package, as every CLI run does, loads neither of them.
_LAZY = {"morfo.derivers": ("Lemmatizer", "Nominalizer", "load_nominal_flags"),
         "morfo.clitics": ("CliticSplit", "CliticSplitter", "load_pronoun_table")}


def __getattr__(name):
    from importlib import import_module

    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Analysis",
    "Analyzer",
    "Animacy",
    "CliticSplit",
    "CliticSplitter",
    "FeatureSet",
    "Gender",
    "Lemmatizer",
    "LexEntry",
    "Lexicon",
    "LoadError",
    "Mood",
    "MorphRule",
    "Nominalizer",
    "Number",
    "Person",
    "Pos",
    "Provenance",
    "RuleTable",
    "Tense",
    "apply_rule",
    "expand_entry",
    "load_default_table",
    "load_dictionary",
    "load_nominal_flags",
    "load_pronoun_table",
    "load_rules",
    "normalize",
]
