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
from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.clitics import CliticSplit, CliticSplitter, load_pronoun_table

__version__ = "0.1.0"

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
