"""The library surface that callers rely on: the README example, ``morfo.__all__``
and the value types."""

import copy
import io
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import morfo
from morfo import (Analyzer, Animacy, CliticSplit, FeatureSet, Gender, LexEntry, Mood, MorphRule,
                   Number, Person, Pos, Provenance, Tense, load_default_table, load_dictionary,
                   load_pronoun_table)
from morfo.cli import run
from morfo.conll_eval import load_mapping
from morfo.resources import data_path
from morfo.rules import dump_rules, load_rules, parse_stem_pattern

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lemmas = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert lemmas == ["vaca"]


def test_readme_command_line_examples_print_what_they_show():
    """Each ``$ echo ... | morfo`` and ``$ printf ... | morfo`` example, run through ``run``.

    The ``import-coes`` and ``evaluate`` examples pipe nothing in, and name
    files the repository does not have, so they are not run.
    """
    section = README.read_text(encoding="utf-8").split("## Command-line usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for example in block.split("\n\n"):
        command, *shown = example.strip("\n").split("\n")
        producer, piped, consumer = command.removeprefix("$ ").partition(" | ")
        if not piped:
            continue
        (program, text), argv = shlex.split(producer), shlex.split(consumer)
        stdin = text + "\n" if program == "echo" else text.replace("\\n", "\n")
        assert program in ("echo", "printf") and argv[0] == "morfo"
        out = io.StringIO()
        assert run(argv[1:], stdin=io.BytesIO(stdin.encode("utf-8")), stdout=out) == 0, command
        assert out.getvalue().splitlines() == shown, command
        commands.append(argv[1:])
    assert commands == [["analyze"], ["lemmatize"], ["nominalize"], ["split-clitics"]]


def test_every_module_loads_only_the_standard_library():
    """Importing each module of ``morfo``, with no ``site``, loads nothing from outside the stdlib."""
    script = ("import importlib, pkgutil, sys, morfo\n"
              "for module in pkgutil.iter_modules(morfo.__path__, 'morfo.'):\n"
              "    importlib.import_module(module.name)\n"
              "print(*sorted({name.partition('.')[0] for name in sys.modules}))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(morfo.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    names = proc.stdout.split()
    assert "morfo" in names
    assert [name for name in names
            if name not in {"morfo", "__main__"} and name not in sys.stdlib_module_names] == []


def test_every_exported_name_resolves():
    assert [name for name in morfo.__all__ if not hasattr(morfo, name)] == []


def _rule(pattern="ar", **changes):
    """A rule whose ``replaced`` and ``tests`` come from ``pattern``."""
    replaced, tests = parse_stem_pattern(pattern)
    values = dict(rule_id=1, flag="V", stem_ending="ar", morph_ending="o",
                  features=FeatureSet(pos=Pos.VERB), replaced=replaced, tests=tests)
    return MorphRule(**{**values, **changes})


# Per value type: the keyword arguments of one value, and a field with a
# value that makes a different one.
_VALUES = {
    FeatureSet: (dict(pos=Pos.VERB, mood=Mood.INDICATIVE), "tense", Tense.PRESENT),
    MorphRule: (dict(rule_id=1, flag="V", stem_ending="ar", morph_ending="o",
                     features=FeatureSet(pos=Pos.VERB), replaced=("a", "r"),
                     tests=("a", "r")),
                "morph_ending", "as"),
    LexEntry: (dict(root="amar", flags=("V",)), "flags", ("V", "N")),
    CliticSplit: (dict(verb_part="da", clitics=("me",),
                       pronoun_features=(FeatureSet(pos=Pos.PRONOUN, person=Person.FIRST),)),
                  "clitics", ("te",)),
}


@pytest.mark.parametrize("cls", list(_VALUES), ids=lambda cls: cls.__name__)
def test_value_types_compare_by_value_and_refuse_assignment(cls):
    kwargs, name, value = _VALUES[cls]
    one, same, other = cls(**kwargs), cls(**kwargs), cls(**{**kwargs, name: value})
    assert all(getattr(one, key) == kwarg for key, kwarg in kwargs.items())
    assert one == same and hash(one) == hash(same) and one is not same
    assert one != other and other == cls(**{**kwargs, name: value})
    assert len({one, same, other}) == 2
    for field in (name, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(one, field, value)
    with pytest.raises(AttributeError):
        delattr(one, name)
    assert one == same


def test_morph_rule_equality_compares_every_field():
    rule = _rule()
    assert (rule.line_no, rule.example) == (0, None)
    assert rule == _rule() and hash(rule) == hash(_rule())
    # Other replaced and position tests, line, example or id each make another rule.
    for changes in (dict(pattern="er"), dict(line_no=7), dict(example=("amar", "amo"))):
        assert rule != _rule(**changes)
    assert rule != _rule(rule_id=2)
    # dump_rules writes none of replaced, tests, line_no and example.
    moved = _rule(pattern="er", line_no=7, example=("amar", "amo"))
    assert dump_rules([rule]) == dump_rules([moved])


def test_feature_set_fields_and_dict():
    names = ("pos", "gender", "number", "person", "mood", "tense", "animate")
    assert FeatureSet._fields == names
    features = FeatureSet(Pos.NOUN, Gender.FEMALE, animate=Animacy.ANIMATE)
    assert list(features.as_dict().items()) == [
        ("pos", "noun"), ("gender", "female"), ("number", None), ("person", None),
        ("mood", None), ("tense", None), ("animate", "animate")]
    assert FeatureSet().as_dict() == dict.fromkeys(names)


@pytest.mark.parametrize("value", [
    FeatureSet(Pos.NOUN, Gender.FEMALE),
    _rule(line_no=4),
    _rule(line_no=4, example=("amar", "amo")),
    LexEntry("amar", ("V",)),
    CliticSplit("da", ("me",), (FeatureSet(pos=Pos.PRONOUN, person=Person.FIRST),)),
], ids=lambda value: type(value).__name__)
def test_value_types_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert twin.__reduce__() == value.__reduce__()


#: Each kind of value, with its members' texts in declaration order.
_KINDS = {
    Pos: ("verb", "noun", "adjective", "pronoun", "other"),
    Gender: ("male", "female"),
    Number: ("singular", "plural"),
    Person: ("first", "second", "third"),
    Mood: ("infinitive", "indicative", "subjunctive", "imperative", "participle", "gerund"),
    Tense: ("present", "past", "future", "conditional", "imperfect"),
    Animacy: ("animate", "inanimate"),
    Provenance: ("dictionary", "default_fallback", "irregular_table"),
}


@pytest.mark.parametrize("kind", list(_KINDS), ids=lambda kind: kind.__name__)
def test_a_kind_iterates_its_members_in_declaration_order(kind):
    members = list(kind)
    assert [member.value for member in members] == list(_KINDS[kind])
    for member in members:
        assert type(member) is kind and isinstance(member, str)
        assert type(member.value) is str and member == member.value and str(member) == member.value
        assert kind(member.value) is member and kind(member) is member
        assert getattr(kind, member.value.upper()) is member
    assert hash(Pos.VERB) == hash("verb") and f"{Pos.VERB}" == "verb"


@pytest.mark.parametrize("text", ["Verb", "VERB", "", None, ["verb"], Mood.GERUND])
def test_a_kind_called_with_no_members_text_names_the_kind(text):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not a valid Pos$"):
        Pos(text)


@pytest.mark.parametrize("member", [member for kind in _KINDS for member in kind])
def test_a_copied_or_pickled_member_is_the_member(member):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(member, protocol)) is member
    assert copy.copy(member) is member and copy.deepcopy(member) is member
    features = FeatureSet(Pos.VERB, mood=Mood.GERUND)
    assert pickle.loads(pickle.dumps(features)).mood is Mood.GERUND
    assert copy.deepcopy(features).pos is Pos.VERB


def _own_members(values) -> bool:
    """Whether every value set in each of ``values``, a feature set, is its kind's member."""
    kinds = list(_KINDS)[:len(FeatureSet._fields)]
    return all(value is None or kind(value.value) is value
               for features in values for kind, value in zip(kinds, features, strict=True))


def test_loaders_give_the_kinds_own_members():
    with open(data_path("rules.tsv"), "rb") as stream:
        rules = load_rules(stream)
    assert len(rules) > 100
    assert _own_members(rule.features for rule in rules.rules)

    with open(data_path("defaults.tsv"), "rb") as stream:
        defaults = load_default_table(stream)
    assert _own_members(row.features for row in defaults)
    with open(data_path("pronouns.tsv"), "rb") as stream:
        pronouns = load_pronoun_table(stream)
    assert _own_members(pronouns.values())
    assert {features.pos for features in pronouns.values()} == {Pos.PRONOUN}
    with open(data_path("conll_mapping.tsv"), "rb") as stream:
        mapping = load_mapping(stream)
    assert mapping.pos_map and all(Pos(pos.value) is pos for pos in mapping.pos_map.values())
    with open(data_path("dictionary.txt"), "rb") as stream:
        analyzer = Analyzer(load_dictionary(stream), rules, defaults)
    readings = [analyzer.preferred_analysis(word) for word in ("amo", "xyzzy", "fue")]
    assert all(a.provenance is p for a, p in zip(readings, Provenance, strict=True))
    assert _own_members(a.features for a in readings)
