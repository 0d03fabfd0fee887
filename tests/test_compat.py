"""The library surface that callers rely on: the README example, ``morfo.__all__``
and the value types."""

import copy
import io
import os
import pickle
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import morfo
from morfo import (Animacy, CliticSplit, FeatureSet, Gender, LexEntry, Mood, MorphRule, Person,
                   Pos, Tense)
from morfo.cli import run
from morfo.rules import dump_rules, parse_stem_pattern

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
