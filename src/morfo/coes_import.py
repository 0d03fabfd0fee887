"""Importer turning a COES/Ispell-style affix rule file into rule-table rows.

The source layout is ``flag *X:`` section headers followed by rule lines of
the form ``PATTERN > -REMOVED, ADDED`` or ``PATTERN > ADDED``, with ``#``
comments; a header may carry one rule after its colon. Accents use the
single-quote notation ('a for á); ñ may appear as ~n or 'n. Mood/tense/number
hints are recognized from the nearest preceding comment; every other feature
cell is left blank for hand completion.
"""

from __future__ import annotations

import re
from functools import partial
from collections.abc import Iterable, Sequence

from morfo.errors import warn
from morfo.features import FeatureSet, Mood, Number, Person, Tense
from morfo.resources import lines
from morfo.rules import MorphRule, apply_rule

_ACCENTS = {
    "a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú",
    "A": "Á", "E": "É", "I": "Í", "O": "Ó", "U": "Ú",
    "n": "ñ", "N": "Ñ",
}

#: Spanish keywords recognized in section comments, mapped to feature values.
KEYWORD_HINTS = {
    "presente": ("tense", Tense.PRESENT),
    "futuro": ("tense", Tense.FUTURE),
    "pasado": ("tense", Tense.PAST),
    "preterito": ("tense", Tense.PAST),
    "pretérito": ("tense", Tense.PAST),
    "imperfecto": ("tense", Tense.IMPERFECT),
    "condicional": ("tense", Tense.CONDITIONAL),
    "indicativo": ("mood", Mood.INDICATIVE),
    "subjuntivo": ("mood", Mood.SUBJUNCTIVE),
    "imperativo": ("mood", Mood.IMPERATIVE),
    "participio": ("mood", Mood.PARTICIPLE),
    "gerundio": ("mood", Mood.GERUND),
    "plural": ("number", Number.PLURAL),
}

_PERSON_CYCLE = (
    (Person.FIRST, Number.SINGULAR),
    (Person.SECOND, Number.SINGULAR),
    (Person.THIRD, Number.SINGULAR),
    (Person.FIRST, Number.PLURAL),
    (Person.SECOND, Number.PLURAL),
    (Person.THIRD, Number.PLURAL),
)

# The whole flag token, so that a flag of several characters fails at its rules.
_FLAG_HEADER = re.compile(r"^flag\s+(?:\*\s*)?(\S+?)\s*:\s*(.*)$", re.IGNORECASE)
_SECTION = re.compile(r"^(prefixes|suffixes)\s*(#.*)?$", re.IGNORECASE)
# A quote or tilde that starts no escape matches the last alternative alone.
_ESCAPE = re.compile(r"'([aeiouAEIOUnN])|~([nN])|['~]")


def _unescape(text: str) -> str:
    """``text`` with its accent escapes converted, and no warnings."""
    return _ESCAPE.sub(lambda m: _ACCENTS.get(m.group(1) or m.group(2), m.group()), text)


def convert_accents(text: str, line_no: int | None = None) -> str:
    """Convert COES quote/tilde accent notation to real accented characters.

    A quote or tilde that starts no escape is kept, with a warning that names
    ``line_no`` when it is given.
    """
    where = f"line {line_no}: " if line_no else ""
    for match in _ESCAPE.finditer(text):
        if match.lastindex is None:
            warn(f"{where}dangling {match.group()!r} before "
                 f"{text[match.end():match.end() + 1]!r} left unchanged")
    return _unescape(text)


def _convert(text: str, line_no: int) -> str:
    """Accent-convert, lowercase, and drop whitespace between pattern characters."""
    return re.sub(r"\s+", "", convert_accents(text, line_no)).lower()


def _hints_from_comment(comment: str) -> dict:
    hints = {}
    for word in re.findall(r"[\wáéíóúñ]+", _unescape(comment).lower()):
        hit = KEYWORD_HINTS.get(word)
        if hit:
            hints[hit[0]] = hit[1]
    return hints


def _parse_example(comment: str) -> tuple[str, str] | None:
    words = _unescape(comment).lower().split()
    if len(words) == 2 and all(w.isalpha() for w in words):
        return words[0], words[1]
    return None


def _stem_and_ending(rule_text: str, line_no: int) -> tuple[str, str]:
    """The stem-ending pattern and morph ending of ``PATTERN > [-REMOVED,] ADDED``.

    What the pattern matches before REMOVED becomes the kept context.
    """
    lhs, rhs = rule_text.split(">", 1)
    pattern = _convert(lhs, line_no)
    removed, rhs = "", rhs.strip()
    if rhs.startswith("-"):
        if "," not in rhs:
            raise ValueError(f"expected '-REMOVED, ADDED' after '>' in {rule_text!r}")
        removed, rhs = rhs[1:].split(",", 1)
        removed = _convert(removed, line_no)
        if removed and not removed.isalpha():
            raise ValueError(f"removed ending {removed!r} is not a string of letters")
    added = _convert(rhs, line_no)
    if not pattern.endswith(removed):
        raise ValueError(
            f"removed ending {removed!r} is not a literal suffix of pattern {pattern!r}")
    context = pattern[:len(pattern) - len(removed)]
    return (f"(?<={context})" if context else "") + removed, added


def import_rules(
    aff_source: Iterable[bytes | str],
    skip_flags: Sequence[str] = (),
    infer_person: bool = False,
) -> list[MorphRule]:
    """Parse an affix file into TSV-ready rows; unparseable lines warn and are skipped.

    Only suffix rules are imported: an Ispell ``prefixes`` section is skipped
    up to the next ``suffixes`` line, with one warning naming its line.

    An example comment that its rule does not reproduce is warned of.
    """
    skip: set[str] = set(skip_flags)
    rows: list[MorphRule] = []
    flag: str | None = None
    in_prefixes = False
    hints: dict = {}
    block: list[int] = []  # indices into rows for the current hint block

    def close_block():
        if infer_person and block and hints and "number" not in hints:
            for slot, idx in enumerate(block):
                person, number = _PERSON_CYCLE[slot % len(_PERSON_CYCLE)]
                # The block's rows were built from these hints; add person and number.
                rows[idx] = rows[idx]._replace(
                    features=FeatureSet(**hints, person=person, number=number))
        block.clear()

    for line_no, raw in lines(aff_source):
        line = raw.strip()
        if not line or set(line) <= {".", " "}:
            continue
        section = _SECTION.match(line)
        if section:
            close_block()
            flag, hints = None, {}
            in_prefixes = section.group(1).lower() == "prefixes"
            if in_prefixes:
                warn(f"line {line_no}: prefixes section skipped; only suffix rules are imported")
            continue
        header = _FLAG_HEADER.match(line)
        if header:
            close_block()
            flag, line, hints = header.group(1), header.group(2), {}
            if ">" not in line.partition("#")[0]:
                hints = _hints_from_comment(line)
                continue
            # A rule on the header line reads as if it stood on the next line.
        rule_text, _, comment = line.partition("#")
        rule_text, comment = rule_text.strip(), comment.strip()
        if ">" not in rule_text:
            # a standalone comment or section prose: new hints start a new block
            new_hints = _hints_from_comment(rule_text or comment)
            if new_hints:
                close_block()
                hints = new_hints
            continue
        if in_prefixes:
            continue
        if flag is None:
            warn(f"line {line_no}: rule before any flag header skipped")
            continue
        if flag in skip:
            continue
        try:
            stem, added = _stem_and_ending(rule_text, line_no)
            rows.append(MorphRule.build(
                flag, stem, added, partial(FeatureSet, **hints),
                example=_parse_example(comment), line_no=line_no))
            block.append(len(rows) - 1)
        except ValueError as exc:
            warn(f"line {line_no}: {exc}; row skipped")
    close_block()
    for row, got in check_examples(rows):
        source, expected = row.example
        warn(f"line {row.line_no}: example {source} -> {expected}, rule produced {got!r}")
    return rows


def check_examples(rows: Iterable[MorphRule]) -> list[tuple[MorphRule, str | None]]:
    """Every rule whose example comment it does not reproduce, with what it produced."""
    return [(row, got) for row in rows
            if row.example and (got := apply_rule(row.example[0], row)) != row.example[1]]
