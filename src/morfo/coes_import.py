"""Importer turning a COES/Ispell-style affix rule file into rule-table rows.

The source layout is ``flag *X:`` section headers followed by rule lines of
the form ``PATTERN > -REMOVED, ADDED`` or ``PATTERN > ADDED``, with ``#``
comments. Accents use the single-quote notation ('a for á); ñ may appear as
~n or 'n. Mood/tense/number hints are recognized from the nearest preceding
comment; every other feature cell is left blank for hand completion.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from morfo.features import FeatureSet, Mood, Number, Person, Tense
from morfo.resources import lines
from morfo.rules import COLUMNS, compile_stem_pattern, apply_rule, MorphRule

logger = logging.getLogger(__name__)

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

_FLAG_HEADER = re.compile(r"^flag\s+\*?(\S)\s*:\s*(.*)$", re.IGNORECASE)
_SECTION = re.compile(r"^(prefixes|suffixes)\s*(#.*)?$", re.IGNORECASE)


def convert_accents(text: str) -> str:
    """Convert COES quote/tilde accent notation to real accented characters."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        nxt = text[i + 1] if i + 1 < len(text) else ""
        if ch in ("'", "~") and nxt in _ACCENTS and (ch == "'" or nxt.lower() == "n"):
            out.append(_ACCENTS[nxt])
            i += 2
        else:
            if ch in ("'", "~"):
                logger.warning("dangling %r before %r left unchanged", ch, nxt)
            out.append(ch)
            i += 1
    return "".join(out)


def _convert(text: str) -> str:
    """Accent-convert, lowercase, and drop whitespace between pattern characters."""
    return re.sub(r"\s+", "", convert_accents(text)).lower()


@dataclass
class ImportedRule:
    """One TSV-ready rule row plus import provenance."""
    flag: str
    stem_ending: str
    morph_ending: str
    features: FeatureSet
    example: Optional[Tuple[str, str]]  # (root, form) from a trailing comment
    line_no: int

    def to_cells(self) -> List[str]:
        feats = self.features.as_dict()
        return [self.flag, self.stem_ending, self.morph_ending] + [
            feats[name] or "" for name in COLUMNS[3:]
        ]


def _hints_from_comment(comment: str) -> dict:
    hints = {}
    words = re.findall(r"[\wáéíóúñ]+", convert_accents(comment).lower())
    for word in words:
        hit = KEYWORD_HINTS.get(word)
        if hit:
            hints[hit[0]] = hit[1]
    return hints


def _parse_example(comment: str) -> Optional[Tuple[str, str]]:
    words = _convert_words(comment)
    if len(words) == 2 and all(w.isalpha() for w in words):
        return words[0], words[1]
    return None


def _convert_words(comment: str) -> List[str]:
    return [convert_accents(w).lower() for w in comment.split()]


def _split_rule_line(rule_text: str) -> Optional[Tuple[str, str, str]]:
    """Return (pattern, removed, added) or None when the line is not a rule."""
    if ">" not in rule_text:
        return None
    lhs, rhs = rule_text.split(">", 1)
    pattern = _convert(lhs)
    rhs = rhs.strip()
    if rhs.startswith("-"):
        if "," not in rhs:
            raise ValueError(f"expected '-REMOVED, ADDED' after '>' in {rule_text!r}")
        removed_part, added_part = rhs[1:].split(",", 1)
        removed = _convert(removed_part)
        added = _convert(added_part)
    else:
        removed = ""
        added = _convert(rhs)
    return pattern, removed, added


def _stem_from(pattern: str, removed: str) -> str:
    """Split the matched pattern into kept context + replaced part."""
    if removed:
        if not pattern.endswith(removed):
            raise ValueError(
                f"removed ending {removed!r} is not a literal suffix of pattern {pattern!r}")
        context = pattern[:-len(removed)]
    else:
        context = pattern
        removed = ""
    return (f"(?<={context})" if context else "") + removed


def import_rules(
    aff_source: Iterable[bytes | str],
    skip_flags: Sequence[str] = (),
    infer_person: bool = False,
) -> List[ImportedRule]:
    """Parse an affix file into TSV-ready rows; unparseable lines warn and are skipped.

    Only suffix rules are imported: an Ispell ``prefixes`` section is skipped
    up to the next ``suffixes`` line, with one warning naming its line.

    An example comment that its rule does not reproduce is logged as a warning.
    """
    skip: Set[str] = set(skip_flags)
    rows: List[ImportedRule] = []
    flag: Optional[str] = None
    in_prefixes = False
    hints: dict = {}
    block: List[int] = []  # indices into rows for the current hint block

    def close_block():
        if infer_person and block and hints and "number" not in hints:
            for slot, idx in enumerate(block):
                person, number = _PERSON_CYCLE[slot % len(_PERSON_CYCLE)]
                rows[idx].features = replace(rows[idx].features, person=person, number=number)
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
                logger.warning("line %d: prefixes section skipped; only suffix rules are imported",
                               line_no)
            continue
        header = _FLAG_HEADER.match(line)
        if header:
            close_block()
            flag = header.group(1)
            hints = _hints_from_comment(header.group(2))
            continue
        rule_text, _, comment = line.partition("#")
        rule_text = rule_text.strip()
        comment = comment.strip()
        if not rule_text:
            # standalone comment: reset hints if it names any keyword
            new_hints = _hints_from_comment(comment)
            if new_hints:
                close_block()
                hints = new_hints
            continue
        if ">" not in rule_text:
            # section prose without a '#': treated as a comment line
            new_hints = _hints_from_comment(rule_text)
            if new_hints:
                close_block()
                hints = new_hints
            continue
        if in_prefixes:
            continue
        if flag is None:
            logger.warning("line %d: rule before any flag header skipped", line_no)
            continue
        if flag in skip:
            continue
        try:
            pattern, removed, added = _split_rule_line(rule_text)
            stem = _stem_from(pattern, removed)
            compile_stem_pattern(stem)  # validate against the restricted dialect
        except ValueError as exc:
            logger.warning("line %d: %s; row skipped", line_no, exc)
            continue
        features = FeatureSet(**hints)
        example = _parse_example(comment) if comment else None
        rows.append(ImportedRule(
            flag=flag,
            stem_ending=stem,
            morph_ending=added,
            features=features,
            example=example,
            line_no=line_no,
        ))
        block.append(len(rows) - 1)
    close_block()
    for row, got in check_examples(rows):
        logger.warning("line %d: example %s -> %s, rule produced %r",
                       row.line_no, *row.example, got)
    return rows


def check_examples(rows: Iterable[ImportedRule]) -> List[Tuple[ImportedRule, Optional[str]]]:
    """Re-apply every rule carrying an example comment; return the failures."""
    failures = []
    for row in rows:
        if not row.example:
            continue
        rule = MorphRule(
            rule_id=0, flag=row.flag, stem_ending=row.stem_ending,
            morph_ending=row.morph_ending, features=row.features,
            pattern=compile_stem_pattern(row.stem_ending),
        )
        got = apply_rule(row.example[0], rule)
        if got != row.example[1]:
            failures.append((row, got))
    return failures


def rows_to_tsv(rows: Iterable[ImportedRule]) -> str:
    """Render imported rows as the rule-table TSV, header included."""
    lines = ["\t".join(COLUMNS)]
    for row in rows:
        lines.append("\t".join(row.to_cells()))
    return "\n".join(lines) + "\n"
