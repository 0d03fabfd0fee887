"""Morphological feature values and the feature bundle attached to rules and analyses."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class Pos(str, Enum):
    VERB = "verb"
    NOUN = "noun"
    ADJECTIVE = "adjective"
    PRONOUN = "pronoun"
    OTHER = "other"


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"


class Number(str, Enum):
    SINGULAR = "singular"
    PLURAL = "plural"


class Person(str, Enum):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


class Mood(str, Enum):
    INFINITIVE = "infinitive"
    INDICATIVE = "indicative"
    SUBJUNCTIVE = "subjunctive"
    IMPERATIVE = "imperative"
    PARTICIPLE = "participle"
    GERUND = "gerund"


class Tense(str, Enum):
    PRESENT = "present"
    PAST = "past"
    FUTURE = "future"
    CONDITIONAL = "conditional"
    IMPERFECT = "imperfect"


class Animacy(str, Enum):
    ANIMATE = "animate"
    INANIMATE = "inanimate"


_FIELD_ENUMS = {
    "pos": Pos,
    "gender": Gender,
    "number": Number,
    "person": Person,
    "mood": Mood,
    "tense": Tense,
    "animate": Animacy,
}

#: Fields that may only be set on verb (or pos-unset) feature sets.
#: person is also meaningful on pronouns (clitic features).
_VERBAL_FIELDS = ("mood", "tense")

#: pos values on which gender is meaningful.
_GENDERED_POS = (Pos.NOUN, Pos.ADJECTIVE, Pos.PRONOUN)


class FeatureSet(NamedTuple):
    """A bundle of morphological feature values; every field may be unset (None)."""

    pos: Optional[Pos] = None
    gender: Optional[Gender] = None
    number: Optional[Number] = None
    person: Optional[Person] = None
    mood: Optional[Mood] = None
    tense: Optional[Tense] = None
    animate: Optional[Animacy] = None

    def validate(self) -> None:
        """Enforce pos-conditional constraints; raises ValueError on violation."""
        if self.pos is not None and self.pos is not Pos.VERB:
            for name in _VERBAL_FIELDS:
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} set on non-verb feature set (pos={self.pos.value})")
            if self.person is not None and self.pos is not Pos.PRONOUN:
                raise ValueError(f"person set on pos={self.pos.value}")
        if self.gender is not None and self.pos is not None and self.pos not in _GENDERED_POS:
            raise ValueError(f"gender set on pos={self.pos.value}")

    def as_dict(self) -> dict:
        """Feature values as plain strings, None for unset."""
        return {name: (value.value if value else None) for name, value in zip(self._fields, self)}

    @classmethod
    def from_values(cls, values) -> "FeatureSet":
        """Build from every field's value, in field order, as ``as_dict`` gives them."""
        return cls._make([None if value is None else enum_cls(value)
                          for enum_cls, value in zip(_FIELD_ENUMS.values(), values, strict=True)])

    @classmethod
    def from_cells(cls, cells: dict) -> "FeatureSet":
        """Build from a mapping of column name to cell text.

        Empty cells and "-" mean unset. Unknown values raise ValueError.
        """
        values = {}
        for name, enum_cls in _FIELD_ENUMS.items():
            raw = (cells.get(name) or "").strip()
            if raw in ("", "-"):
                continue
            try:
                values[name] = enum_cls(raw.lower())
            except ValueError:
                raise ValueError(f"invalid {name} value {raw!r}") from None
        fs = cls(**values)
        fs.validate()
        return fs
