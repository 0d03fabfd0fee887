"""Morphological feature values and the feature bundle attached to rules and analyses.

Each feature's values are a kind (``Pos``, ``Gender``, ...): a ``str``
subclass whose members are its only instances, one per value, each equal to
its text. ``Pos.VERB == "verb"``, ``Pos("verb") is Pos.VERB`` and
``Pos.VERB.value`` is the plain ``str`` ``"verb"``. Iterating a kind gives
its members in the order the class declares them. Copying or pickling a
member gives the member back.
"""

from __future__ import annotations

from collections import namedtuple


class _KindType(type):
    """The type of a kind: each upper-case attribute of the class body becomes a member."""

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        cls._members = {}
        for key, text in namespace.items():
            if key.isupper():
                member = str.__new__(cls, text)
                member.value = text
                cls._members[text] = member
                setattr(cls, key, member)

    def __call__(cls, text):
        """The member whose text is ``text``; ValueError when there is none."""
        try:
            return cls._members[text]
        except (KeyError, TypeError):
            raise ValueError(f"{text!r} is not a valid {cls.__name__}") from None

    def __iter__(cls):
        return iter(cls._members.values())


class Kind(str, metaclass=_KindType):
    """A member of a kind of value; ``value`` is its text as a plain ``str``."""

    def __reduce__(self):
        return type(self), (self.value,)


class Pos(Kind):
    VERB = "verb"
    NOUN = "noun"
    ADJECTIVE = "adjective"
    PRONOUN = "pronoun"
    OTHER = "other"


class Gender(Kind):
    MALE = "male"
    FEMALE = "female"


class Number(Kind):
    SINGULAR = "singular"
    PLURAL = "plural"


class Person(Kind):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


class Mood(Kind):
    INFINITIVE = "infinitive"
    INDICATIVE = "indicative"
    SUBJUNCTIVE = "subjunctive"
    IMPERATIVE = "imperative"
    PARTICIPLE = "participle"
    GERUND = "gerund"


class Tense(Kind):
    PRESENT = "present"
    PAST = "past"
    FUTURE = "future"
    CONDITIONAL = "conditional"
    IMPERFECT = "imperfect"


class Animacy(Kind):
    ANIMATE = "animate"
    INANIMATE = "inanimate"


#: Each field of a ``FeatureSet``, in order, and the kind of its values.
_FIELD_KINDS = {
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


class FeatureSet(namedtuple("FeatureSet", _FIELD_KINDS, defaults=(None,) * len(_FIELD_KINDS))):
    """A bundle of morphological feature values; every field may be unset (None)."""

    __slots__ = ()

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
    def from_cells(cls, cells: dict) -> FeatureSet:
        """Build from a mapping of column name to cell text.

        Empty cells and "-" mean unset. Unknown values raise ValueError.
        """
        values = {}
        for name, kind in _FIELD_KINDS.items():
            raw = (cells.get(name) or "").strip()
            if raw in ("", "-"):
                continue
            try:
                values[name] = kind(raw.lower())
            except ValueError:
                raise ValueError(f"invalid {name} value {raw!r}") from None
        fs = cls(**values)
        fs.validate()
        return fs
