"""Deterministic input generators for the benchmark.

Every generator takes a ``random.Random`` seeded from the benchmark's
``--seed``, so one seed always yields byte-identical files. The program under
test only ever sees the files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from morfo.features import FeatureSet, Mood, Pos
from morfo.lexicon import LexEntry, Lexicon
from morfo.rules import RuleTable, expand_entry

# Letters used for mutated root interiors and out-of-vocabulary strings.
LETTERS = "abcdefghijlmnopqrstuvxyzñ"
OOV_LETTERS = "abcdefghijklmnopqrstuvwxyz"
POS_VALUES = tuple(p.value for p in Pos)
HOST_MOODS = (Mood.IMPERATIVE, Mood.INFINITIVE, Mood.GERUND)
# Roots keep this many final letters (their inflectional ending) when mutated.
ENDING_LEN = 2


def mutate_root(root: str, rng: random.Random) -> str:
    """A new root with ``root``'s first letter and ending and a random interior."""
    interior = root[1:-ENDING_LEN]
    size = max(1, len(interior) + rng.choice((-1, 0, 0, 1, 1, 2)))
    return root[0] + "".join(rng.choice(LETTERS) for _ in range(size)) + root[-ENDING_LEN:]


def scale_lexicon(lexicon: Lexicon, rules: RuleTable, factor: int,
                  rng: random.Random) -> List[LexEntry]:
    """The seed lexicon plus ``factor - 1`` mutated copies of each mutable root.

    A copy keeps its root's first letter, ending and flags, so the number of
    roots per first letter grows with ``factor``. Roots too short to have an
    interior, and roots whose rules stop applying once mutated (whole-root
    irregulars such as ``ser``), are not copied.
    """
    entries = list(lexicon)
    taken = {e.root for e in entries}
    for entry in lexicon:
        if len(entry.root) < ENDING_LEN + 2:
            continue
        probe = LexEntry(mutate_root(entry.root, random.Random(entry.root)), entry.flags)
        if not expand_entry(probe, rules):
            continue
        made = 0
        while made < factor - 1:
            root = mutate_root(entry.root, rng)
            if root in taken:
                continue
            taken.add(root)
            entries.append(LexEntry(root, entry.flags))
            made += 1
    entries.sort(key=lambda e: e.root)
    return entries


def lexicon_text(entries: Sequence[LexEntry]) -> str:
    return "".join(e.to_line() + "\n" for e in entries)


def random_word(rng: random.Random) -> str:
    return "".join(rng.choice(OOV_LETTERS) for _ in range(rng.randint(4, 10)))


def oov_words(count: int, known, rng: random.Random) -> List[str]:
    """``count`` distinct random strings that are not in ``known``."""
    out: List[str] = []
    seen = set()
    while len(out) < count:
        word = random_word(rng)
        if word not in known and word not in seen:
            seen.add(word)
            out.append(word)
    return out


def zipf_draw(vocab: Sequence[str], count: int, rng: random.Random,
              exponent: float = 1.0) -> List[str]:
    """``count`` draws from ``vocab`` where rank r has weight 1/(r+1)^exponent."""
    cum = []
    total = 0.0
    for rank in range(len(vocab)):
        total += 1.0 / (rank + 1) ** exponent
        cum.append(total)
    return rng.choices(vocab, cum_weights=cum, k=count)


@dataclass
class TokenLine:
    token: str
    pos: Optional[str] = None

    def render(self) -> str:
        return self.token if self.pos is None else f"{self.token}\t{self.pos}"


def hint_lines(tokens: Sequence[str], oracle, rng: random.Random,
               hint_share: float = 0.2) -> List[TokenLine]:
    """Attach a POS hint to ``hint_share`` of the tokens.

    Three hints in four name the POS of one of the token's own readings, so
    most hinted lookups hit; the rest name a random POS.
    """
    lines = []
    for token in tokens:
        pos = None
        if rng.random() < hint_share:
            readings = oracle.readings(token)
            if readings and rng.random() < 0.75:
                pos = rng.choice(sorted({r.features.pos.value for r in readings}))
            else:
                pos = rng.choice(POS_VALUES)
        lines.append(TokenLine(token, pos))
    return lines


def render_lines(lines: Sequence[TokenLine]) -> str:
    return "".join(line.render() + "\n" for line in lines)


def zipf_stream(forms: Sequence[str], oov: Sequence[str], count: int, oov_share: float,
                rng: random.Random) -> List[str]:
    """A Zipf-distributed token stream with about ``oov_share`` unknown strings.

    The popularity ranks are a seeded shuffle of the vocabulary, so which
    forms are frequent changes with the seed. A few tokens are capitalised to
    exercise input normalisation.
    """
    vocab = list(forms)
    rng.shuffle(vocab)
    known = zipf_draw(vocab, count, rng)
    unknown = zipf_draw(list(oov), count, rng)
    tokens = [unknown[i] if rng.random() < oov_share else known[i] for i in range(count)]
    return [t.capitalize() if rng.random() < 0.05 else t for t in tokens]


def letter_spread(entries: Sequence[LexEntry], rules: RuleTable, count: int, oov_share: float,
                  rng: random.Random) -> List[str]:
    """``count`` tokens covering every first letter of the lexicon.

    Known tokens are forms of random roots of each letter in turn; about
    ``oov_share`` are random strings that start with the same letter (the
    oracle decides whether one of them happens to be a form).
    """
    by_letter: Dict[str, List[LexEntry]] = {}
    for entry in entries:
        by_letter.setdefault(entry.root[0], []).append(entry)
    letters = sorted(by_letter)
    tokens = []
    for i in range(count):
        letter = letters[i % len(letters)]
        if rng.random() < oov_share:
            tokens.append(letter + random_word(rng))
            continue
        forms: List[str] = []
        while not forms:
            forms = [f.form for f in expand_entry(rng.choice(by_letter[letter]), rules)]
        tokens.append(rng.choice(forms))
    rng.shuffle(tokens)
    return tokens


def letter_groups(entries: Sequence[LexEntry], count: int) -> List[List[LexEntry]]:
    """Split ``entries`` by first letter into ``count`` groups of about equal size."""
    by_letter: Dict[str, List[LexEntry]] = {}
    for entry in entries:
        by_letter.setdefault(entry.root[0], []).append(entry)
    groups: List[List[LexEntry]] = [[] for _ in range(count)]
    for letter in sorted(by_letter, key=lambda k: (-len(by_letter[k]), k)):
        min(groups, key=len).extend(by_letter[letter])
    return groups


def repeated_share(tokens: Sequence[str]) -> float:
    """Share of tokens that repeat an earlier token of the stream."""
    return 1.0 - len(set(tokens)) / len(tokens) if tokens else 0.0


# -- synthetic CoNLL-2009 corpus ---------------------------------------------

# Inverse of the packaged conll_mapping.tsv for the features the rules set.
_FEAT_CODES = {
    "gender": {"male": "gen=m", "female": "gen=f"},
    "number": {"singular": "num=s", "plural": "num=p"},
    "person": {"first": "person=1", "second": "person=2", "third": "person=3"},
    "mood": {"indicative": "mood=indicative", "subjunctive": "mood=subjunctive",
             "imperative": "mood=imperative", "infinitive": "mood=infinitive",
             "gerund": "mood=gerund", "participle": "mood=pastparticiple"},
    "tense": {"present": "tense=present", "past": "tense=past", "imperfect": "tense=imperfect",
              "future": "tense=future", "conditional": "tense=conditional"},
}
_POS_TAGS = {Pos.VERB: "v", Pos.NOUN: "n", Pos.ADJECTIVE: "a", Pos.PRONOUN: "p"}
_FUNCTION_WORDS = (("el", "d", "gen=m|num=s"), ("la", "d", "gen=f|num=s"),
                   ("los", "d", "gen=m|num=p"), ("las", "d", "gen=f|num=p"),
                   ("de", "s", "_"), ("en", "s", "_"), ("con", "s", "_"), ("y", "c", "_"))
_OOV_FEATS = {"n": "gen=m|num=s", "a": "gen=f|num=p", "v": "num=s|person=3|mood=indicative"}
_ACCENT = str.maketrans("aeiou", "áéíóú")


def feat_string(features: FeatureSet) -> str:
    pairs = []
    for name, codes in _FEAT_CODES.items():
        value = getattr(features, name)
        if value is not None:
            pairs.append(codes[value.value])
    return "|".join(pairs) or "_"


@dataclass
class CorpusToken:
    form: str
    lemma: str
    tag: str
    feats: str
    predicate: bool = False

    def conll_row(self, index: int) -> str:
        cols = ["_"] * 14
        cols[0] = str(index)
        cols[1] = self.form
        cols[2] = cols[3] = self.lemma
        cols[4] = cols[5] = self.tag
        cols[6] = cols[7] = self.feats
        cols[8] = cols[9] = "0"
        if self.predicate:
            cols[12] = "Y"
            cols[13] = f"{self.lemma}.01"
        return "\t".join(cols)


@dataclass
class Corpus:
    sentences: List[List[CorpusToken]] = field(default_factory=list)

    @property
    def tokens(self) -> List[CorpusToken]:
        return [t for s in self.sentences for t in s]

    def conll_text(self) -> str:
        blocks = []
        for sentence in self.sentences:
            rows = [t.conll_row(i) for i, t in enumerate(sentence, start=1)]
            blocks.append("\n".join(rows) + "\n")
        return "\n".join(blocks)


def _clitic_host(form: str, mood: Mood) -> str:
    """Write the stress accent a gerund host takes before enclitics (comiéndolo)."""
    if mood is Mood.GERUND and form.endswith("ndo") and len(form) > 4:
        i = len(form) - 4
        return form[:i] + form[i].translate(_ACCENT) + form[i + 1:]
    return form


def corpus(entries: Sequence[LexEntry], rules: RuleTable, pronouns: Sequence[str],
           token_count: int, rng: random.Random) -> Corpus:
    """A CoNLL-2009 corpus whose gold features come from the generating rule.

    Token mix: 20% function words, 70% inflected forms of random roots
    (verbs marked as predicates), 10% random strings, which are nearly always
    out-of-vocabulary, and a full stop per sentence. One inflected-form draw
    in seven that lands on a verb becomes an infinitive, gerund or imperative
    of that verb with one or two enclitic pronouns attached.
    """
    out = Corpus()
    made = 0
    while made < token_count:
        sentence: List[CorpusToken] = []
        for _ in range(rng.randint(5, 14)):
            roll = rng.random()
            if roll < 0.2:
                form, tag, feats = rng.choice(_FUNCTION_WORDS)
                sentence.append(CorpusToken(form, form, tag, feats))
            elif roll < 0.9:
                entry = rng.choice(entries)
                forms = expand_entry(entry, rules)
                if not forms:
                    continue
                form, rule_id, features = rng.choice(forms)
                tag = _POS_TAGS.get(features.pos, "x")
                verb = features.pos is Pos.VERB
                hosts = [f for f in forms if f.features.mood in HOST_MOODS]
                if roll >= 0.8 and verb and hosts:
                    host = rng.choice(hosts)
                    clitics = rng.sample(list(pronouns), rng.randint(1, 2))
                    form = _clitic_host(host.form, host.features.mood) + "".join(clitics)
                    sentence.append(CorpusToken(form, entry.root, tag, feat_string(host.features),
                                                predicate=True))
                else:
                    sentence.append(CorpusToken(form, entry.root, tag, feat_string(features),
                                                predicate=verb))
            else:
                word = random_word(rng)
                tag = rng.choice(sorted(_OOV_FEATS))
                sentence.append(CorpusToken(word, word, tag, _OOV_FEATS[tag], predicate=tag == "v"))
        sentence.append(CorpusToken(".", ".", "f", "_"))
        out.sentences.append(sentence)
        made += len(sentence)
    return out


def corpus_form_lines(corpus_: Corpus) -> List[TokenLine]:
    """The FORM column as CLI input, tagged with the mapped POS where there is one."""
    tag_pos = {tag: pos.value for pos, tag in _POS_TAGS.items()}
    return [TokenLine(t.form, tag_pos.get(t.tag)) for t in corpus_.tokens]


def stats(tokens: Sequence[str], oracle) -> Tuple[float, float]:
    """(OOV share, repeated-token share) of a token list."""
    oov = sum(1 for t in tokens if not oracle.readings(t))
    return (oov / len(tokens) if tokens else 0.0), repeated_share(tokens)
