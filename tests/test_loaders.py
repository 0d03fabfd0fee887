import io

from hypothesis import example, given, settings, strategies as st

from morfo.analyzer import load_default_table
from morfo.clitics import load_pronoun_table
from morfo.conll_eval import load_mapping, parse_conll
from morfo.derivers import load_nominal_flags
from morfo.errors import LoadError
from morfo.lexicon import load_dictionary
from morfo.resources import data_path
from morfo.rules import load_rules

PACKAGED_MAPPING = load_mapping(
    data_path("conll_mapping.tsv").read_text(encoding="utf-8").splitlines())

# Cells that the loaders give meaning to, so that generated tables get past
# their headers and into the row parsers.
_CELL = st.sampled_from([
    "", "#", "-", "*", "_", "Y", "1", "V", "S", "\ufeff", "amar/V", "/V", "me",
    "flag", "stem ending", "morph_ending", "ending", "pronoun", "pos", "gender", "number",
    "person", "mood", "tense", "animate", "verb", "noun", "male", "singular",
    "first", "indicative", "participle", "present", "inanimate", "bogus",
    "ar", "o", "(?<=[a])", "[^cg]er", "(?<=", "[ar",
    "feat", "v", "gen=m", "pos=noun", "mood=indicative", "postype=x", "gen=m|mood=indicative",
]) | st.text(max_size=3)
_TEXT = st.lists(st.lists(_CELL, max_size=15).map("\t".join), max_size=6).map("\n".join)


def _load(loader, text):
    """The loaded value, or None when the loader rejects ``text`` with a LoadError."""
    try:
        return loader(io.StringIO(text))
    except LoadError:
        return None


@settings(max_examples=400, deadline=None)
@given(text=_TEXT, conll=_TEXT)
# feat rows that combine into a noun with a mood, which FeatureSet rejects
@example(text="feat\tpostype=x\tpos=noun\nfeat\tmood=indicative\tmood=indicative\n",
         conll="1\tamo\tamar\t_\tv\t_\tpostype=x|mood=indicative" + "\t_" * 7)
def test_every_loader_loads_or_raises_load_error(text, conll):
    for loader in (load_dictionary, load_rules, load_default_table, load_pronoun_table,
                   load_nominal_flags):
        _load(loader, text)
    for m in filter(None, (PACKAGED_MAPPING, _load(load_mapping, text))):
        _load(lambda stream: parse_conll(stream, m), conll)


def test_byte_order_mark_is_dropped_from_data_files():
    lexicon = load_dictionary(["\ufeffamar/V\n"])
    assert lexicon.lookup_exact("amar") is not None
    header = "flag\tstem ending\tmorph ending\tpos\tgender\tnumber\tperson\tmood\ttense\tanimate"
    table = load_rules(["\ufeff" + header + "\n", "V\tar\to\tverb\n"])
    assert table.rules[0].morph_ending == "o"
    assert load_nominal_flags(["\ufeff# a comment\n", "N\n"]) == {"N"}
