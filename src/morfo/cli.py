"""Command-line frontend: batch analysis, lemmatization, nominalization,
clitic splitting, rule-file import, and CoNLL evaluation over stdin/stdout.

The stream commands read stdin in blocks of whole lines (``resources.blocks``,
the reader the data-file loaders use too), split them as bytes, and write
each block's output at once. Each command picks its output format once and
hands ``_stream`` one function that gives a token's finished line. That
function reads plain tuples: ``analyze``, ``lemmatize`` and ``nominalize``
that of ``Analyzer._preferred`` and ``split-clitics`` the readings of
``Analyzer._walk``, so no ``Analysis`` is built for a line. For one run
the commands keep the output of recently seen input lines, up to 8,192
(twice ``CACHE_SIZE``), and write it again when a line repeats; this changes
speed only. The analyzer keeps no results.

Warnings print to stderr as ``morfo: [<file>: ]<message>`` (``errors.warn``).
Start-up is kept short: importing this module loads none of ``dataclasses``,
``logging``, ``argparse``, ``enum``, ``typing`` and ``re``. A well-formed
command line is parsed from the option table (``_parse_plain``), so its run
loads no ``argparse``, nor the ``gettext`` and ``locale`` that argparse loads.
Any other goes to the one argparse parser (``build_parser``), which prints
help, usage and errors and parses the rarer forms, such as abbreviations and
``--name=value``. A run loads the derivers, clitic splitter, COES importer and
CoNLL evaluator only for the commands that use them, so ``analyze`` loads none
of the four. ``_DESCRIPTION`` gives the exit codes.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence
from io import BufferedIOBase, TextIOBase
from types import SimpleNamespace

from morfo import errors, resources
from morfo.analyzer import Analyzer, load_default_table
from morfo.errors import LoadError
from morfo.features import Pos
from morfo.lexicon import load_cached_dictionary, normalize
from morfo.rules import dump_rules, load_cached_rules

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

#: Raw input lines in the young generation of a stream run's output cache;
#: with the old generation, a run keeps up to twice as many. On the bench's
#: seed-stream input (seed 1: 200,000 lines, 19,548 distinct), 4,096 misses
#: 41,250 lines, where a 2,048-entry LRU cache missed 66,423. Peak RSS
#: (VmHWM) of `analyze` on it through a pipe, via bench/launch.py (max of 6
#: runs, Python 3.11): 15.15 MB at 2,048, 15.84 MB at 4,096, 16.05 MB (+1.3%)
#: at 5,120 and 17.39 MB (+9.8%) at 8,192. On seed 7, a
#: ``functools.lru_cache(8192)`` in place of the two generations missed
#: 30,936 lines instead of 41,388, but peaked 2.7 MB higher (max of 8 runs)
#: and was no faster (median wall 0.512 s against 0.458 s). On seed 3, an
#: ``OrderedDict`` LRU of 8,192 lines missed 31,040 lines instead of 41,653
#: (seed 1: 30,705 instead of 41,250), but peaked 2.0 MB higher (17.92 MB
#: against 15.92 MB, +12.6%, max of 8 runs) and was no faster (median wall
#: 0.279 s against 0.278 s), so the two generations stay.
CACHE_SIZE = 4096

#: What ``morfo --help`` says above the commands.
_DESCRIPTION = ("Rule-based Spanish morphology from a root dictionary and a suffix rule table. "
                "The stream commands read one token (or token<TAB>pos) per line of stdin and "
                "write one line per token. Exit codes: 0 success, 1 usage, input or output "
                "error, 2 data-file load error.")

#: Input pos tag -> its ``Pos``.
_POS_TAGS = {pos.value: pos for pos in Pos}


class DataFileError(Exception):
    def __init__(self, path, cause):
        super().__init__(f"failed to load {path}: {cause}")


def _read(path, loader):
    """``loader`` applied to the file at ``path``, read as bytes; failures and warnings name it."""
    errors.loading = path
    try:
        with open(path, "rb") as stream:
            return loader(stream)
    except (OSError, LoadError) as exc:
        raise DataFileError(path, exc) from exc
    finally:
        errors.loading = None


def _load(name: str, override: str | None, loader):
    return _read(resources.data_file(name, override), loader)


def build_analyzer(args) -> Analyzer:
    lexicon = _load(resources.DICTIONARY, args.dict, load_cached_dictionary)
    rules = _load(resources.RULES, args.rules, load_cached_rules)
    defaults = _load(resources.DEFAULTS, args.defaults, load_default_table)
    return Analyzer(lexicon, rules, defaults)


class _BadLine(Exception):
    """A stdin line that is not ``token[<TAB>pos]`` text; ``_stream`` adds its number."""


#: What a JSON string escapes, non-ASCII kept: ", \ and U+0000-U+001F (RFC 8259, section 7).
_ESCAPES = {**{code: f"\\u{code:04x}" for code in range(32)},
            **{ord(char): "\\" + short for char, short in zip('"\\\b\f\n\r\t', '"\\bfnrt')}}


def _json(value) -> str:
    """What ``json.dumps(value, ensure_ascii=False)`` writes for None, a str, a list or a dict."""
    if isinstance(value, str):
        # An identifier, as most words and keys are, holds nothing to escape. Not translating it
        # took a computed lemmatize --format jsonl line from 7.2 to 5.5 us (Python 3.11.7).
        return f'"{value}"' if value.isidentifier() else f'"{value.translate(_ESCAPES)}"'
    if value is None:
        return "null"
    if isinstance(value, list):
        return f"[{', '.join(map(_json, value))}]"
    return "{" + ", ".join([f"{_json(key)}: {_json(item)}" for key, item in value.items()]) + "}"


def _stream(stdin: BufferedIOBase, stdout: TextIOBase, render) -> int:
    """Write one line per ``token`` or ``token<TAB>pos`` line of ``stdin``.

    ``render(token, pos_hint)`` is a command's finished output line for a
    token, its newline included: the command picks its format once, so a
    computed line costs one call here. Lines are read in ``resources.blocks``,
    and each block's output is written at once. The text written for a raw
    line is kept in a young dict of up to ``CACHE_SIZE`` lines; a full young
    dict becomes the old one, and a line found only there moves back to the
    young one. On a bad line, the output of every line before it is written,
    and the error names it.
    """

    def output(raw: bytes) -> str:
        try:
            line = raw.decode("utf-8")  # a CR before the LF goes with the strips below
        except UnicodeDecodeError:
            raise _BadLine("invalid UTF-8") from None
        token, _, pos_text = line.partition("\t")
        token, pos_text = token.strip(), pos_text.strip()
        pos_hint = None
        if pos_text:
            if not token:
                raise _BadLine(f"empty token before pos tag {pos_text!r}")
            pos_hint = _POS_TAGS.get(pos_text.lower())
            if pos_hint is None:
                raise _BadLine(f"unknown pos tag {pos_text!r}")
        elif not token:
            return ""
        return render(token, pos_hint)

    cache_size = CACHE_SIZE
    young, old = {}, {}
    write = stdout.write
    lines_done = 0
    for data in resources.blocks(stdin):
        # Split as bytes, not through line_blocks, which cost about 2% of seed-stream tok_per_s.
        block = data.split(b"\n")
        if not block[-1]:
            block.pop()
        texts = []
        for raw in block:
            text = young.get(raw)
            if text is None:
                text = old.get(raw)
                if text is None:
                    try:
                        text = output(raw)
                    except _BadLine as exc:
                        write("".join(texts))
                        raise LoadError(str(exc), lines_done + len(texts) + 1) from None
                if len(young) >= cache_size:
                    old, young = young, {}
                young[raw] = text
            texts.append(text)
        write("".join(texts))
        lines_done += len(block)
    return EXIT_OK


def cmd_analyze(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    # The preferred reading as a plain tuple: no Analysis is built for a line.
    preferred = build_analyzer(args)._preferred
    feature_cells = {}  # FeatureSet -> its six fields (every one but animate), rendered
    if args.format == "jsonl":
        def render(token, pos_hint):
            surface = normalize(token)
            lemma, _rule_id, features, provenance = preferred(surface, pos_hint)
            cells = feature_cells.get(features)
            if cells is None:  # '"pos": ..., "tense": ...', as they are written in a record
                cells = feature_cells[features] = _json(dict(zip(features._fields[:6],
                                                                 features)))[1:-1]
            # _json's test and table, used here: two _json calls would add 0.13 us to a line.
            if not (surface.isidentifier() and lemma.isidentifier()):
                surface, lemma = surface.translate(_ESCAPES), lemma.translate(_ESCAPES)
            return "".join(['{"surface": "', surface, '", "lemma": "', lemma, '", ', cells,
                            ', "provenance": "', provenance, '"}\n'])
    else:
        def render(token, pos_hint):
            surface = normalize(token)
            lemma, _rule_id, features, provenance = preferred(surface, pos_hint)
            cells = feature_cells.get(features)
            if cells is None:  # a value is its own text
                cells = feature_cells[features] = "\t".join([v or "-" for v in features[:6]])
            return "\t".join([surface, lemma, cells, provenance]) + "\n"

    return _stream(stdin, stdout, render)


def cmd_lemmatize(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    from morfo.derivers import Lemmatizer

    lemmatize = Lemmatizer(build_analyzer(args)).lemmatize
    if args.format == "jsonl":
        return _stream(stdin, stdout, lambda token, pos_hint: _json(
            {"surface": token, "lemma": lemmatize(token, pos_hint)}) + "\n")
    return _stream(stdin, stdout, lambda token, pos_hint: lemmatize(token, pos_hint) + "\n")


def cmd_nominalize(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags

    analyzer = build_analyzer(args)
    nominal_flags = _load(resources.NOMINAL_FLAGS, args.nominal_flags, load_nominal_flags)
    try:
        nominalize = Nominalizer(Lemmatizer(analyzer), nominal_flags).nominalize
    except LoadError as exc:  # a dictionary entry with two nominal flags
        raise DataFileError(resources.data_file(resources.DICTIONARY, args.dict), exc) from exc
    if args.format == "jsonl":
        return _stream(stdin, stdout, lambda token, _pos: _json(
            {"surface": token, "nominal": nominalize(token)}) + "\n")
    return _stream(stdin, stdout, lambda token, _pos: (nominalize(token) or "-") + "\n")


def cmd_split_clitics(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    from morfo.clitics import CliticSplitter, load_pronoun_table

    analyzer = build_analyzer(args)
    pronouns = _load(resources.PRONOUNS, args.pronouns, load_pronoun_table)
    split_clitics = CliticSplitter(analyzer, pronouns).split_clitics
    # ``split`` is (verb_part, clitics) or a CliticSplit, which starts with them.
    if args.format == "jsonl":
        def line(split):
            return _json({"verb_part": split[0], "clitics": list(split[1])}) + "\n"
    else:
        def line(split):
            return "\t".join([split[0], *split[1]]) + "\n"

    if args.verbs_only:  # a token hinted with another pos is left whole
        return _stream(stdin, stdout, lambda token, pos_hint: line(
            split_clitics(token) if pos_hint in (None, Pos.VERB) else (normalize(token), ())))
    return _stream(stdin, stdout, lambda token, _pos: line(split_clitics(token)))


def cmd_import_coes(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    from morfo.coes_import import import_rules

    def parse(stream):
        return import_rules(stream, skip_flags=args.skip_flags or "",
                            infer_person=args.infer_person)

    rows = _read(args.aff, parse) if args.aff is not None else parse(stdin)
    text = dump_rules(rows)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args, stdin: BufferedIOBase, stdout: TextIOBase) -> int:
    from morfo.conll_eval import (
        evaluate_features,
        evaluate_lemmas,
        load_mapping,
        parse_conll,
        render_kv,
        render_text,
    )
    from morfo.derivers import Lemmatizer

    analyzer = build_analyzer(args)
    lemmatizer = Lemmatizer(analyzer)
    mapping = _load(resources.CONLL_MAPPING, args.mapping, load_mapping)
    records = []
    for path in args.conll:
        records.extend(_read(path, lambda stream: parse_conll(stream, mapping)))
    features = evaluate_features(records, analyzer)
    lemmas = evaluate_lemmas(records, lemmatizer, filter_on_lemma=args.filter_on_lemma)
    render = render_kv if args.format == "jsonl" else render_text
    stdout.write(render(features, lemmas) + "\n")
    return EXIT_OK


#: The options every command takes (name, keywords), in help order.
_OPTIONS = (
    ("--dict", {"help": "dictionary file (word/FLAGS lines)"}),
    ("--rules", {"help": "morphological rule table (TSV)"}),
    ("--defaults", {"help": "ending-default feature table (TSV)"}),
    ("--pronouns", {"help": "clitic pronoun table (TSV)"}),
    ("--format", {"choices": ("tsv", "jsonl"), "default": "tsv"}),
)

#: Each command's function, help text and own options (name, keywords), in help order; in its
#: help, a command's own options follow ``_OPTIONS``.
_COMMANDS = {
    "analyze": (cmd_analyze,
                "label words read from stdin, one token (or token<TAB>pos) per line", ()),
    "lemmatize": (cmd_lemmatize, "reduce words to dictionary roots", ()),
    "nominalize": (cmd_nominalize, "convert verbs to nominal form", (
        ("--nominal-flags", {"help": "nominal-derivation flag manifest"}),
    )),
    "split-clitics": (cmd_split_clitics, "detach enclitic pronouns", (
        ("--verbs-only", {"action": "store_true",
                          "help": "only split tokens whose input pos tag is verb (or untagged)"}),
    )),
    "import-coes": (cmd_import_coes, "convert a COES/Ispell affix file to the rule-table TSV", (
        ("--aff", {"help": "affix file to import (default: stdin)"}),
        ("--out", {"help": "output TSV path (default: stdout)"}),
        ("--skip-flags", {"help": "flag characters whose sections are skipped"}),
        ("--infer-person", {"action": "store_true",
                            "help": "assign person/number cyclically within six-rule blocks"}),
    )),
    "evaluate": (cmd_evaluate, "score the analyzer and lemmatizer on CoNLL-2009 data", (
        ("--conll", {"action": "append", "required": True,
                     "help": "CoNLL-2009 file (repeatable)"}),
        ("--mapping", {"help": "gold-to-enum mapping config (TSV)"}),
        ("--filter-on-lemma", {"action": "store_true",
                               "help": "apply the participle filter to the gold lemma instead "
                                       "of the form"}),
    )),
}


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, if ``argv`` uses only the plain forms;
    else ``None``.

    The plain forms are a command, then its options by their full names:
    ``--name value`` for a store or append option, where ``value`` does not
    start with ``-`` and is one of the option's choices if it has any, and
    ``--name`` alone for a ``store_true`` one. Every required option is
    given. Anything else, such as ``-h``, an abbreviation, ``--name=value``
    or an error, is argparse's to parse, and only argparse prints help, usage
    and errors. A plain command line thus runs without importing it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {name: (name[2:].replace("-", "_"), keywords)
               for name, keywords in (*_OPTIONS, *_COMMANDS[argv[0]][2])}
    values = {dest: keywords.get("default", False if keywords.get("action") == "store_true"
                                 else None)
              for dest, keywords in options.values()}
    words = iter(argv[1:])
    for name in words:
        if name not in options:
            return None
        dest, keywords = options[name]
        action = keywords.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-"):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    if any(keywords.get("required") and values[dest] is None
           for dest, keywords in options.values()):
        return None
    return SimpleNamespace(command=argv[0], **values)


def build_parser():
    """The CLI's ``argparse.ArgumentParser``, built from ``_OPTIONS`` and ``_COMMANDS``.

    ``run`` uses it only for a command line that ``_parse_plain`` declines.
    """
    import argparse  # only help, usage, errors and the rarer forms of an option need it

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="morfo", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, (_function, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in (*_OPTIONS, *options):
            p.add_argument(flag, **keywords)
    return parser


def run(argv: Sequence[str], stdin: BufferedIOBase = None, stdout: TextIOBase = None) -> int:
    """Run the command in ``argv`` on ``stdin`` and ``stdout``; return its exit code.

    ``stdin`` defaults to the process's stdin (as bytes) and ``stdout`` to its
    stdout. A run given neither stream owns the process's stdio, as ``main``
    does, and ends with ``gc.freeze()``: at exit the interpreter skips
    collecting every object alive then and leaves their memory to the
    operating system. A run given either stream never freezes.
    """
    owns_stdio = stdin is None and stdout is None
    stdin = stdin if stdin is not None else sys.stdin.buffer
    if stdout is None:
        stdout = sys.stdout
        if hasattr(stdout, "reconfigure"):  # not when redirected to a StringIO
            stdout.reconfigure(encoding="utf-8")
    args = _parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = _COMMANDS[args.command][0](args, stdin, stdout)
        stdout.flush()
        return code
    except DataFileError as exc:
        print(f"morfo: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LoadError as exc:
        print(f"morfo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull, so that the flush at
        # exit has somewhere to write what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # an output that cannot be written, e.g. a bad --out path
        print(f"morfo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if owns_stdio:
            gc.freeze()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
