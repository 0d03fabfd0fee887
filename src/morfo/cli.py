"""Command-line frontend: batch analysis, lemmatization, nominalization,
clitic splitting, rule-file import, and CoNLL evaluation over stdin/stdout.

Exit codes: 0 success, 1 usage error, 2 data-file load error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from morfo import resources
from morfo.analyzer import Analyzer, load_default_table
from morfo.clitics import CliticSplitter, load_pronoun_table
from morfo.derivers import Lemmatizer, Nominalizer, load_nominal_flags
from morfo.errors import LoadError
from morfo.features import Pos
from morfo.lexicon import load_dictionary
from morfo.rules import load_rules

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class DataFileError(Exception):
    def __init__(self, path, cause):
        super().__init__(f"failed to load {path}: {cause}")
        self.path = path


def _read(path, loader):
    """``loader`` applied to the UTF-8 file at ``path``; every failure names the file."""
    try:
        with open(path, encoding="utf-8") as stream:
            return loader(stream)
    except (OSError, UnicodeDecodeError, LoadError) as exc:
        raise DataFileError(path, exc) from exc


def _load(name: str, override: Optional[str], loader):
    return _read(resources.data_path(name, override), loader)


def build_analyzer(args) -> Analyzer:
    lexicon = _load(resources.DICTIONARY, args.dict, load_dictionary)
    rules = _load(resources.RULES, args.rules, load_rules)
    defaults = _load(resources.DEFAULTS, args.defaults, load_default_table)
    return Analyzer(lexicon, rules, defaults)


def _input_tokens(stream: TextIO):
    """Yield (token, pos_hint) pairs from ``token`` or ``token<TAB>pos`` lines."""
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if line_no == 1:
            line = line.removeprefix(resources.BOM)
        if not line.strip():
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # undecodable bytes arrive as lone surrogates
            raise LoadError("invalid UTF-8", line_no) from None
        token, _, pos_text = line.partition("\t")
        if not token.strip():
            raise LoadError(f"empty token before pos tag {pos_text.strip()!r}", line_no)
        pos_hint = None
        if pos_text.strip():
            try:
                pos_hint = Pos(pos_text.strip().lower())
            except ValueError:
                raise LoadError(f"unknown pos tag {pos_text.strip()!r}", line_no)
        yield token.strip(), pos_hint


def _cell(value) -> str:
    return value.value if value is not None else "-"


def cmd_analyze(args, stdin: TextIO, stdout: TextIO) -> int:
    analyzer = build_analyzer(args)
    for token, pos_hint in _input_tokens(stdin):
        a = analyzer.preferred_analysis(token, pos_hint)
        f = a.features
        if args.format == "jsonl":
            record = {"surface": a.surface, "lemma": a.lemma, **f.as_dict(),
                      "provenance": a.provenance.value}
            record.pop("animate", None)
            stdout.write(json.dumps(record, ensure_ascii=False) + "\n")
        else:
            stdout.write("\t".join([
                a.surface, a.lemma, _cell(f.pos), _cell(f.gender), _cell(f.number),
                _cell(f.person), _cell(f.mood), _cell(f.tense), a.provenance.value,
            ]) + "\n")
    return EXIT_OK


def cmd_lemmatize(args, stdin: TextIO, stdout: TextIO) -> int:
    lemmatizer = Lemmatizer(build_analyzer(args))
    for token, pos_hint in _input_tokens(stdin):
        lemma = lemmatizer.lemmatize(token, pos_hint)
        if args.format == "jsonl":
            stdout.write(json.dumps({"surface": token, "lemma": lemma}, ensure_ascii=False) + "\n")
        else:
            stdout.write(lemma + "\n")
    return EXIT_OK


def cmd_nominalize(args, stdin: TextIO, stdout: TextIO) -> int:
    analyzer = build_analyzer(args)
    nominal_flags = _load(resources.NOMINAL_FLAGS, args.nominal_flags, load_nominal_flags)
    nominalizer = Nominalizer(Lemmatizer(analyzer), nominal_flags)
    for token, _pos in _input_tokens(stdin):
        nominal = nominalizer.nominalize(token)
        if args.format == "jsonl":
            stdout.write(json.dumps({"surface": token, "nominal": nominal}, ensure_ascii=False) + "\n")
        else:
            stdout.write((nominal or "-") + "\n")
    return EXIT_OK


def cmd_split_clitics(args, stdin: TextIO, stdout: TextIO) -> int:
    analyzer = build_analyzer(args)
    pronouns = _load(resources.PRONOUNS, args.pronouns, load_pronoun_table)
    splitter = CliticSplitter(analyzer, pronouns)
    for token, pos_hint in _input_tokens(stdin):
        if args.verbs_only and pos_hint is not None and pos_hint is not Pos.VERB:
            split = None
        else:
            split = splitter.split_clitics(token)
        if args.format == "jsonl":
            if split is None:
                record = {"verb_part": token, "clitics": []}
            else:
                record = {"verb_part": split.verb_part, "clitics": list(split.clitics)}
            stdout.write(json.dumps(record, ensure_ascii=False) + "\n")
        else:
            if split is None:
                stdout.write(token + "\n")
            else:
                stdout.write("\t".join([split.verb_part, *split.clitics]) + "\n")
    return EXIT_OK


def cmd_import_coes(args, stdin: TextIO, stdout: TextIO) -> int:
    from morfo.coes_import import import_rules, rows_to_tsv

    def parse(stream):
        return import_rules(stream, skip_flags=args.skip_flags or "",
                            infer_person=args.infer_person)

    rows = _read(args.aff, parse) if args.aff else parse(stdin)
    text = rows_to_tsv(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args, stdin: TextIO, stdout: TextIO) -> int:
    from morfo.conll_eval import (
        MetricsReport,
        evaluate_features,
        evaluate_lemmas,
        load_mapping,
        parse_conll,
    )

    analyzer = build_analyzer(args)
    lemmatizer = Lemmatizer(analyzer)
    mapping = _load(resources.CONLL_MAPPING, args.mapping, load_mapping)
    records = []
    for path in args.conll:
        records.extend(_read(path, lambda stream: parse_conll(stream, mapping)))
    report = MetricsReport(features=evaluate_features(records, analyzer))
    report.lemmas_all, report.lemmas_filtered = evaluate_lemmas(
        records, lemmatizer, filter_on_lemma=args.filter_on_lemma)
    if args.format == "jsonl":
        stdout.write(report.render_kv() + "\n")
    else:
        stdout.write(report.render_text() + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="morfo", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dict", help="dictionary file (word/FLAGS lines)")
    common.add_argument("--rules", help="morphological rule table (TSV)")
    common.add_argument("--defaults", help="ending-default feature table (TSV)")
    common.add_argument("--pronouns", help="clitic pronoun table (TSV)")
    common.add_argument("--format", choices=("tsv", "jsonl"), default="tsv")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("analyze", parents=[common],
                   help="label words read from stdin, one token (or token<TAB>pos) per line")
    sub.add_parser("lemmatize", parents=[common], help="reduce words to dictionary roots")
    p = sub.add_parser("nominalize", parents=[common], help="convert verbs to nominal form")
    p.add_argument("--nominal-flags", help="nominal-derivation flag manifest")
    p = sub.add_parser("split-clitics", parents=[common], help="detach enclitic pronouns")
    p.add_argument("--verbs-only", action="store_true",
                   help="only split tokens whose input pos tag is verb (or untagged)")
    p = sub.add_parser("import-coes", parents=[common],
                       help="convert a COES/Ispell affix file to the rule-table TSV")
    p.add_argument("--aff", help="affix file to import (default: stdin)")
    p.add_argument("--out", help="output TSV path (default: stdout)")
    p.add_argument("--skip-flags", help="flag characters whose sections are skipped")
    p.add_argument("--infer-person", action="store_true",
                   help="assign person/number cyclically within six-rule blocks")
    p = sub.add_parser("evaluate", parents=[common],
                       help="score the analyzer and lemmatizer on CoNLL-2009 data")
    p.add_argument("--conll", action="append", required=True, help="CoNLL-2009 file (repeatable)")
    p.add_argument("--mapping", help="gold-to-enum mapping config (TSV)")
    p.add_argument("--filter-on-lemma", action="store_true",
                   help="apply the participle filter to the gold lemma instead of the form")
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "lemmatize": cmd_lemmatize,
    "nominalize": cmd_nominalize,
    "split-clitics": cmd_split_clitics,
    "import-coes": cmd_import_coes,
    "evaluate": cmd_evaluate,
}


def run(argv: Sequence[str], stdin: TextIO = None, stdout: TextIO = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, stdin, stdout)
    except DataFileError as exc:
        print(f"morfo: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LoadError as exc:
        print(f"morfo: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
