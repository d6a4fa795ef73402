"""Command line front end.

Each command checks the kind of a loaded document by name, in ``_expect``;
``check`` picks its report by kind, from ``_CHECKS``.

Exit codes: 0 success, 1 domain failure (axiom violations, incompatible
inputs, invalid numeric data), 2 usage or parse problems (bad flags, missing
files, malformed documents, a document of the wrong kind).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .ambiguity import ambiguity_from_interval, check_ambiguity_axioms
from .documents import _parse_subset_key, _reject_duplicates, document_for, dumps, loads
from .errors import AmbicalcError, ParseError, SchemaError, UnknownElement, UsageError
from .frames import Frame
from .harness import GenConfig, fuzz, gen_assignment, gen_pointmap, gen_probability, universes_for
from .incidence import (
    Selector,
    check_incidence_axioms,
    compose_interval,
    decompose_interval,
    incidence_from_pointmap,
    select_incidence,
)
from .interval import (
    IntervalStructure,
    axiom_report,
    check_assignment,
    check_structure,
    extract_assignment,
    make_interval_structure,
    structure_from_assignment,
)
from .numeric import (
    belief_from_structure,
    check_belief_identity,
    fishburn_report,
    mass_from_structure,
    render_rational,
    structure_from_mass,
)
from .oracle import oracle_verify
from .reports import AxiomReport


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load(path: str):
    """The (kind, object) pair of the document at ``path``."""
    return loads(_read(path))


def _expect(loaded, kind: str):
    """The object of a ``_load`` pair, which must be of ``kind``."""
    got, obj = loaded
    if got != kind:
        raise SchemaError(f"expected {'an' if kind[0] in 'aeiou' else 'a'} {kind} document")
    return obj


def _structure(path: str) -> IntervalStructure:
    """The interval document at ``path``, validated."""
    s = _expect(_load(path), "interval")
    return make_interval_structure(s.lower, s.upper)


# the report of ``check`` by kind; the loader rejects numeric documents that break their rows
_CHECKS = {
    "assignment": lambda j: check_assignment(j.map),
    "interval": lambda s: check_structure(s.lower, s.upper),
    "ambiguity": lambda a: check_ambiguity_axioms(a.map),
    "incidence": lambda i: check_incidence_axioms(i.map),
    "probability": lambda p: axiom_report(("nonnegative", None), ("normalized", None)),
    "mass": lambda m: axiom_report(
        ("no-mass-on-empty", None), ("positive", None), ("normalized", None)
    ),
}


def _report_text(report: AxiomReport, as_json: bool) -> str:
    if as_json:
        return json.dumps(report.to_json_obj(), ensure_ascii=False, indent=2)
    return "\n".join(report.to_lines())


def _parse_selector(arg: str | None, frame: Frame) -> Selector:
    if arg is None or arg == "min":
        return Selector.min_index()
    if arg.startswith("seed:"):
        try:
            return Selector.seeded(int(arg[5:]))
        except ValueError:
            raise SchemaError(f"bad selector seed in {arg!r}") from None
    if arg.startswith("@"):
        try:
            raw = json.loads(_read(arg[1:]), object_pairs_hook=_reject_duplicates)
        except json.JSONDecodeError as exc:
            raise ParseError(f"selector table: {exc.msg}", line=exc.lineno, column=exc.colno) from None
        except RecursionError:
            raise ParseError("selector table: nests too deeply") from None
        except ValueError as exc:  # an integer literal too long to convert
            raise ParseError(f"selector table: {exc}") from None
        if not isinstance(raw, dict):
            raise SchemaError("a selector table must be a JSON object")
        mapping = {}
        for key, atom in raw.items():
            if not isinstance(atom, str):
                raise SchemaError(f"selector value for {key!r} must be an atom name")
            try:
                index = frame.index_of(atom)
            except UnknownElement as exc:
                raise SchemaError(str(exc)) from exc
            mapping[_parse_subset_key(frame, key)] = index
        return Selector.explicit(mapping)
    raise SchemaError(f"bad selector {arg!r}; use min, seed:N, or @table.json")


def _cmd_check(args):
    kind, obj = _load(args.file)
    report = _CHECKS[kind](obj)
    return (0 if report.ok else 1), _report_text(report, args.format == "json")


def _cmd_oracle(args):
    kind, obj = _load(args.file)
    if kind in ("probability", "mass"):
        raise SchemaError("the oracle checks set-valued documents only")
    report = oracle_verify(obj)
    return (0 if report.ok else 1), _report_text(report, args.format == "json")


def _cmd_extract(args):
    return 0, dumps(extract_assignment(_structure(args.file)))


def _cmd_build(args):
    j = _expect(_load(args.file), "assignment")
    return 0, dumps(structure_from_assignment(j))


def _cmd_ambiguity(args):
    return 0, dumps(ambiguity_from_interval(_structure(args.file)))


def _cmd_incidence(args):
    j = _expect(_load(args.file), "assignment")
    sel = _parse_selector(args.selector, j.map.frame)
    return 0, dumps(select_incidence(j, sel))


def _cmd_decompose(args):
    s = _structure(args.file)
    sel = _parse_selector(args.selector, s.lower.frame)
    inc, amb = decompose_interval(s, sel)
    if not (args.out_incidence or args.out_ambiguity):
        combined = {"incidence": document_for(inc), "ambiguity": document_for(amb)}
        return 0, json.dumps(combined, ensure_ascii=False, indent=2)
    if args.out_incidence:
        Path(args.out_incidence).write_text(dumps(inc), encoding="utf-8")
    if args.out_ambiguity:
        Path(args.out_ambiguity).write_text(dumps(amb), encoding="utf-8")
    return 0, ""


def _cmd_compose(args):
    # both files are parsed before either kind is checked
    inc, amb = _load(args.incidence_file), _load(args.ambiguity_file)
    return 0, dumps(compose_interval(_expect(inc, "incidence"), _expect(amb, "ambiguity")))


def _load_pair(args):
    s = _structure(args.interval_file)
    return s, _expect(_load(args.probability_file), "probability")


def _cmd_belief(args):
    s, prob = _load_pair(args)
    beliefs = belief_from_structure(s, prob)
    mass = mass_from_structure(s, prob)
    identity = check_belief_identity(beliefs, mass)
    code = 0 if identity.ok else 1
    if args.format == "json":
        payload = {
            "belief": {
                s.lower.frame.subset_key(a): {
                    "bel": render_rational(beliefs.bel[a]),
                    "pl": render_rational(beliefs.pl[a]),
                    "alpha": render_rational(beliefs.alpha[a]),
                }
                for a in range(len(beliefs.bel))
            },
            "mass": document_for(mass),
            "identity": identity.to_json_obj(),
        }
        return code, json.dumps(payload, ensure_ascii=False, indent=2)
    frame = s.lower.frame
    lines = []
    for a in range(len(beliefs.bel)):
        lines.append(
            f"{frame.format_subset(a)} Bel={render_rational(beliefs.bel[a])}"
            f" Pl={render_rational(beliefs.pl[a])}"
            f" alpha={render_rational(beliefs.alpha[a])}"
        )
    lines.append("mass:")
    for mask, value in mass.masses:
        lines.append(f"  {frame.format_subset(mask)} {render_rational(value)}")
    lines.extend(identity.to_lines())
    return code, "\n".join(lines)


def _cmd_from_mass(args):
    mass = _expect(_load(args.file), "mass")
    _, prob, j, s = structure_from_mass(mass)
    combined = {
        "probability": document_for(prob),
        "assignment": document_for(j),
        "interval": document_for(s),
    }
    return 0, json.dumps(combined, ensure_ascii=False, indent=2)


def _cmd_fishburn(args):
    s, prob = _load_pair(args)
    beliefs = belief_from_structure(s, prob)
    report = fishburn_report(beliefs)
    return (0 if report.ok else 1), _report_text(report, args.format == "json")


def _gen_config(**fields) -> GenConfig:
    try:
        return GenConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_gen(args):
    cfg = _gen_config(m=args.atoms, n=args.situations, seed=args.seed)
    if args.kind == "assignment":
        text = dumps(gen_assignment(cfg))
    elif args.kind == "probability":
        text = dumps(gen_probability(cfg))
    else:
        frame, space = universes_for(cfg)
        text = dumps(incidence_from_pointmap(gen_pointmap(cfg), frame, space))
    return 0, text


def _cmd_fuzz(args):
    cfg = _gen_config(
        m=args.atoms,
        n=args.situations,
        seed=args.seed,
        trials=args.trials,
        fault_injection=args.fault_injection,
    )
    report = fuzz(cfg)
    if args.format == "json":
        text = json.dumps(report.to_json_obj(), ensure_ascii=False, indent=2)
    else:
        text = report.render()
    return (0 if report.ok else 1), text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that.

    No action has a mutable default, so parsing leaves the parser unchanged
    and one instance serves every ``run_command`` call.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write the result to FILE")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, metavar="N", help="master seed")
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="ambicalc",
        description="Interval structures, ambiguity and incidence maps, and the exact belief bridge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text, *files, flags=()):
        p = sub.add_parser(name, parents=[common, *flags], help=help_text)
        p.set_defaults(func=func, parser=p)
        for file in files:
            p.add_argument(file)
        return p

    cmd("check", _cmd_check, "run the axiom suite for a document", "file", flags=[formatted])
    cmd("oracle", _cmd_oracle, "run the naive reference checker for a document", "file",
        flags=[formatted])
    cmd("extract", _cmd_extract, "interval structure -> basic assignment", "file")
    cmd("build", _cmd_build, "basic assignment -> interval structure", "file")
    cmd("ambiguity", _cmd_ambiguity, "interval structure -> ambiguity map (the gap)", "file")
    p = cmd("incidence", _cmd_incidence, "basic assignment + selector -> incidence map", "file")
    p.add_argument("--selector", default="min", metavar="SEL",
                   help="min (default), seed:N, or @table.json")
    p = cmd("decompose", _cmd_decompose, "interval structure -> incidence + ambiguity", "file")
    p.add_argument("--selector", default="min", metavar="SEL")
    p.add_argument("--out-incidence", metavar="FILE")
    p.add_argument("--out-ambiguity", metavar="FILE")
    cmd("compose", _cmd_compose, "incidence + ambiguity -> interval structure",
        "incidence_file", "ambiguity_file")
    cmd("belief", _cmd_belief, "exact Bel/Pl/alpha tables for a structure and probability",
        "interval_file", "probability_file", flags=[formatted])
    cmd("from-mass", _cmd_from_mass, "mass function -> canonical model documents", "file")
    cmd("fishburn", _cmd_fishburn, "check the ambiguity-measure laws of alpha = Pl - Bel",
        "interval_file", "probability_file", flags=[formatted])
    p = cmd("gen", _cmd_gen, "generate a seeded random document", flags=[seeded])
    p.add_argument("--kind", choices=("assignment", "probability", "incidence"), required=True)
    p.add_argument("--atoms", type=int, default=3, metavar="M")
    p.add_argument("--situations", type=int, default=4, metavar="N")
    p = cmd("fuzz", _cmd_fuzz, "run the seeded end-to-end fuzz driver", flags=[seeded, formatted])
    p.add_argument("--trials", type=int, default=100, metavar="T")
    p.add_argument("--atoms", type=int, default=5, metavar="M")
    p.add_argument("--situations", type=int, default=10, metavar="N")
    p.add_argument("--fault-injection", action="store_true")
    return parser


def run_command(argv) -> tuple[int, str]:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # name the command's own flags, not the top-level usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        code, text = args.func(args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            text = ""
        return code, text
    except (ParseError, SchemaError, UsageError, OSError) as exc:
        return 2, f"error: {exc}"
    except AmbicalcError as exc:
        return 1, f"error: {exc}"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout; keep the flush at exit from raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return code
