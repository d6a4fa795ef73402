"""Command line front end.

Exit codes: 0 success, 1 domain failure (axiom violations, incompatible
inputs, invalid numeric data), 2 usage or parse problems (bad flags, missing
files, malformed documents).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .ambiguity import AmbiguityMap, ambiguity_from_interval, check_ambiguity_axioms
from .documents import _parse_subset_key, document_for, dumps, loads
from .errors import AmbicalcError, ParseError, SchemaError, UsageError, ValidationError
from .frames import Frame
from .harness import GenConfig, fuzz, gen_assignment, gen_pointmap, gen_probability, universes_for
from .incidence import (
    IncidenceMap,
    Selector,
    check_incidence_axioms,
    compose_interval,
    decompose_interval,
    incidence_from_pointmap,
    select_incidence,
)
from .interval import (
    BasicAssignment,
    IntervalStructure,
    axiom_report,
    check_assignment,
    check_structure,
    extract_assignment,
    make_interval_structure,
    structure_from_assignment,
)
from .numeric import (
    MassFunction,
    ProbabilityAssignment,
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


def _axiom_report(obj):
    if isinstance(obj, BasicAssignment):
        return check_assignment(obj.map)
    if isinstance(obj, IntervalStructure):
        return check_structure(obj.lower, obj.upper)
    if isinstance(obj, AmbiguityMap):
        return check_ambiguity_axioms(obj.map)
    if isinstance(obj, IncidenceMap):
        return check_incidence_axioms(obj.map)
    return None


def _load(path: str, args=None):
    kind, obj = loads(_read(path))
    if args is not None and args.validate:
        report = _axiom_report(obj)
        if report is not None and not report.ok:
            raise ValidationError(
                f"{path}: axioms violated: {', '.join(report.failed_axioms())}",
                report=report,
            )
    return kind, obj


def _validated_structure(obj) -> IntervalStructure:
    if not isinstance(obj, IntervalStructure):
        raise SchemaError("expected an interval document")
    return make_interval_structure(obj.lower, obj.upper)


def _expect(obj, cls, kind: str):
    if not isinstance(obj, cls):
        raise SchemaError(f"expected a {kind} document")
    return obj


def _deliver(text: str, args) -> str:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
        return ""
    return text


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
            raw = json.loads(_read(arg[1:]))
        except json.JSONDecodeError as exc:
            raise ParseError(f"selector table: {exc.msg}", line=exc.lineno, column=exc.colno) from None
        except RecursionError:
            raise ParseError("selector table: nests too deeply") from None
        if not isinstance(raw, dict):
            raise SchemaError("a selector table must be a JSON object")
        mapping = {}
        for key, atom in raw.items():
            if not isinstance(atom, str):
                raise SchemaError(f"selector value for {key!r} must be an atom name")
            mapping[_parse_subset_key(frame, key)] = frame.index_of(atom)
        return Selector.explicit(mapping)
    raise SchemaError(f"bad selector {arg!r}; use min, seed:N, or @table.json")


def _cmd_check(args):
    # reporting violations is the command's job, so skip the --validate pre-pass
    _, obj = _load(args.file)
    report = _axiom_report(obj)
    # the loader's constructors reject numeric documents that break these rows
    if report is None and isinstance(obj, ProbabilityAssignment):
        report = axiom_report(("nonnegative", None), ("normalized", None))
    elif report is None:
        report = axiom_report(("no-mass-on-empty", None), ("positive", None), ("normalized", None))
    return (0 if report.ok else 1), _report_text(report, args.format == "json")


def _cmd_oracle(args):
    _, obj = _load(args.file)
    if isinstance(obj, (ProbabilityAssignment, MassFunction)):
        raise SchemaError("the oracle checks set-valued documents only")
    report = oracle_verify(obj)
    return (0 if report.ok else 1), _report_text(report, args.format == "json")


def _cmd_extract(args):
    _, obj = _load(args.file, args)
    s = _validated_structure(obj)
    return 0, _deliver(dumps(extract_assignment(s)), args)


def _cmd_build(args):
    _, obj = _load(args.file, args)
    j = _expect(obj, BasicAssignment, "assignment")
    s = structure_from_assignment(j)
    return 0, _deliver(dumps(s), args)


def _cmd_ambiguity(args):
    _, obj = _load(args.file, args)
    s = _validated_structure(obj)
    return 0, _deliver(dumps(ambiguity_from_interval(s)), args)


def _cmd_incidence(args):
    _, obj = _load(args.file, args)
    j = _expect(obj, BasicAssignment, "assignment")
    sel = _parse_selector(args.selector, j.map.frame)
    return 0, _deliver(dumps(select_incidence(j, sel)), args)


def _cmd_decompose(args):
    _, obj = _load(args.file, args)
    s = _validated_structure(obj)
    sel = _parse_selector(args.selector, s.lower.frame)
    inc, amb = decompose_interval(s, sel)
    wrote = False
    if args.out_incidence:
        Path(args.out_incidence).write_text(dumps(inc), encoding="utf-8")
        wrote = True
    if args.out_ambiguity:
        Path(args.out_ambiguity).write_text(dumps(amb), encoding="utf-8")
        wrote = True
    if wrote:
        return 0, ""
    combined = {"incidence": document_for(inc), "ambiguity": document_for(amb)}
    return 0, json.dumps(combined, ensure_ascii=False, indent=2)


def _cmd_compose(args):
    _, inc = _load(args.incidence_file, args)
    _, amb = _load(args.ambiguity_file, args)
    inc = _expect(inc, IncidenceMap, "incidence")
    amb = _expect(amb, AmbiguityMap, "ambiguity")
    s = compose_interval(inc, amb)
    return 0, _deliver(dumps(s), args)


def _load_pair(args):
    _, obj = _load(args.interval_file, args)
    s = _validated_structure(obj)
    _, prob = _load(args.probability_file, args)
    prob = _expect(prob, ProbabilityAssignment, "probability")
    return s, prob


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
    _, mass = _load(args.file, args)
    mass = _expect(mass, MassFunction, "mass")
    _, prob, j, s = structure_from_mass(mass)
    combined = {
        "probability": document_for(prob),
        "assignment": document_for(j),
        "interval": document_for(s),
    }
    return 0, _deliver(json.dumps(combined, ensure_ascii=False, indent=2), args)


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
    return 0, _deliver(text, args)


def _cmd_fuzz(args):
    cfg = _gen_config(
        m=args.atoms,
        n=args.situations,
        seed=args.seed,
        trials=args.trials,
        focal_bias=args.focal_bias,
        zero_weights=args.zero_weights,
        fault_injection=args.fault_injection,
        seeded_selectors=args.selectors,
    )
    report = fuzz(cfg)
    if args.format == "json":
        text = json.dumps(report.to_json_obj(), ensure_ascii=False, indent=2)
    else:
        text = report.render()
    return (0 if report.ok else 1), _deliver(text, args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that.

    No action has a mutable default, so parsing leaves the parser unchanged
    and one instance serves every ``run_command`` call.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--validate", action="store_true", help="check axioms while loading")
    common.add_argument("--seed", type=int, default=0, metavar="N", help="master seed")
    common.add_argument("--out", metavar="FILE", help="write the result to FILE")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="ambicalc",
        description="Interval structures, ambiguity and incidence maps, and the exact belief bridge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = cmd("check", _cmd_check, "run the axiom suite for a document")
    p.add_argument("file")
    p = cmd("oracle", _cmd_oracle, "run the naive reference checker for a document")
    p.add_argument("file")
    p = cmd("extract", _cmd_extract, "interval structure -> basic assignment")
    p.add_argument("file")
    p = cmd("build", _cmd_build, "basic assignment -> interval structure")
    p.add_argument("file")
    p = cmd("ambiguity", _cmd_ambiguity, "interval structure -> ambiguity map (the gap)")
    p.add_argument("file")
    p = cmd("incidence", _cmd_incidence, "basic assignment + selector -> incidence map")
    p.add_argument("file")
    p.add_argument("--selector", default="min", metavar="SEL",
                   help="min (default), seed:N, or @table.json")
    p = cmd("decompose", _cmd_decompose, "interval structure -> incidence + ambiguity")
    p.add_argument("file")
    p.add_argument("--selector", default="min", metavar="SEL")
    p.add_argument("--out-incidence", metavar="FILE")
    p.add_argument("--out-ambiguity", metavar="FILE")
    p = cmd("compose", _cmd_compose, "incidence + ambiguity -> interval structure")
    p.add_argument("incidence_file")
    p.add_argument("ambiguity_file")
    p = cmd("belief", _cmd_belief, "exact Bel/Pl/alpha tables for a structure and probability")
    p.add_argument("interval_file")
    p.add_argument("probability_file")
    p = cmd("from-mass", _cmd_from_mass, "mass function -> canonical model documents")
    p.add_argument("file")
    p = cmd("fishburn", _cmd_fishburn, "check the ambiguity-measure laws of alpha = Pl - Bel")
    p.add_argument("interval_file")
    p.add_argument("probability_file")
    p = cmd("gen", _cmd_gen, "generate a seeded random document")
    p.add_argument("--kind", choices=("assignment", "probability", "incidence"), required=True)
    p.add_argument("--atoms", type=int, default=3, metavar="M")
    p.add_argument("--situations", type=int, default=4, metavar="N")
    p = cmd("fuzz", _cmd_fuzz, "run the seeded end-to-end fuzz driver")
    p.add_argument("--trials", type=int, default=100, metavar="T")
    p.add_argument("--atoms", type=int, default=5, metavar="M")
    p.add_argument("--situations", type=int, default=10, metavar="N")
    p.add_argument("--selectors", type=int, default=5, metavar="K",
                   help="seeded selectors exercised per trial")
    p.add_argument("--fault-injection", action="store_true")
    p.add_argument("--focal-bias", type=float, default=None, metavar="B")
    p.add_argument("--zero-weights", action="store_true")
    return parser


def run_command(argv) -> tuple[int, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        return args.func(args)
    except (ParseError, SchemaError, UsageError) as exc:
        return 2, f"error: {exc}"
    except OSError as exc:
        return 2, f"error: {exc}"
    except AmbicalcError as exc:
        return 1, f"error: {exc}"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
