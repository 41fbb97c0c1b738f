"""Command line front end.

All rational parameters cross this boundary as exact strings ("p/q" or
decimals); no floating point is parsed or printed. Exit codes: 0 for
pass/holds, 1 when a checked property fails, 2 for input errors, 3 when
exploration hit the state cap before a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .chain import (
    _require_decreasing,
    build_delta_graph,
    decompose,
    decomposition_dot,
    decomposition_report,
    refine_ladder,
)
from .errors import BadParams, ChainShadowError, Inconclusive
from .rational import format_rational, parse_int, parse_nonnegative
from .shadow import DEFAULT_STATE_CAP, check_shadowing_property, check_slimit_property
from .system import generator_names, load_system, parse_generator_string
from .verify import GridEntry, default_grid, run_harness


def _arg(parse):
    """An argparse type: the library parser ``parse``, with its BadParams
    reported as an invalid argument."""

    def convert(text: str):
        try:
            return parse(text)
        except BadParams as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


_rational_arg = _arg(parse_nonnegative)
_rational_list_arg = _arg(lambda text: tuple(map(parse_nonnegative, text.split(","))))
_state_cap_arg = _arg(lambda text: parse_int("state cap", text, 1))


def _add_common(sub: argparse.ArgumentParser, formats=("json", "table")) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="system description file (JSON)")
    source.add_argument(
        "--gen",
        help="generator shorthand name:arg:... ; known generators: "
        + ", ".join(generator_names()),
    )
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--state-cap", type=_state_cap_arg, default=DEFAULT_STATE_CAP)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the
    process: ``parse_args`` returns a fresh namespace on every call, and
    the argument converters keep no state."""
    parser = argparse.ArgumentParser(
        prog="chainshadow",
        description="Exact chain-recurrence and shadowing analysis of finite systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser(
        "analyze", help="chain components, flags, and the class order at one delta"
    )
    _add_common(analyze, formats=("json", "table", "dot"))
    analyze.add_argument("--delta", type=_rational_arg, required=True)
    analyze.set_defaults(handler=_cmd_analyze)

    shadow = subs.add_parser(
        "shadow", help="decide the shadowing or slimit property at (delta, eps)"
    )
    _add_common(shadow)
    shadow.add_argument("--property", choices=("shadowing", "slimit"), default="shadowing")
    shadow.add_argument("--delta", type=_rational_arg, required=True)
    shadow.add_argument("--eps", type=_rational_arg, required=True)
    shadow.set_defaults(handler=_cmd_shadow)

    ladder = subs.add_parser(
        "ladder", help="decompositions along a strictly decreasing delta list"
    )
    _add_common(ladder)
    ladder.add_argument(
        "--deltas", type=_rational_list_arg, required=True, help="comma separated, decreasing"
    )
    ladder.set_defaults(handler=_cmd_ladder)

    verify = subs.add_parser(
        "verify", help="run the theorem harness over a parameter grid"
    )
    _add_common(verify)
    verify.add_argument(
        "--deltas",
        type=_rational_list_arg,
        help="fine deltas (strictly decreasing); default derived",
    )
    verify.add_argument("--eps", type=_rational_arg, help="fixed eps for every entry")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    # The parser is built once per process, on the first call.
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        # parse_generator_string and run_harness are read as module globals
        # at each call: bench/spans.py swaps them to time them.
        system = load_system(args.file) if args.gen is None else parse_generator_string(args.gen)
        text, code = args.handler(args, system)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ChainShadowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the system and returns
# (report text, exit code).


def _cmd_analyze(args, system) -> tuple[str, int]:
    _warn_below_quantization(system, [args.delta])
    dec = decompose(build_delta_graph(system, args.delta))
    if args.format == "dot":
        return decomposition_dot(dec, isolation_radius=args.delta or None), 0
    if args.format == "table":
        return _analyze_table(dec), 0
    return _dumps(decomposition_report(dec)), 0


def _cmd_shadow(args, system) -> tuple[str, int]:
    _warn_below_quantization(system, [args.delta])
    check = check_slimit_property if args.property == "slimit" else check_shadowing_property
    verdict = check(system, args.delta, args.eps, state_cap=args.state_cap)
    text = _dumps(verdict.to_json()) if args.format == "json" else _shadow_table(verdict)
    return text, 0 if verdict.passed else 1


def _cmd_ladder(args, system) -> tuple[str, int]:
    _warn_below_quantization(system, args.deltas)
    ladder = refine_ladder(system, args.deltas)
    report = {
        "deltas": [format_rational(d) for d in ladder.deltas],
        "functional_threshold": (
            None if ladder.threshold is None else format_rational(ladder.threshold)
        ),
        "stabilized_at_level": ladder.stabilized_at,
        "levels": [
            {
                "delta": format_rational(level.delta),
                "cr_size": len(level.cr),
                "class_count": len(level.classes),
                "classes": [sorted(cls) for cls in level.classes],
            }
            for level in ladder.levels
        ],
        "refinement": [list(mapping) for mapping in ladder.refinement],
    }
    return _dumps(report) if args.format == "json" else _ladder_table(report), 0


def _cmd_verify(args, system) -> tuple[str, int]:
    if args.deltas:
        _require_decreasing(args.deltas)
        _warn_below_quantization(system, args.deltas)
        coarse = args.deltas[0]
        grid = [GridEntry(coarse, d, args.eps if args.eps is not None else d) for d in args.deltas]
    elif args.eps is not None:
        grid = [GridEntry(e.delta_coarse, e.delta_fine, args.eps) for e in default_grid(system)]
    else:
        grid = None
    report = run_harness(system, args.gen or args.file, grid, state_cap=args.state_cap)
    text = _dumps(report.to_json()) if args.format == "json" else _verify_table(report)
    return text, 0 if report.nonvacuous_failures == 0 else 1


# ---------------------------------------------------------------------------
# helpers


def _warn_below_quantization(system, deltas) -> None:
    bound = system.quantization
    if bound is None:
        return
    for delta in deltas:
        if delta < bound:
            print(
                f"warning: delta {format_rational(delta)} is below the grid "
                f"quantization bound {format_rational(bound)}",
                file=sys.stderr,
            )


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, written in one pass: one
    recursive writer appends to a list, joined once. ``json.dumps`` indents
    only in its pure-Python encoder, which builds every item through a
    chain of generators. Strings go through ``encode_basestring_ascii``,
    as ``json.dumps`` writes them, and a list of ints is written with one
    join. A value of any other type (a float, a non-str key, a subclass)
    sends the whole object to ``json.dumps``, so the bytes, or the
    exception, are always json's."""
    out: list[str] = []
    try:
        _write(obj, "\n", out)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list) -> None:
    """Append ``value`` as ``json.dumps(indent=2)`` writes it, where
    ``newline`` is a line break followed by the indent of its own line;
    TypeError for a value it leaves to ``json.dumps``."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _write(item, inner, out)
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError


def _analyze_table(dec) -> str:
    report = decomposition_report(dec)
    lines = [
        f"delta: {report['delta']}",
        f"chain recurrent points: {report['cr_size']}",
        f"classes: {len(report['classes'])}",
    ]
    for cls in report["classes"]:
        flags = [
            name
            for name in ("terminal", "initial")
            if cls[name]
        ]
        sep = cls["separation"] if cls["separation"] is not None else "-"
        lines.append(
            f"  C{cls['id']}: points={cls['points']} flags={','.join(flags) or '-'} sep={sep}"
        )
    for low, high in report["order"]:
        lines.append(f"  C{low} <= C{high}")
    return "\n".join(lines) + "\n"


def _shadow_table(verdict) -> str:
    data = verdict.to_json()
    lines = [
        f"property: {data['property']}",
        f"delta: {data['delta']}  eps: {data['eps']}",
        f"pass: {'yes' if data['pass'] else 'no'}",
        f"states explored: {data['states_explored']}",
    ]
    if data["witness"] is not None:
        w = data["witness"]
        tail = f" tail_start={w['tail_start']}" if "tail_start" in w else ""
        lines.append(f"witness: points={w['points']} kind={w['kind']}{tail}")
    return "\n".join(lines) + "\n"


def _ladder_table(report) -> str:
    lines = [f"deltas: {', '.join(report['deltas'])}"]
    for level in report["levels"]:
        lines.append(
            f"  delta={level['delta']}: {level['class_count']} classes, "
            f"{level['cr_size']} recurrent points"
        )
    threshold = report["functional_threshold"]
    lines.append(f"functional threshold: {threshold if threshold is not None else '-'}")
    stabilized = report["stabilized_at_level"]
    lines.append(
        "stabilized at level: " + (str(stabilized) if stabilized is not None else "never")
    )
    return "\n".join(lines) + "\n"


def _verify_table(report) -> str:
    data = report.to_json()
    lines = [f"system: {data['system']}"]
    for entry in data["entries"]:
        header = (
            f"[dc={entry['delta_coarse']} df={entry['delta_fine']} eps={entry['eps']}]"
        )
        for result in entry["results"]:
            lines.append(f"  {header} {result['theorem']}: {result['status']}")
    lines.append(f"nonvacuous failures: {data['nonvacuous_failures']}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    console_entry()
