"""Command-line front end.

Subcommands wire the pipeline together: validate a network document, build
and reduce its dependence graph, generate/solve/export the entropy LP, and
build the symbolic coding matrices with finite-field search.  JSON is the
default output format (keys sorted, no timestamps) so runs are byte
reproducible; ``--format text`` prints the human tables instead.

Exit codes are a stable scripting contract: 0 success, 1 domain-level
negative result (invalid network, exhausted search, failed replay), 2 usage
or I/O error.  A stdout whose reader has gone, as under ``| head``, exits 2
without a message.  A library warning, such as a demanded source that no sink
can decode, is printed to stderr as one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from . import algebra, fdg as fdgmod, lpbound, netmodel

OK = 0
NEGATIVE = 1
USAGE = 2


def _print_json(doc) -> None:
    print(netmodel._json_text(doc))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 text: {exc}") from None


def _read_network(path: str) -> netmodel.Network:
    return netmodel.parse_network(_read(path))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


class _UsageError(Exception):
    pass


def _reduced_graph(net: netmodel.Network, mode: str) -> fdgmod.Fdg:
    graph = fdgmod.build_fdg(net)
    if mode == "none":
        return graph
    reduced, _ = fdgmod.reduce(graph, mode)
    return reduced


def cmd_validate(args) -> int:
    try:
        _read_network(args.network)
    except netmodel.InvalidNetworkError as exc:
        for violation in exc.violations:
            print(violation)
        return NEGATIVE
    print("ok")
    return OK


def cmd_reduce(args) -> int:
    net = _read_network(args.network)
    graph = fdgmod.build_fdg(net)
    reduced, trace = fdgmod.reduce(graph, args.mode)
    if args.trace_out:
        _write(args.trace_out, trace.to_jsonl())
    if args.format == "json":
        _print_json({
            "mode": args.mode,
            "original_order": graph.order,
            "reduced_order": reduced.order,
            "delta_v": trace.delta_v,
            "delta_e": trace.delta_e,
            "steps": [step.to_dict() for step in trace.steps],
            "reduced": reduced.to_dict(),
        })
    else:
        print(f"order {graph.order} -> {reduced.order} "
              f"({trace.delta_v} vars, {trace.delta_e} dependence edges removed)")
        for step in trace.steps:
            print(f"  {step.rule}: removed {', '.join(step.removed)}")
        if not trace.steps:
            print("  0 vars removed")
    return OK


def _solve_cap_refusal(graph, max_n: int) -> str:
    """One line refusing an in-process solve above the cap.  It offers
    --export only for an LP that --export would write."""
    head = (f"problem has N={graph.order} variables, above the in-process solve cap "
            f"{max_n} (override with {lpbound.MAX_N_ENV})")
    try:  # rows counted in closed form, none generated
        rows = lpbound.graph_lp_stats(graph).total
    except ValueError as exc:
        return f"{head}; --export refuses it too: {exc}"
    if rows > lpbound.EXPORT_ROW_CAP:
        return (f"{head}; its {rows} rows are above the --export cap of "
                f"{lpbound.EXPORT_ROW_CAP}, so reduce the graph first")
    return f"{head}; try --export and an external solver"


def cmd_lp(args) -> int:
    net = _read_network(args.network)
    graph = _reduced_graph(net, args.reduce)
    if args.weights is not None:
        try:
            weights = netmodel.Weights.parse(args.weights)
            weights.check_against(net)
        except ValueError as exc:
            raise _UsageError(f"bad weights {args.weights!r}: {exc}") from None
    else:
        weights = netmodel.Weights.of({s.index: 1 for s in net.sources})
    if args.stats:
        stats = lpbound.graph_lp_stats(graph)
        if args.format == "json":
            _print_json({"n_vars": graph.order, "dimension": stats.dimension,
                         "total_rows": stats.total, "counts": stats.counts})
        else:
            print(f"N={graph.order} dimension={stats.dimension} rows={stats.total}")
            for tag in lpbound.TAG_ORDER:
                print(f"  {tag:10s} {stats.counts[tag]}")
        return OK

    if args.export is not None:  # rows counted in closed form, before generating them
        rows = lpbound.graph_lp_stats(graph).total
        if rows > lpbound.EXPORT_ROW_CAP:
            raise _UsageError(f"the LP has {rows} rows, above the export cap of "
                              f"{lpbound.EXPORT_ROW_CAP}; reduce the graph first")
    else:
        try:
            max_n = lpbound.solve_cap()
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        try:  # N is the graph order: refuse before generating the rows
            lpbound.check_solve_cap(graph.order, max_n)
        except ValueError:
            raise _UsageError(_solve_cap_refusal(graph, max_n)) from None
    problem = lpbound.build_lp(graph, weights)

    if args.export is not None:
        text = lpbound.export_lp(problem)
        if args.export == "-":
            sys.stdout.write(text)
        else:
            _write(args.export, text)
        return OK

    solution = lpbound.lp_solve(problem, max_n)
    if solution.status != "optimal":
        if args.format == "json":
            _print_json({"status": solution.status})
        else:
            print(solution.status)
        return NEGATIVE
    rates = {f"Y{k}": netmodel.fraction_text(solution.rate(k))
             for k, _ in problem.source_masks}
    value = netmodel.fraction_text(solution.value)
    if args.format == "json":
        _print_json({"status": "optimal", "value": value, "rates": rates})
    else:
        print(f"optimal {value}")
        for name, rate in sorted(rates.items()):
            print(f"  {name} = {rate}")
    return OK


def _parse_pins(text: str) -> dict:
    pins = {}
    if not text:
        return pins
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _UsageError(f"bad pin {part!r}; expected name=value")
        name, _, value = part.rpartition("=")
        if name in pins:
            raise _UsageError(f"pin {name!r} given more than once")
        try:
            pins[name] = int(value)
        except ValueError:
            raise _UsageError(f"bad pin value in {part!r}") from None
    return pins


def cmd_transfer(args) -> int:
    net = _read_network(args.network)
    graph = _reduced_graph(net, args.reduce)
    system = algebra.build_transfer_system(graph)
    matrix = algebra.transfer_matrix(system)
    slots = [f"{sink}:Y{index}" for sink, index in system.slots]

    if args.search is None:
        if args.format == "json":
            _print_json({
                "sources": [f"Y{s}" for s in system.source_indices],
                "slots": slots,
                "adjacency_dim": system.adjacency_dim,
                "indeterminates": list(system.indeterminates),
                "demand": [list(r) for r in system.demand],
                "entries": [[entry.render() for entry in row] for row in matrix],
            })
        else:
            print(f"indeterminates: {system.indeterminate_count()}, "
                  f"F: {system.adjacency_dim}x{system.adjacency_dim}")
            print(algebra.render_matrix(matrix))
        return OK

    pins = _parse_pins(args.pin)
    try:
        result = algebra.solvability_search(
            matrix, system.demand, args.search,
            order=system.indeterminates, pinned=pins)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    doc = {"field": result.field, "status": result.status,
           "assignment": result.assignment,
           "evaluations_tried": result.evaluations_tried}
    if args.format == "json":
        _print_json(doc)
    else:
        if result.status == "found":
            print(f"found over GF({result.field}):")
            for name, value in result.assignment.items():
                print(f"  {name} = {value}")
        else:
            print(f"exhausted over GF({result.field}) "
                  f"({result.evaluations_tried} nodes searched)")
    return OK if result.status == "found" else NEGATIVE


def cmd_replay(args) -> int:
    net = _read_network(args.network)
    graph = fdgmod.build_fdg(net)
    text = _read(args.trace)
    try:
        trace = fdgmod.ReductionTrace.from_jsonl(text)
    except fdgmod.TraceFormatError as exc:
        raise _UsageError(f"bad trace {args.trace}: {exc}") from None
    try:
        result = fdgmod.replay(graph, trace)
    except fdgmod.ReplayError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return NEGATIVE
    if args.format == "json":
        _print_json(result.to_dict())
    else:
        print(f"replayed {len(trace.steps)} steps -> order {result.order}")
    return OK


@functools.cache  # once per process: each main() call parses into a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdgtool",
        description="dependence-graph reduction, entropy LP bounds, and "
                    "scalar linear coding for capacitated acyclic networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="reduce the dependence graph")
    p.add_argument("network")
    p.add_argument("--mode", choices=[fdgmod.SHANNON, fdgmod.LINEAR],
                   default=fdgmod.SHANNON)
    p.add_argument("--trace-out", metavar="FILE",
                   help="write the reduction trace as JSON lines")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lp", help="entropy LP: stats, exact solve, or export")
    p.add_argument("network")
    p.add_argument("--reduce", choices=["none", fdgmod.SHANNON, fdgmod.LINEAR],
                   default="none", help="reduce the graph first (default: none)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stats", action="store_true")
    group.add_argument("--solve", action="store_true")
    group.add_argument("--export", metavar="FILE",
                       help="write CPLEX-style LP text ('-' for stdout)")
    p.add_argument("-w", "--weights", metavar="W1,W2,...",
                   help="per-source objective weights, positional by index "
                        "(default: all ones)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("transfer", help="symbolic coding matrix and field search")
    p.add_argument("network")
    p.add_argument("--reduce", choices=["none", fdgmod.SHANNON, fdgmod.LINEAR],
                   default=fdgmod.LINEAR,
                   help="reduction applied first (default: linear)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--matrix", action="store_true",
                       help="print the transfer matrix (default)")
    group.add_argument("--search", type=int, metavar="P",
                       help="search assignments over the prime field GF(P)")
    p.add_argument("--pin", default="",
                   metavar="NAME=V,...", help="fix indeterminates before searching")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("replay", help="re-apply a reduction trace")
    p.add_argument("network")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_replay)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _weights_joined(argv: list) -> list:
    """``argv`` with each ``-w W`` before any ``--`` written as ``-w=W``,
    and likewise for ``--weights`` and its abbreviations (``--weig W``):
    argparse would read a separate ``W`` that starts with ``-`` as an option."""
    out, i = [], 0
    while i < len(argv) and argv[i] != "--":
        flag = argv[i] == "-w" or len(argv[i]) > 2 and "--weights".startswith(argv[i])
        if flag and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out + argv[i:]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_weights_joined(sys.argv[1:] if argv is None else list(argv)))
    for key, value in vars(args).items():
        if value == []:  # argparse drops an option value that is exactly "--"
            setattr(args, key, "--")
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            code = args.func(args)
            sys.stdout.flush()  # here, so that a closed pipe is caught below
            return code
        except BrokenPipeError:
            # Send what is still buffered to devnull, or the flush at exit
            # fails again and prints "Exception ignored".
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return USAGE
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        except netmodel.NetworkFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        except (netmodel.InvalidNetworkError, fdgmod.UnitCapacityError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
