"""Command line front end for the flow, reliability, importance and fault
tree analyses.

Exit codes: 0 success, 2 bad input (diagnostic names the offending field),
3 internal invariant violation.  JSON output is deterministic: identical
invocations produce byte-identical documents (no timestamps, no timings).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import datasets, faulttree, reliability
from .errors import PlantDataError, PlantflowError
from .flow import BACKENDS, MAXFLOW_BACKEND, compile_system, max_processable_flow
from .model import MODES, assignment_states

_TABLE_EDGE_CAP = 50  # human tables truncate flow listings past this; --full lifts it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantflow",
        description="Throughput and reliability analysis of multi-stage plant networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    grp = source.add_mutually_exclusive_group(required=True)
    grp.add_argument("--builtin", choices=datasets.BUILTINS,
                     help="named built-in dataset")
    grp.add_argument("--file", help="path to a network document file")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=MODES, default=None,
                        help="capacity semantics (default: the dataset's)")
    common.add_argument("--backend", choices=BACKENDS, default=MAXFLOW_BACKEND,
                        help="solver backend (default: %(default)s)")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("table", "json", "csv"), default="table",
                     help="output format (default: %(default)s)")
    out.add_argument("--out", default=None, help="write output to this path instead of stdout")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--target", type=float, default=None,
                    help="target flow (default: the dataset's)")
    mc.add_argument("--samples", type=int, default=100_000,
                    help="Monte Carlo sample count (default: %(default)s)")
    mc.add_argument("--seed", type=int, default=42,
                    help="random seed (default: %(default)s)")
    mc.add_argument("--workers", type=int, default=1,
                    help="parallel workers; results do not depend on this")

    p = sub.add_parser("maxflow", parents=[source, common, out],
                       help="maximum processable flow for one scenario")
    p.add_argument("--fail", action="append", default=[], metavar="RV_ID",
                   help="fail this component (repeatable)")
    p.add_argument("--full", action="store_true",
                   help="list every edge flow in table output")

    sub.add_parser("reliability", parents=[source, common, out, mc],
                   help="Monte Carlo failure probability")

    p = sub.add_parser("importance", parents=[source, common, out, mc],
                       help="Birnbaum importance per component")
    p.add_argument("--top", type=int, default=6,
                   help="size of the highest-importance list (default: %(default)s)")
    p.add_argument("--bottom", type=int, default=6,
                   help="size of the lowest-importance list (default: %(default)s)")

    p = sub.add_parser("faulttree", parents=[out],
                       help="exact fault-tree baseline on the didactic system")
    p.add_argument("--p-fail", type=float, default=0.03,
                   help="per-component failure probability (default: %(default)s)")
    return parser


def _load(args) -> tuple:
    if args.builtin is not None:
        return datasets.builtin(args.builtin), args.builtin
    return datasets.load_network(args.file), args.file


def _mode(args, doc) -> str:
    return args.mode if args.mode is not None else doc.defaults.mode


def _render(args, record: dict, header: list[str], rows: list, table: list[str]) -> int:
    """Write the command's result in the requested format to stdout or --out."""
    if args.format == "json":
        text = json.dumps(record, indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "\n".join(table)
    text = text if text.endswith("\n") else text + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def cmd_maxflow(args) -> int:
    doc, name = _load(args)
    net, model = doc.network, doc.model
    assignment = model.all_up()
    for rv_id in args.fail:
        if rv_id not in assignment:
            raise PlantDataError(f"--fail: unknown component {rv_id!r}")
        if assignment[rv_id] == 0:
            raise PlantDataError(f"--fail: component {rv_id!r} given twice")
        assignment[rv_id] = 0
    sol = max_processable_flow(net, model, assignment,
                               mode=_mode(args, doc), backend=args.backend)
    record = {
        "command": "maxflow",
        "network": name,
        "mode": sol.mode,
        "backend": sol.backend,
        "failed": sorted(args.fail),
        "u_star": sol.value,
        "edge_flow": sol.edge_flow,
        "station_flow": {str(k): v for k, v in sol.station_flow.items()},
    }
    rows = [[e.edge_id, e.tail, e.head, e.stage, sol.edge_flow[e.edge_id]]
            for e in net.edges]
    shown = net.edges if args.full else net.edges[:_TABLE_EDGE_CAP]
    table = [
        f"network: {name}",
        f"mode: {sol.mode}   backend: {sol.backend}",
        f"failed: {', '.join(record['failed']) or '(none)'}",
        f"u* = {sol.value:.6f}",
        "",
        "edge flows:",
    ]
    table += [f"  {e.edge_id:>5}  ({e.tail:>2} -> {e.head:>2}, stage {e.stage})"
              f"  {sol.edge_flow[e.edge_id]:.6f}" for e in shown]
    if len(shown) < len(net.edges):
        table.append(f"  ... {len(net.edges) - len(shown)} more edges (use --full)")
    return _render(args, record, ["edge_id", "tail", "head", "stage", "flow"], rows, table)


def _query(args, doc) -> reliability.ReliabilityQuery:
    if args.samples < 1:
        raise PlantDataError("--samples: must be at least 1")
    if args.workers < 1:
        raise PlantDataError("--workers: must be at least 1")
    return reliability.ReliabilityQuery(
        target_flow=args.target if args.target is not None else doc.defaults.target_flow,
        mode=_mode(args, doc),
        backend=args.backend,
        samples=args.samples,
        seed=args.seed,
    )


def _query_record(args, name: str, query: reliability.ReliabilityQuery) -> dict:
    """The leading fields of a sampling command's record."""
    return {
        "command": args.command,
        "network": name,
        "mode": query.mode,
        "backend": query.backend,
        "target_flow": query.target_flow,
        "samples": query.samples,
        "seed": query.seed,
    }


def cmd_reliability(args) -> int:
    doc, name = _load(args)
    query = _query(args, doc)
    if query.samples < 100:
        print(f"warning: {query.samples} samples; the normal-approximation "
              "standard error is unreliable at this size", file=sys.stderr)
    rep = reliability.estimate_failure_probability(
        doc.network, doc.model, query, workers=args.workers)
    record = {
        **_query_record(args, name, query),
        "failures": rep.failures,
        "p_fail_hat": rep.failure_probability,
        "std_error": rep.std_error,
    }
    fields = {k: v for k, v in record.items() if k != "command"}
    table = [
        f"network: {name}",
        f"mode: {query.mode}   backend: {query.backend}",
        f"target flow: {query.target_flow}",
        f"samples: {query.samples}   seed: {query.seed}",
        f"failures: {rep.failures}",
        f"p_fail = {rep.failure_probability:.5f}  (std error {rep.std_error:.5f})",
    ]
    return _render(args, record, list(fields), [list(fields.values())], table)


def cmd_importance(args) -> int:
    doc, name = _load(args)
    if args.top < 0:
        raise PlantDataError("--top: must be non-negative")
    if args.bottom < 0:
        raise PlantDataError("--bottom: must be non-negative")
    query = _query(args, doc)
    rep = reliability.birnbaum_importance(
        doc.network, doc.model, query, workers=args.workers)
    top = reliability.rank_components(rep, limit=args.top)
    bottom = reliability.rank_components(rep, limit=args.bottom, smallest=True)
    record = {
        **_query_record(args, name, query),
        "entries": [{"rv_id": e.rv_id, "birnbaum": e.importance,
                     "std_error": e.std_error} for e in rep.entries],
        "top": [e.rv_id for e in top.entries],
        "bottom": [e.rv_id for e in bottom.entries],
        "truncated": top.truncated or bottom.truncated,
    }

    def listing(title: str, entries) -> list[str]:
        return ["", title] + [f"  {e.rv_id:>6}  {e.importance:+.5f}  (se {e.std_error:.5f})"
                              for e in entries]

    table = [
        f"network: {name}",
        f"mode: {query.mode}   backend: {query.backend}   target: {query.target_flow}",
        f"samples: {query.samples}   seed: {query.seed}",
    ]
    if args.top:
        table += listing(f"top {len(top.entries)} by Birnbaum importance:", top.entries)
    if args.bottom:
        table += listing(f"bottom {len(bottom.entries)}:", bottom.entries)
    if not args.top and not args.bottom:
        table += listing("all components:", rep.entries)
    if record["truncated"]:
        table += ["", "(requested list size exceeds component count; truncated)"]
    rows = [e.values() for e in record["entries"]]
    return _render(args, record, ["rv_id", "birnbaum", "std_error"], rows, table)


# The two storage scenarios the flow function separates but the tree cannot:
# both fail station n9 plus one pipe, differing only in which pipe.
_CONTRAST_SCENARIOS = (
    ("n9 + pipe (8,9) failed", ("n9", "p8_9")),
    ("n9 + pipe (4,5) failed", ("n9", "p4_5")),
)


def cmd_faulttree(args) -> int:
    if not 0.0 <= args.p_fail <= 1.0:
        raise PlantDataError("--p-fail: must be a probability in [0, 1]")
    doc = datasets.didactic(p_fail=args.p_fail)
    net, model = doc.network, doc.model
    tree = faulttree.didactic_fault_tree()
    p_fail = {rv.rv_id: rv.p_fail for rv in model.rvs}
    exact = faulttree.failure_probability(tree, p_fail)
    sf = compile_system(net, model, doc.defaults.target_flow)

    contrast = []
    for label, failed in _CONTRAST_SCENARIOS:
        assignment = model.all_up()
        for rv_id in failed:
            assignment[rv_id] = 0
        tree_fails = faulttree.evaluate_failure(tree, assignment)
        states = assignment_states(model, assignment)
        contrast.append({
            "scenario": label,
            "fault_tree": "fail" if tree_fails else "survive",
            "flow_function": "survive" if sf.evaluate(states) else "fail",
            "u_star": sf.flow_value(states),
        })
    record = {
        "command": "faulttree",
        "network": "didactic",
        "p_fail": args.p_fail,
        "failure_probability": exact,
        "contrast": contrast,
    }
    table = [
        "network: didactic",
        f"component failure probability: {args.p_fail}",
        f"exact system failure probability (gate arithmetic): {exact:.10f}",
        "",
        "scenario contrast (fault tree vs flow function):",
    ]
    table += [f"  {c['scenario']:<28} tree: {c['fault_tree']:<8} "
              f"flow: {c['flow_function']:<8} (u* = {c['u_star']:.3f})" for c in contrast]
    rows = [c.values() for c in contrast]
    return _render(args, record, ["scenario", "fault_tree", "flow_function", "u_star"],
                   rows, table)


_COMMANDS = {
    "maxflow": cmd_maxflow,
    "reliability": cmd_reliability,
    "importance": cmd_importance,
    "faulttree": cmd_faulttree,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not math.isfinite(getattr(args, "target", None) or 0.0):
        parser.error(f"argument --target: expected a finite number, got {args.target}")
    try:
        return _COMMANDS[args.command](args)
    except (PlantDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlantflowError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
