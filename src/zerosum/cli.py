"""Command-line front door: detect, count, extract, construct, constant, verify.

Exit codes: 0 success, 1 property violated or value discrepancy, 2 usage,
parse or precondition error, 3 budget exhausted, 4 internal error (a fault
in the program, not in its input). Errors go to stderr as one line with a
stable machine-greppable prefix "ERROR:<kind>:".

The CLI is the only place that starts worker processes: `constant` and
`verify` open one pool when --workers (or ZEROSUM_WORKERS) is above 1 and
hand it to the library as an executor. The pool forks its workers at the
first task submitted, and a walk submits none until its own walk in the
calling process has passed 2^15 nodes, so a small run starts no process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .constructions import (
    build_cyclic_extremal,
    build_power2_extremal,
    build_square_extremal,
    validate_extremal,
)
from .engine import count_zero_sum_subseqs, find_zero_sum_subseq
from .extractors import (
    PreconditionError,
    extract_cyclic_block,
    extract_cyclic_nt,
    extract_square_3n,
    extract_square_block,
    extract_square_n,
)
from .groups import Group, GroupParseError, parse_group
from .sequences import (
    Sequence,
    SequenceParseError,
    parse_elements,
    parse_sequence,
    sequence_from_jsonable,
    sequence_to_jsonable,
    serialize_sequence,
)
from .search import (
    BudgetExceeded,
    ConstantReport,
    SearchBudget,
    brute_force_modified_constant,
    conjecture_value,
    formula_modified_cyclic,
    formula_modified_square,
    reports_to_csv,
    verify_theorem,
)

SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse with the stable one-line error prefix and exit code 2."""

    def error(self, message):
        self.exit(2, f"ERROR:usage: {message}\n")


def _error(kind: str, message: str) -> None:
    print(f"ERROR:{kind}: {message}", file=sys.stderr)


def _parse_int_list(text: str) -> list[int]:
    """Range syntax: "4", "2..10", or "2,3,5"; an empty range or list is refused."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        values, kind = list(range(int(lo_text), int(hi_text) + 1)), "range"
    elif "," in text:
        values, kind = [int(p) for p in text.split(",") if p.strip()], "list"
    else:
        return [int(text)]
    if not values:
        raise UsageError(f"empty {kind} {text!r}")
    return values


def _load_sequence(args) -> Sequence:
    if args.seq is not None and args.seq_file is not None:
        raise UsageError("give either --seq or --seq-file, not both")
    if args.seq is not None:
        if args.group is None:
            raise UsageError("--seq needs --group")
        return parse_elements(parse_group(args.group), args.seq, lenient=args.lenient)
    if args.seq_file is not None:
        try:
            with open(args.seq_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --seq-file {args.seq_file}: {exc.strerror}") from None
        if text.lstrip().startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SequenceParseError(f"invalid JSON in --seq-file: {exc}") from None
            seq = sequence_from_jsonable(data, lenient=args.lenient)
        else:
            seq = parse_sequence(text.strip(), lenient=args.lenient)
        if args.group is not None and parse_group(args.group) != seq.group:
            raise UsageError(
                f"--group {args.group} does not match the file's group {seq.group}"
            )
        return seq
    raise UsageError("a sequence is required (--seq or --seq-file)")


def _budget_from(args) -> SearchBudget:
    budget = SearchBudget()
    env_nodes = os.environ.get("ZEROSUM_BUDGET")
    if env_nodes:
        budget.max_nodes = int(env_nodes)
    if getattr(args, "budget", None) is not None:
        budget.max_nodes = args.budget
    if getattr(args, "time_limit", None) is not None:
        budget.max_seconds = args.time_limit
    if budget.max_nodes < 1:
        raise UsageError(f"budget must be >= 1, got {budget.max_nodes}")
    if not budget.max_seconds > 0:
        raise UsageError(f"time limit must be > 0, got {budget.max_seconds}")
    return budget


def _pool_from(args) -> contextlib.AbstractContextManager:
    """A worker pool for the library when --workers (or ZEROSUM_WORKERS) is
    above 1; otherwise a context that yields None, the library's serial mode."""
    env = os.environ.get("ZEROSUM_WORKERS")
    workers = int(env) if env else 1
    if args.workers is not None:
        workers = args.workers
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return contextlib.nullcontext()
    # Imported here so that a serial run loads no concurrent.* or
    # multiprocessing.* module.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _emit(args, payload: dict, text_lines: list[str], csv_text: str | None = None) -> None:
    """Print one command's result; JSON gets the schema and command keys."""
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        if csv_text is None:
            raise UsageError(f"--format csv is not supported for {args.command}")
        sys.stdout.write(csv_text)
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_detect(args) -> int:
    seq = _load_sequence(args)
    witness = find_zero_sum_subseq(seq, args.k)
    payload = {
        "sequence": serialize_sequence(seq),
        "k": args.k,
        "found": witness is not None,
        "witness": None if witness is None else serialize_sequence(witness),
    }
    text = [payload["witness"] if witness is not None else "none"]
    _emit(args, payload, text)
    return 0


def _cmd_count(args) -> int:
    seq = _load_sequence(args)
    value = count_zero_sum_subseqs(seq, args.k, modulus=args.mod)
    payload = {
        "sequence": serialize_sequence(seq),
        "k": args.k,
        "modulus": args.mod,
        "count": value,
    }
    _emit(args, payload, [str(value)])
    return 0


def _require_shorter(seq: Sequence, method: str, k: int, n: int) -> None:
    """The block methods read the length as kn - d with d >= 1, so a
    sequence of kn elements or more is refused for its length."""
    if seq.length >= k * n:
        raise PreconditionError(
            f"method {method} needs a sequence shorter than {k}n = {k * n}, got length {seq.length}"
        )


def _dispatch_extract(seq: Sequence, target: int, method: str):
    """Route to a proof-following extractor.

    For the named nt method --t is the multiplier (witness length n*t); for
    every other method, auto included, --t is the witness length itself.
    """
    group = seq.group
    if method == "dp":
        return find_zero_sum_subseq(seq, target), "dp"
    if method in ("block", "nt"):
        if group.rank != 1:
            raise PreconditionError(f"method {method} needs a cyclic group, got {group}")
        n = group.moduli[0]
        if method == "block":
            if target != n:
                raise PreconditionError(f"block method extracts length n = {n}, got t = {target}")
            _require_shorter(seq, method, 2, n)
            return extract_cyclic_block(seq, 2 * n - seq.length), "block"
        return extract_cyclic_nt(seq, target), "nt"
    if method in ("square3n", "squareblock"):
        if group.rank != 2 or group.moduli[0] != group.moduli[1]:
            raise PreconditionError(f"method {method} needs (Z/n)^2, got {group}")
        n = group.moduli[0]
        if target != n:
            raise PreconditionError(f"method {method} extracts length n = {n}, got t = {target}")
        if method == "square3n":
            return extract_square_3n(seq), "square3n"
        _require_shorter(seq, method, 4, n)
        return extract_square_block(seq, 4 * n - seq.length), "squareblock"
    # auto: each extractor checks its own hypotheses; outside them, dp.
    n = group.moduli[0]
    try:
        if group.rank == 1 and target % n == 0:
            return extract_cyclic_nt(seq, target // n), "nt"
        if group.rank == 2 and target == n:
            if seq.length == 3 * n:
                return extract_square_3n(seq), "square3n"
            return extract_square_n(seq), "squaren"
    except PreconditionError:
        pass
    return find_zero_sum_subseq(seq, target), "dp"


def _cmd_extract(args) -> int:
    seq = _load_sequence(args)
    witness, used = _dispatch_extract(seq, args.t, args.method)
    payload = {
        "sequence": serialize_sequence(seq),
        "t": args.t,
        "method_requested": args.method,
        "method_used": used,
        "found": witness is not None,
        "witness": None if witness is None else serialize_sequence(witness),
    }
    text = [payload["witness"] if witness is not None else "none"]
    _emit(args, payload, text)
    return 0


def _cmd_construct(args) -> int:
    if args.family == "cyclic":
        if args.n is None:
            raise UsageError("construct --family cyclic needs --n")
        t = args.t if args.t is not None else 1
        seq = build_cyclic_extremal(args.n, t)
        forbidden = (args.n * t,)
    elif args.family == "square":
        if args.n is None:
            raise UsageError("construct --family square needs --n")
        seq = build_square_extremal(args.n)
        forbidden = (args.n,)
    else:  # power2
        if args.r is None:
            raise UsageError("construct --family power2 needs --r")
        if args.n is not None and args.n != 2:
            raise UsageError("the power2 family is only defined for n = 2")
        seq = build_power2_extremal(1, args.r)
        forbidden = (2,)
    report = validate_extremal(seq, forbidden)
    payload = {
        "family": args.family,
        "sequence": serialize_sequence(seq),
        "sequence_json": sequence_to_jsonable(seq),
        "validation": report.to_jsonable(),
    }
    text = [
        serialize_sequence(seq),
        f"length={report.length} zero_sum={report.zero_sum} "
        f"forbidden={list(report.forbidden_lengths)} valid={report.valid}",
    ]
    _emit(args, payload, text)
    return 0 if report.valid else 1


def _claimed_from_formula(group: Group, t: int) -> int:
    if group.rank == 1:
        n = group.moduli[0]
        if t % n:
            raise UsageError(f"no closed form for target {t} over {group} (need n | t)")
        return formula_modified_cyclic(n, t // n)
    if group.rank == 2 and group.moduli[0] == group.moduli[1]:
        n = group.moduli[0]
        if t == n:
            return formula_modified_square(n)
        raise UsageError(f"no closed form for target {t} over {group} (need t = n)")
    if all(m == 2 for m in group.moduli):
        if t == 2:
            return conjecture_value(2, group.rank)
        raise UsageError(f"no conjectured value for target {t} over {group}")
    raise UsageError(f"no closed form known for {group}")


def _cmd_constant(args) -> int:
    group = parse_group(args.group)
    claimed = None
    if args.claimed_from == "formula":
        claimed = _claimed_from_formula(group, args.t)
    budget = _budget_from(args)
    with _pool_from(args) as pool:
        report = brute_force_modified_constant(
            group, args.t, budget=budget, claimed_value=claimed, pool=pool
        )
    payload = {"report": report.to_jsonable()}
    text = [
        f"group={report.group} t={report.target} computed={report.computed_value}"
        + (f" claimed={report.claimed_value}" if report.claimed_value is not None else ""),
        f"extremal: {report.extremal_witness}",
        f"window={list(report.window)} status={'DISCREPANCY' if report.discrepancy else 'OK'}",
    ]
    _emit(args, payload, text, reports_to_csv([report]))
    return 1 if report.discrepancy else 0


def _cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"samples must be >= 1, got {args.samples}")
    n_values = _parse_int_list(args.n) if args.n else None
    t_values = _parse_int_list(args.t) if args.t else None
    if args.suite == "square" and args.extended and n_values is None:
        n_values = [2, 3, 4]
    budget = _budget_from(args)
    with _pool_from(args) as pool:
        reports = verify_theorem(
            args.suite,
            n_values=n_values,
            t_values=t_values,
            budget=budget,
            pool=pool,
            seed=args.seed,
            samples=args.samples,
        )
    payload = {
        "suite": args.suite,
        "reports": [r.to_jsonable() for r in reports],
    }
    text = []
    for r in reports:
        if isinstance(r, ConstantReport):
            status = "DISCREPANCY" if r.discrepancy else "ok"
            text.append(
                f"{r.group:>12} t={r.target:<4} computed={r.computed_value:<4} "
                f"claimed={r.claimed_value} {status}"
            )
        else:
            status = "ok" if r.passed else "VIOLATED"
            params = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            text.append(
                f"{r.name:>12} {params} checked={r.checked} "
                f"violations={r.violations} {status}"
            )
    all_ok = all(r.ok for r in reports)
    text.append("all ok" if all_ok else "FAILURES PRESENT")
    _emit(args, payload, text, reports_to_csv(reports))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser


def _add_sequence_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="group spec such as Z/6, Z/3^2, Z/2xZ/6")
    p.add_argument("--seq", help="inline element list, e.g. \"0^4 1^2 2^2\"")
    p.add_argument("--seq-file", help="file in sequence text or JSON format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zerosum",
        description="Zero-sum subsequence workbench over finite abelian groups",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "csv"], default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="reduce out-of-range residues instead of rejecting them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="find a zero-sum subsequence of length k")
    _add_sequence_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("count", help="count zero-sum subsequences of length k")
    _add_sequence_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mod", type=int, help="count modulo this integer")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("extract", help="extract a witness via a proof-following method")
    _add_sequence_args(p)
    p.add_argument("--t", type=int, required=True, help="target subsequence length")
    p.add_argument(
        "--method",
        choices=["auto", "block", "nt", "square3n", "squareblock", "dp"],
        default="auto",
    )
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("construct", help="build an extremal sequence")
    p.add_argument("--family", choices=["cyclic", "square", "power2"], required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("constant", help="brute-force a modified constant")
    p.add_argument("--group", required=True)
    p.add_argument("--t", type=int, required=True, help="target subsequence length")
    p.add_argument("--budget", type=int, help="node budget (default 1e8)")
    p.add_argument("--time-limit", type=float, help="wall-clock budget in seconds")
    p.add_argument("--workers", type=int)
    p.add_argument("--claimed-from", choices=["formula", "none"], default="none")
    p.set_defaults(fn=_cmd_constant)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=["cyclic", "square", "egz", "reiher", "lemma3n", "por2p", "conjecture"],
        required=True,
    )
    p.add_argument("--n", help="n range, e.g. 2..10 (for conjecture: the rank r; for por2p: the prime)")
    p.add_argument("--t", help="t range for the cyclic suite, e.g. 1..2")
    p.add_argument("--budget", type=int, help="node budget (default 1e8)")
    p.add_argument("--time-limit", type=float, help="wall-clock budget in seconds")
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, help="sample count for sampled suites")
    p.add_argument("--extended", action="store_true", help="include the larger square case n = 4")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (GroupParseError, SequenceParseError) as exc:
        _error("parse", str(exc))
        return 2
    except PreconditionError as exc:
        _error("precondition", str(exc))
        return 2
    except BudgetExceeded as exc:
        _error("budget", str(exc))
        return 3
    except ValueError as exc:
        _error("usage", str(exc))
        return 2
    except Exception as exc:
        # Anything else is a fault in the program: exit 1 would read as a
        # property violation, so it gets its own kind and code.
        _error("internal", f"{type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
