"""The benchmark's workloads: operations on zerosum and the checks of their outputs.

An operation is one user-visible unit of work (one CLI command, or one
sequence taken through the library calls a user would make on it). Its
`call` returns a plain value that later rounds must reproduce exactly, and
its `check` compares that value with the independent computations in
`checkers`, raising CheckFailed when they disagree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

import checkers as ck
from checkers import require


class OpFailed(RuntimeError):
    """The program refused the operation (an error exit or exception)."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _strip_wall(value):
    """JSON output with the wall-clock fields removed, so rounds compare."""
    if isinstance(value, dict):
        return {k: _strip_wall(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [_strip_wall(v) for v in value]
    return value


def cli_json(zs, argv: list[str]) -> dict:
    """Run `zerosum --format json <argv>` in this process; exit 1 is a wrong
    answer and is returned for the check, other non-zero exits fail the op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zs.cli.main(["--format", "json", *argv])
    if code not in (0, 1):
        raise OpFailed(f"zerosum {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    payload = _strip_wall(json.loads(out.getvalue()))
    payload["exit_code"] = code
    return payload


# ---------------------------------------------------------------------------
# scan and scan-pool: brute-force determinations of s'(G, t)

SCAN_CASES = [("Z/2^4", 2), ("Z/4^2", 4), ("Z/8", 16)]


def _constant_argv(group: str, t: int, workers: int) -> list[str]:
    return [
        "constant", "--group", group, "--t", str(t),
        "--claimed-from", "formula", "--workers", str(workers),
    ]


def _check_constant(group: str, t: int, out: dict) -> None:
    report = out["report"]
    moduli = ck.parse_group_text(group)
    value = ck.expected_constant(moduli, t)
    require(out["exit_code"] == 0, f"{group} t={t}: exit code {out['exit_code']}")
    require(report["computed_value"] == value, f"{group} t={t}: computed {report['computed_value']}, closed form {value}")
    require(report["claimed_value"] == value, f"{group} t={t}: claimed {report['claimed_value']}, closed form {value}")
    w_moduli, witness = ck.parse_sequence_text(report["extremal_witness"])
    require(w_moduli == moduli, f"{group}: witness over {w_moduli}")
    require(sum(witness.values()) == value - 1, f"{group} t={t}: witness length {sum(witness.values())}, not {value - 1}")
    require(ck.is_zero_sum(moduli, witness), f"{group} t={t}: witness is not zero-sum")
    require(ck.count_zero_sum(moduli, witness, t) == 0, f"{group} t={t}: witness has a zero-sum subsequence of length {t}")


def scan_ops(zs, rng: random.Random, workers: int) -> list[Op]:
    ops = []
    for group, t in SCAN_CASES:
        argv = _constant_argv(group, t, workers)

        def check(out, group=group, t=t):
            _check_constant(group, t, out)
            if workers > 1:
                serial = cli_json(zs, _constant_argv(group, t, 1))
                require(out == serial, f"{group} t={t}: {workers} workers differ from 1 worker")

        ops.append(Op(f"constant {group} t={t}", lambda argv=argv: cli_json(zs, argv), check))
    return ops


def scan_warmup(zs, workers: int) -> None:
    cli_json(zs, _constant_argv("Z/2^2", 2, workers))


# ---------------------------------------------------------------------------
# lemmas: the verify suites for the congruence lemma and the 3n lemma

POR2P_SAMPLES = 200
LEMMA3N_SAMPLES = 100


def _check_por2p(p: int, out: dict) -> None:
    (report,) = out["reports"]
    require(out["exit_code"] == 0 and report["passed"], f"por2p p={p}: not passed")
    require(report["violations"] == 0, f"por2p p={p}: {report['violations']} violations")
    if p == 2:
        moduli = (2, 2)
        drawn = hypothesis = 0
        for size in (3 * p - 2, 3 * p - 1):
            drawn += ck.count_multisets(moduli, size, zero_sum_only=False)
            for combo in _multisets(moduli, size):
                if ck.count_zero_sum(moduli, combo, p) == 0:
                    hypothesis += 1
                    require(ck.count_zero_sum(moduli, combo, 2 * p, modulus=p) == p - 1, f"por2p fails on {combo}")
        require(report["checked"] + report["vacuous"] == drawn, f"por2p p=2: {report['checked'] + report['vacuous']} multisets, expected {drawn}")
        require(report["checked"] == hypothesis, f"por2p p=2: {report['checked']} hypothesis cases, expected {hypothesis}")
    else:
        require(report["checked"] == 2 * POR2P_SAMPLES, f"por2p p={p}: {report['checked']} hypothesis cases, expected {2 * POR2P_SAMPLES}")


def _multisets(moduli, size):
    for combo in itertools.combinations_with_replacement(ck.all_elements(moduli), size):
        counts: ck.Counts = {}
        for el in combo:
            counts[el] = counts.get(el, 0) + 1
        yield counts


def _check_lemma3n(n: int, out: dict) -> None:
    (report,) = out["reports"]
    require(out["exit_code"] == 0 and report["passed"], f"lemma3n n={n}: not passed")
    require(report["violations"] == 0, f"lemma3n n={n}: {report['violations']} violations")
    if n <= 3:
        expected = ck.count_multisets((n, n), 3 * n, zero_sum_only=True)
    else:
        expected = LEMMA3N_SAMPLES
    require(report["checked"] == expected, f"lemma3n n={n}: checked {report['checked']}, expected {expected}")


def lemma_ops(zs, rng: random.Random) -> list[Op]:
    seed = str(rng.randrange(2**31))
    ops = []
    for p in (2, 3):
        argv = ["verify", "--suite", "por2p", "--n", str(p), "--seed", seed]
        if p > 2:
            argv += ["--samples", str(POR2P_SAMPLES)]
        ops.append(Op(f"por2p p={p}", lambda argv=argv: cli_json(zs, argv), lambda out, p=p: _check_por2p(p, out)))
    for n in (2, 3, 4, 6):
        argv = ["verify", "--suite", "lemma3n", "--n", str(n), "--seed", seed]
        if n > 3:
            argv += ["--samples", str(LEMMA3N_SAMPLES)]
        ops.append(Op(f"lemma3n n={n}", lambda argv=argv: cli_json(zs, argv), lambda out, n=n: _check_lemma3n(n, out)))
    return ops


def lemma_warmup(zs) -> None:
    cli_json(zs, ["verify", "--suite", "lemma3n", "--n", "2"])


# ---------------------------------------------------------------------------
# extract: library calls on random sequences at each extractor's hypothesis


EXTRACT_SEQUENCES = 3


def _random_zero_sum(rng: random.Random, moduli: tuple[int, ...], length: int) -> ck.Counts:
    els = [tuple(rng.randrange(q) for q in moduli) for _ in range(length - 1)]
    els.append(tuple(-sum(e[a] for e in els) % q for a, q in enumerate(moduli)))
    counts: ck.Counts = {}
    for el in els:
        counts[el] = counts.get(el, 0) + 1
    return counts


def _witness_counts(w) -> dict | None:
    return None if w is None else dict(w.counts)


def _extract_cases():
    """(label, moduli, sequence length, witness length, extractor call) at
    each extractor's hypothesis length."""
    cases = []
    for n in (6, 10, 12, 18, 24, 30):
        for t in (1, 2):
            length = ck.closed_form_cyclic(n, t)
            cases.append((f"nt n={n} t={t}", (n,), length, n * t, lambda x, s, t=t: x.extract_cyclic_nt(s, t)))
    for n, d in ((12, 3), (20, 4), (30, 5)):
        cases.append((f"block n={n} d={d}", (n,), 2 * n - d, n, lambda x, s, d=d: x.extract_cyclic_block(s, d)))
    for n in (4, 6, 8, 9):
        cases.append((f"square3n n={n}", (n, n), 3 * n, n, lambda x, s: x.extract_square_3n(s)))
    for n in (6, 8, 9):
        length = ck.closed_form_square(n)
        cases.append((f"squaren n={n}", (n, n), length, n, lambda x, s: x.extract_square_n(s)))
    for n, d in ((6, 2), (8, 4), (9, 3)):
        cases.append((f"squareblock n={n} d={d}", (n, n), 4 * n - d, n, lambda x, s, d=d: x.extract_square_block(s, d)))
    return cases


def _extract_op(zs, label, moduli, counts, k, extractor) -> Op:
    n = moduli[0]

    def call():
        seq = zs.sequences.Sequence(zs.groups.make_group(list(moduli)), counts)
        return (
            _witness_counts(extractor(zs.extractors, seq)),
            _witness_counts(zs.engine.find_zero_sum_subseq(seq, k)),
            zs.engine.count_zero_sum_subseqs(seq, k),
            zs.engine.count_zero_sum_subseqs(seq, k, modulus=n),
        )

    def check(out):
        extracted, found, count, count_mod = out
        expected = ck.count_zero_sum(moduli, counts, k)
        require(extracted is not None, f"{label}: extractor returned nothing")
        ck.check_witness(moduli, counts, extracted, k)
        require((found is None) == (expected == 0), f"{label}: find says {found}, count is {expected}")
        if found is not None:
            ck.check_witness(moduli, counts, found, k)
        require(count == expected, f"{label}: count {count}, expected {expected}")
        require(count_mod == expected % n, f"{label}: count mod {n} is {count_mod}, expected {expected % n}")

    return Op(f"extract {label}", call, check)


def _extremal_op(zs, label, moduli, build, forbidden, value) -> Op:
    def call():
        seq = build(zs.constructions)
        report = zs.constructions.validate_extremal(seq, [forbidden])
        found = zs.engine.find_zero_sum_subseq(seq, forbidden)
        return (dict(seq.counts), report.zero_sum, report.has_forbidden_witness, report.valid, _witness_counts(found))

    def check(out):
        counts, zero_sum, has_witness, valid, found = out
        require(sum(counts.values()) == value - 1, f"{label}: length {sum(counts.values())}, expected {value - 1}")
        require(ck.is_zero_sum(moduli, counts), f"{label}: not zero-sum")
        expected = ck.count_zero_sum(moduli, counts, forbidden)
        require(expected == 0, f"{label}: has {expected} zero-sum subsequences of length {forbidden}")
        require(zero_sum and valid and not has_witness, f"{label}: validation says {(zero_sum, has_witness, valid)}")
        require(found is None, f"{label}: find returned {found}")

    return Op(f"construct {label}", call, check)


def extract_ops(zs, rng: random.Random) -> list[Op]:
    ops = []
    for label, moduli, length, k, extractor in _extract_cases():
        for i in range(EXTRACT_SEQUENCES):
            counts = _random_zero_sum(rng, moduli, length)
            ops.append(_extract_op(zs, f"{label} #{i}", moduli, counts, k, extractor))
    for n in (6, 10, 12, 30):
        for t in (1, 2):
            ops.append(_extremal_op(
                zs, f"cyclic n={n} t={t}", (n,), lambda c, n=n, t=t: c.build_cyclic_extremal(n, t),
                n * t, ck.closed_form_cyclic(n, t),
            ))
    for n in (4, 5, 6, 8, 9):
        ops.append(_extremal_op(
            zs, f"square n={n}", (n, n), lambda c, n=n: c.build_square_extremal(n),
            n, ck.closed_form_square(n),
        ))
    for r in (2, 3, 4, 5):
        ops.append(_extremal_op(
            zs, f"power2 r={r}", (2,) * r, lambda c, r=r: c.build_power2_extremal(1, r),
            2, ck.closed_form_power2(r),
        ))
    return ops


def extract_warmup(zs) -> None:
    seq = zs.sequences.parse_sequence("Z/6: 0^4 1^4 2^4")
    zs.extractors.extract_cyclic_nt(seq, 1)
    zs.engine.count_zero_sum_subseqs(seq, 6)


@dataclass
class Workload:
    make_ops: Callable  # (zs, rng) -> list[Op]
    warmup: Callable  # (zs) -> None
    workers: int = 1


WORKLOADS = {
    "scan": Workload(lambda zs, rng: scan_ops(zs, rng, 1), lambda zs: scan_warmup(zs, 1)),
    "scan-pool": Workload(lambda zs, rng: scan_ops(zs, rng, 2), lambda zs: scan_warmup(zs, 2), workers=2),
    "lemmas": Workload(lemma_ops, lemma_warmup),
    "extract": Workload(extract_ops, extract_warmup),
}
