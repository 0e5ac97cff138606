"""Command-line interface.

``verify <claim>`` and ``verify all`` share one runner,
:func:`mzvkit.verification.run_all`, which checks the claim, makes the report
directory, runs the campaigns, prints one line per claim and writes the reports.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from decimal import Decimal

from . import finite_sums as fs
from . import numeric as num
from . import regularization as reg
from .algebra import Index, LinComb, Word, harmonic, shuffle
from .errors import CapExceededError, DomainError
from .verification import CampaignConfig, run_all


# The exact DP builds one row per chain step, and row i holds N integers of
# about 1.44 * (exponent sum of the first i steps) * N bits, so time and
# memory grow like N^2 times the summed prefix exponents.  The cap is flat
# (1,2) at N = 10^4 (6 * 10^8, about 6 s and 160 MB); plain (1,1,1,1,1,1)
# reaches it at N = 5345 (about 4 s and 140 MB), and flat (1,2) at N = 10^5
# runs for minutes.
SUM_COST_CAP = 6 * 10_000 ** 2

# The star decomposition of an index that ends in 1 recurses through the
# harmonic products of its words with e1 and memoizes reg of every word it
# reaches, so its cost follows the weight: about 3x per unit.  (1^13) takes
# about 0.7 s and 68 MB, (1^14) and (2,1^12) about 2 s and 140 MB, and (1^16)
# 22 s and 865 MB.  An admissible index costs about 0 ms.
STAR_WEIGHT_CAP = 14

# The shuffle decomposition of the word v.e0.e1^n memoizes v' sh e1^j for
# every prefix v' of v and every j <= n, and reg of v.e0.e1^m for every
# m <= n.  Its time and memory follow (|v| + 1) * C(z + n + 2, n), z being the
# number of e0 in v: about 0.4-0.5 us and 34-42 bytes per unit above 10^6.
# The cap admits (3^7,1^7) (3.6 * 10^6: 1.4 s, 179 MB) and refuses
# (2^10,1^10) (7.1 * 10^6: 2.5 s, 270 MB) and (2^4,1^80), which needs more
# than 1.5 GB.  An admissible index costs its weight.
SHUFFLE_COST_CAP = 4 * 10 ** 6


def parse_operand(text: str) -> LinComb:
    """Parse a word-or-index operand.

    "index:..." and "word:..." force an interpretation; otherwise strings made
    of 0/1 characters parse as words and anything else as a comma-separated
    index.  (A one-part index such as "10" needs the explicit prefix.)
    """
    if text.startswith("index:"):
        return LinComb.of_index(Index.parse(text[len("index:"):]))
    if text.startswith("word:"):
        return LinComb.of_word(Word.parse(text[len("word:"):]))
    if text == "" or set(text) <= {"0", "1"}:
        return LinComb.of_word(Word.parse(text))
    return LinComb.of_index(Index.parse(text))


def _parse_schedule(text: str) -> tuple[int, ...]:
    """Parse "a:b" into the doubling schedule a, 2a, 4a, ..., <= b."""
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise DomainError(f"schedule syntax is 'a:b', got {text!r}") from exc
    if lo < 2 or hi < lo:
        raise DomainError("schedule bounds must satisfy 2 <= a <= b")
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvkit",
        description="Word-algebra products, exact truncated zeta sums, "
        "regularization polynomials, and verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_product = sub.add_parser("product", help="harmonic or shuffle product of two operands")
    p_product.add_argument("--op", choices=("harmonic", "shuffle"), required=True)
    p_product.add_argument("left", help="word (over 0/1) or index (comma-separated)")
    p_product.add_argument("right")

    p_sum = sub.add_parser("sum", help="exact truncated sum of an index or R-args")
    p_sum.add_argument("--kind", choices=(*fs.VARIANTS, "r"), default="plain")
    p_sum.add_argument("target", help="index like '1,2', or 'a1,..;b1,..' for --kind r")
    p_sum.add_argument("--n", type=int, required=True, dest="n_value")

    p_reg = sub.add_parser("regularize", help="decompose an index word into an H0 polynomial in T")
    p_reg.add_argument("--op", choices=("star", "sh"), required=True)
    p_reg.add_argument("index")

    p_mzv = sub.add_parser("mzv", help="numeric value of an admissible index")
    p_mzv.add_argument("index")
    p_mzv.add_argument("--tol", type=float, default=num.DEFAULT_MZV_TOL)

    p_verify = sub.add_parser("verify", help="run one claim campaign or all of them")
    p_verify.add_argument("claim", help="a claim id or 'all'")
    p_verify.add_argument("--max-weight", type=int, default=None)
    p_verify.add_argument("--n-schedule", type=str, default=None, help="'a:b' doubling schedule")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", type=str, default=None, help="directory for report files")
    p_verify.add_argument("--format", choices=("json", "csv"), default=None)

    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    fields = {
        "max_weight": args.max_weight,
        "n_schedule": None if args.n_schedule is None else _parse_schedule(args.n_schedule),
        "seed": args.seed,
        "out_dir": args.out,
        "out_format": args.format,
    }
    try:
        return CampaignConfig(**{name: value for name, value in fields.items() if value is not None})
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _cmd_product(args: argparse.Namespace) -> int:
    op = harmonic if args.op == "harmonic" else shuffle
    result = op(parse_operand(args.left), parse_operand(args.right))
    print(json.dumps(result.serialize()))
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    # the cost reads the exponents, not the chain: a flat or natural chain has
    # one step of exponent 1 per unit of weight, so building it first would
    # let a huge part exhaust memory before the cap refuses it
    if args.kind == "r":
        r_args = fs.RArgs.parse(args.target)
        prefix_sums = sum(itertools.accumulate(a + b for a, b in zip(r_args.a, r_args.b)))
    else:
        k = Index.parse(args.target)
        prefix_sums = sum(itertools.accumulate(k.parts)) if args.kind == "plain" else k.weight * (k.weight + 1) // 2
    # lcm(1..N-1) alone costs like N^2, so the empty index counts as 1
    cost = max(prefix_sums, 1) * args.n_value ** 2
    if cost > SUM_COST_CAP:
        raise CapExceededError(
            f"exact sum refused: N^2 * prefix exponent sums = {cost} at N={args.n_value} (cap {SUM_COST_CAP})"
        )
    if args.kind == "r":
        value = fs.r_value(r_args, args.n_value)
    else:
        value = fs.evaluate_chain(fs.VARIANTS[args.kind](k), args.n_value)
    # Decimal converts without Python's limit on int -> str digits, which the
    # numerator and denominator pass from about N = 3000
    print(f"{Decimal(value.numerator)}/{Decimal(value.denominator)}")
    return 0


def _shuffle_cost(k: Index) -> int:
    """(|v| + 1) * C(z + n + 2, n) for the word v.e0.e1^n of k, z being the number of e0 in v; 0 for (1^n)."""
    head = list(k.parts)
    while head and head[-1] == 1:
        head.pop()
    n, weight = len(k.parts) - len(head), sum(head)
    return weight * math.comb(weight - len(head) + n + 1, n)


def _cmd_regularize(args: argparse.Namespace) -> int:
    k = Index.parse(args.index)
    if args.op == "star" and not k.admissible and k.weight > STAR_WEIGHT_CAP:
        raise CapExceededError(
            f"star regularization refused: index ({k}) ends in 1 and has weight {k.weight} (cap {STAR_WEIGHT_CAP})"
        )
    if args.op == "sh" and (cost := _shuffle_cost(k)) > SHUFFLE_COST_CAP:
        raise CapExceededError(
            f"shuffle regularization refused: index ({k}) costs {cost} (cap {SHUFFLE_COST_CAP})"
        )
    poly = reg.z_star_polynomial(k) if args.op == "star" else reg.z_shuffle_polynomial(k)
    print(json.dumps(poly.serialize()))
    return 0


def _cmd_mzv(args: argparse.Namespace) -> int:
    value = num.mzv(Index.parse(args.index), args.tol)
    print(json.dumps(value.serialize()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _, status = run_all(_config_from_args(args), args.claim, echo=print)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    handlers = {
        "product": _cmd_product,
        "sum": _cmd_sum,
        "regularize": _cmd_regularize,
        "mzv": _cmd_mzv,
        "verify": _cmd_verify,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except (DomainError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (``mzvkit verify all | head -1``); point
        # stdout at devnull so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
