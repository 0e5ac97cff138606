#!/usr/bin/env python3
"""Print residual-decay tables for the asymptotic identities.

For a chosen pair of operands this shows, per N in a doubling schedule, the
defect of the double-shuffle identity under the truncated evaluation and the
normalization residual * N / log^a N for the fitted exponent a.  It exits 0
when an exponent qualifies and 1 when none does; a bad operand or schedule
prints an error and exits 2.
"""

import argparse
import math
import sys

from mzvkit.algebra import Index, LinComb, harmonic, shuffle
from mzvkit.cli import _parse_schedule
from mzvkit.errors import DomainError
from mzvkit.numeric import fit_log_rate, zn_apply_f


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--w1", default="1", help="left index, e.g. '1' or '1,2'")
    parser.add_argument("--w0", default="2", help="right (admissible) index")
    parser.add_argument("--lo", type=int, default=16)
    parser.add_argument("--hi", type=int, default=1 << 16)
    args = parser.parse_args(argv)

    try:
        k1 = Index.parse(args.w1)
        k0 = Index.parse(args.w0)
        schedule = _parse_schedule(f"{args.lo}:{args.hi}")
        diff = harmonic(LinComb.of_index(k1), LinComb.of_index(k0)) - shuffle(
            LinComb.of_index(k1), LinComb.of_index(k0)
        )
        residuals = [(n, abs(value)) for n, value in zip(schedule, zn_apply_f(diff, schedule, "plain"))]
        fit = fit_log_rate(residuals, a_max=k1.weight + k0.weight + 1)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    a = fit.fitted_log_exponent if fit.ok else 0

    print(f"defect of ({k1}) * ({k0}) vs shuffle, {len(diff)} terms")
    print(f"{'N':>8}  {'residual':>14}  {'residual*N/log^a N':>20}")
    for n, r in residuals:
        print(f"{n:>8}  {r:>14.6e}  {r * n / math.log(n) ** a:>20.6f}")
    if not fit.ok:
        print("no exponent qualified; the residuals do not decay like N^-1 log^a N")
        return 1
    print(f"fitted exponent a = {a}, bounded constant = {fit.bounded_constant:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
