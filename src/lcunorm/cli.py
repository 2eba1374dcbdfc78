"""Command-line entry point.

    lcunorm INPUT [--methods pauli,ac,...] [--shift] [--picture interaction]
            [--seed N] [--out FILE] [--format json|text|markdown]

INPUT is an FCIDUMP path or a bundled fixture name (h2, lih, beh2, h2o,
nh3).  Exit status: 0 on success, 2 on usage or input errors, 3 when a
numerical routine fails to converge.
"""

import argparse
import sys

from .errors import NumericalError, ParseError
from .pipeline import METHOD_ORDER, emit_table, run_pipeline


def build_parser():
    p = argparse.ArgumentParser(
        prog="lcunorm",
        description="LCU 1-norms of molecular electronic-structure Hamiltonians",
    )
    p.add_argument("input", nargs="+", help="FCIDUMP path or fixture name")
    p.add_argument(
        "--methods",
        default=None,
        help="comma-separated subset of: " + ", ".join(METHOD_ORDER),
    )
    p.add_argument("--shift", action="store_true", help="apply the symmetry shift")
    p.add_argument(
        "--picture",
        choices=("schrodinger", "interaction"),
        default="schrodinger",
        help="compute norms for the full Hamiltonian or the split residual",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text", "markdown"), default="text")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    methods = args.methods.split(",") if args.methods else None
    try:
        reports = [
            run_pipeline(
                source,
                methods=methods,
                shift=args.shift,
                picture=args.picture,
                seed=args.seed,
            )
            for source in args.input
        ]
        doc = emit_table(reports, fmt=args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
    except (ValueError, KeyError, OSError, ParseError) as exc:
        print(f"lcunorm: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"lcunorm: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
