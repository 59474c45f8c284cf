"""Console entry point.

BLAS thread counts must be pinned before numpy is first imported, so this
module must not import anything numpy-flavored at top level.  The package
__init__ is lazy for the same reason.
"""

from __future__ import annotations

import os
import sys

from .errors import InputError

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def blas_threads() -> int:
    """SEMIMPUTE_THREADS as a positive integer, 1 when it is not set."""
    raw = os.environ.get("SEMIMPUTE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"SEMIMPUTE_THREADS must be a positive integer, got {raw!r}")
    return n


def pin_threads() -> None:
    """Default every BLAS backend to ``blas_threads()``.

    Explicitly-set backend variables are respected.
    """
    n = str(blas_threads())
    for var in THREAD_VARS:
        os.environ.setdefault(var, n)


def main(argv: list[str] | None = None) -> int:
    try:
        pin_threads()
    except InputError as exc:
        print(f"semimpute: {exc}", file=sys.stderr)
        return 2
    from .cli import run

    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
