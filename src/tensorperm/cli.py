"""Command-line interface.

Subcommands: gen (emit a matrix), verify (run the property suite for one
spec), classify (swap labels of an order), decompose (swap matrix over the
Gell-Mann products), apply (permute a vector file), bench (implicit apply
vs dense matvec).

Exit codes: 0 success, 2 usage or validation error, 3 capacity error.
Diagnostics go to stderr; stdout carries data only.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache, partial, reduce

import numpy as np

from .index_algebra import DimList, Sigma, _check_implicit, induced_index_perm
from .matrix_core import DEFAULT_DENSE_BOUND, CapacityError, _check_capacity, kron
from .perm_matrix import (
    TensorPermSpec,
    apply as apply_perm,
    build_delta,
    build_elementary_sum,
    build_stride_rule,
    commutation_conjugation_check,
    is_permutation_matrix,
)
from .gellmann import decompose_swap
from . import formats

_VERIFY_SAMPLES = 25
_VERIFY_SEED = 20240311


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(formats.parse_int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of integers, got {text!r}")


def _int_arg(text: str) -> int:
    # argparse prints ArgumentTypeError's text as is: here, type=int's
    try:
        return formats.parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _tolerance_arg(text: str) -> float:
    # the vector-entry rule, then a float that is finite and not negative
    try:
        value = formats.parse_scalar(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value <= sys.float_info.max:  # also false for nan
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return float(value)


def _spec_from_args(args) -> TensorPermSpec:
    dims = DimList(_parse_int_list(args.dims, "--dims"))
    if args.sigma is None:
        sigma = Sigma.reversal(len(dims))
    else:
        sigma = Sigma(_parse_int_list(args.sigma, "--sigma"))
    return TensorPermSpec(dims, sigma)


def _emit(chunks, output: str | None) -> None:
    # pieces are written as they come, so a large output is never held whole
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.writelines(chunks)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    if args.format == "perm":
        chunks = formats._perm_chunks(induced_index_perm(spec.dims, spec.sigma))
    else:
        dense = build_delta(spec, dense_bound=args.dense_bound)
        if args.format == "mm":
            chunks = [formats.write_matrix_market(dense)]
        elif args.format == "dense":
            chunks = [formats.write_dense(dense)]
        else:
            chunks = [formats.write_blocks(dense, block=spec.dims.dims[-1])]
    _emit(chunks, args.output)
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    rng = np.random.default_rng(_VERIFY_SEED)
    dims = spec.dims.dims
    sigma = spec.sigma

    dense = build_delta(spec, dense_bound=args.dense_bound)
    agree = np.array_equal(dense, build_elementary_sum(spec, dense_bound=args.dense_bound))
    if len(dims) == 2 and sigma.mapping == (2, 1):
        try:
            agree = agree and np.array_equal(
                dense, build_stride_rule(dims[0], dims[1], dense_bound=args.dense_bound)
            )
        except RuntimeError:  # the stride walk disagrees with its closed form
            agree = False

    kron_within_bound = partial(kron, dense_bound=args.dense_bound)

    def draw(shape):
        # size-1 factors scale both sides alike; as [[1]], any number fits int64
        return rng.integers(-9, 10, shape) if shape[0] > 1 else np.ones(shape, dtype=np.int64)

    relocation = True
    for _ in range(_VERIFY_SAMPLES):
        vecs = [draw((d, 1)) for d in dims]
        got = apply_perm(spec, reduce(kron_within_bound, vecs).ravel())
        want = reduce(kron_within_bound, [vecs[s - 1] for s in sigma.mapping]).ravel()
        relocation = relocation and np.array_equal(got, want)

    conjugation = all(
        commutation_conjugation_check(spec, [draw((d, d)) for d in dims],
                                      dense_bound=args.dense_bound)
        for _ in range(_VERIFY_SAMPLES)
    )

    # the dual side is built without the index, so a wrong index shows here
    dual_spec = TensorPermSpec(spec.dims.permuted(sigma), sigma.inverse())
    duality = np.array_equal(dense.T, build_elementary_sum(dual_spec, dense_bound=args.dense_bound))

    checks = [
        ("constructor-agreement", agree),
        ("vector-relocation", relocation),
        ("matrix-conjugation", conjugation),
        ("transpose-duality", duality),
        ("permutation-shape", is_permutation_matrix(dense)),
    ]
    for name, ok in checks:
        print(("PASS" if ok else "FAIL"), name)
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_classify(args) -> int:
    order = args.order
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    _check_capacity(order, args.dense_bound)
    _check_implicit(order)  # the bound on every swap's index permutation
    # U[1(x)N] = U[N(x)1] is the identity; for n, p >= 2, U[n(x)p] holds row
    # 1's 1 in column p, so no other two swaps of one order coincide
    for n in range(1, order + 1):
        if order % n == 0:
            p = order // n
            if n == 1 or p == 1:
                print(f"{n}x{p} identity" + (f" = {p}x{n}" if order > 1 else ""))
            else:
                print(f"{n}x{p}")
    return 0


def _cmd_decompose(args) -> int:
    dec = decompose_swap(args.n, dense_bound=args.dense_bound)
    sys.stdout.write(formats.write_decomposition(dec, tol=args.tolerance))
    return 0


def _cmd_apply(args) -> int:
    spec = _spec_from_args(args)
    _check_implicit(spec.size)  # before reading a vector that could never fit
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    # one rule for a file and stdin: the decode refuses a non-ASCII byte, and
    # bytes.split, unlike str.split, splits on ASCII whitespace only, so
    # \x1c-\x1f stay inside a token
    data.decode("ascii")
    values = [formats.parse_scalar(tok.decode()) for tok in data.split()]
    print("\n".join(map(formats.format_scalar, apply_perm(spec, values))))
    return 0


def _cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    size = spec.size
    _check_implicit(size)  # before allocating a vector that could never fit
    vec = np.arange(1, size + 1, dtype=np.int64)

    apply_perm(spec, vec)  # warm up before timing
    t0 = time.perf_counter_ns()
    for _ in range(args.reps):
        apply_perm(spec, vec)
    implicit_ns = max((time.perf_counter_ns() - t0) // args.reps, 1)
    print(f"implicit apply: {implicit_ns} ns/application ({args.reps} reps)")

    if size <= args.dense_bound:
        dense = build_delta(spec, dense_bound=args.dense_bound)
        dense @ vec
        t0 = time.perf_counter_ns()
        for _ in range(args.reps):
            dense @ vec
        dense_ns = max((time.perf_counter_ns() - t0) // args.reps, 1)
        print(f"dense matvec: {dense_ns} ns/application ({args.reps} reps)")
        print(f"dense/implicit ratio: {dense_ns / implicit_ns:.2f}x")
        dense_field = str(dense_ns)
    else:
        print(
            f"dense path skipped: order {size} exceeds dense bound {args.dense_bound}",
            file=sys.stderr,
        )
        dense_field = "skipped"
    print(f"bench dims={args.dims} implicit_ns={implicit_ns} dense_ns={dense_field}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorperm",
        description="Construct, apply, verify, and decompose tensor permutation matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_spec_flags(p, sigma_help="permutation as the image list sigma(1),...,sigma(k); defaults to the full reversal"):
        p.add_argument("--dims", required=True, help="comma-separated factor dimensions, e.g. 3,2")
        p.add_argument("--sigma", default=None, help=sigma_help)

    def add_bound_flag(p):
        p.add_argument("--dense-bound", type=_int_arg, default=DEFAULT_DENSE_BOUND,
                       help="largest dense order allowed (default %(default)s)")

    p = sub.add_parser("gen", help="emit a tensor permutation matrix")
    add_spec_flags(p)
    p.add_argument("--format", choices=("mm", "perm", "dense", "blocks"), default="perm")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    add_bound_flag(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run the property suite for one spec")
    add_spec_flags(p)
    add_bound_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="list the swap labels of an order")
    p.add_argument("--order", type=_int_arg, required=True)
    add_bound_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decompose", help="expand the swap matrix over basis products")
    p.add_argument("--n", type=_int_arg, required=True, help="factor dimension (>= 2)")
    p.add_argument("--tolerance", type=_tolerance_arg, default=1e-10,
                   help="omit coefficients at or below this magnitude (default %(default)s)")
    add_bound_flag(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("apply", help="permute a vector read from a file")
    add_spec_flags(p)
    p.add_argument("--input", required=True, help="vector file, one entry per line ('-' for stdin)")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("bench", help="time implicit apply against dense matvec")
    add_spec_flags(p)
    p.add_argument("--reps", type=_int_arg, default=100)
    add_bound_flag(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's names the allocation it refused; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
