"""Command-line front end.

Subcommands
-----------
basis        emit Weyl-Heisenberg basis elements as matrix files
decompose    matrix file -> coefficient-table file
reconstruct  coefficient-table file -> matrix file
dilate       evolve a pure state or density matrix through a gamma dilation
channel      apply a dilation- or weight-defined channel to a density matrix
choi         compute the Choi matrix of a channel
verify       run the invariant suite and emit a report

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(including a malformed ``--tol``, which every command checks, an input file
that is not UTF-8, a JSON number beyond the float range or the int digit
limit, and an ``--out`` path that cannot be written), 3
domain-validation error, 4 out of memory.  Library functions validate their
inputs; the commands do not repeat those checks.  JSON artifacts and
summaries are built with ``numerics.json_object``, except the multi-line
verify report.  Input and output paths accept ``-`` for the standard streams.  Output artifacts are byte-deterministic for identical
inputs (the verify report's wall-time fields are measured and therefore
excluded from that guarantee).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .channels import (
    QuantumChannel,
    apply_channel,
    channel_from_dilation,
    choi_matrix,
    choi_to_json,
    is_trace_preserving,
    json_to_channel,
    weyl_channel,
)
from .config import DEFAULT_TOLERANCES, replace_tolerance
from .dilation import evolve_density, evolve_pure, json_to_gamma, weyl_form_of_joint
from .errors import DomainError, ParseError, ShapeError, ValidationError
from .numerics import (
    format_float,
    frobenius_distance,
    json_object,
    json_to_matrix,
    json_to_vector,
    matrix_to_json,
)
from .verify import D_MAX, D_MIN, DEFAULT_SEED, run_verification
from .weyl import (
    coefficients_to_json,
    decompose,
    json_to_coefficients,
    reconstruct,
    weyl_basis,
    weyl_element,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_OUT_OF_MEMORY = 4


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        if path == "-":
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        if path == "-":  # e.g. a closed pipe: point stdout at os.devnull so the flush at exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _Usage(f"cannot write {path}: {exc.strerror}") from None


def _summary(pairs: list[tuple[str, str]]) -> None:
    print(json_object(pairs), file=sys.stderr)


def _complex_cell(z: complex) -> str:
    re = 0.0 if z.real == 0.0 else z.real
    im = 0.0 if z.imag == 0.0 else z.imag
    if im == 0.0:
        return f"{re:.6g}"
    return f"{re:.6g}{'+' if im >= 0 else '-'}{abs(im):.6g}j"


def _matrix_table(m: np.ndarray) -> str:
    cells = [[_complex_cell(z) for z in row] for row in np.atleast_2d(m)]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _emit(args, m: np.ndarray, to_json=matrix_to_json) -> None:
    """Write the artifact ``m`` in the chosen format; ``to_json`` is its JSON writer."""
    _write_text(args.out, _matrix_table(m) if args.format == "table" else to_json(m))


def _check_d(d: int) -> int:
    if d < D_MIN or d > D_MAX:
        raise _Usage(f"--d must be in [{D_MIN}, {D_MAX}], got {d}")
    return d


class _Usage(Exception):
    """Usage-level failure detected after argparse; maps to exit code 2."""


def _tolerances(overrides: list[str] | None):
    tol = DEFAULT_TOLERANCES
    for item in overrides or []:
        name, sep, raw = item.partition("=")
        if not sep:
            raise _Usage(f"--tol expects name=value, got {item!r}")
        try:
            value = float(raw)
        except ValueError:
            raise _Usage(f"--tol {name}: {raw!r} is not a number") from None
        try:
            tol = replace_tolerance(tol, name, value)
        except DomainError as exc:
            raise _Usage(str(exc)) from None
    return tol


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basis(args) -> int:
    d = _check_d(args.d)
    if (args.l is None) != (args.k is None):
        raise _Usage("--l and --k must be given together")
    if args.l is not None:
        _emit(args, weyl_element(d, args.l, args.k))
        return EXIT_OK
    elements = weyl_basis(d).elements
    if args.format == "table":
        blocks = [f"(l={x // d}, k={x % d})\n{_matrix_table(w)}" for x, w in enumerate(elements)]
        _write_text(args.out, "\n\n".join(blocks))
        return EXIT_OK
    mats = ", ".join(matrix_to_json(w) for w in elements)
    _write_text(args.out, json_object([("d", str(d)), ("order", '"l-major"'), ("elements", f"[{mats}]")]))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    a = json_to_matrix(_read_text(args.input), "input matrix")
    if a.shape[0] != a.shape[1]:
        raise _Usage(f"input matrix must be square, got {a.shape[0]} x {a.shape[1]}")
    d = a.shape[0]
    if args.d is not None and args.d != d:
        raise _Usage(f"--d {args.d} does not match input matrix size {d}")
    _check_d(d)
    xi = decompose(a)
    residual = frobenius_distance(reconstruct(xi), a)
    _emit(args, xi, coefficients_to_json)
    _summary(
        [("d", str(d)), ("roundtrip_residual", format_float(residual)), ("tolerance", format_float(args.tol.norm))]
    )
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    xi = json_to_coefficients(_read_text(args.input), "coefficient table")
    _check_d(xi.shape[0])
    _emit(args, reconstruct(xi))
    return EXIT_OK


def _cmd_dilate(args) -> int:
    g = json_to_gamma(_read_text(args.gamma), tol=args.tol)
    _check_d(g.d)
    summary: list[tuple[str, str]] = [("d", str(g.d))]
    if args.density:
        if g.d > 12:
            print(
                f"warning: joint density for d={g.d} has {(g.d ** 3) ** 2} entries",
                file=sys.stderr,
            )
        rho = json_to_matrix(_read_text(args.state), "input density")
        joint = evolve_density(rho, g, tol=args.tol)
        _emit(args, joint)
        summary.append(("joint_trace", format_float(float(np.trace(joint).real))))
    else:
        psi = json_to_vector(_read_text(args.state), "input state")
        if psi.shape[0] != g.d:
            raise _Usage(f"state size {psi.shape[0]} does not match gamma d={g.d}")
        joint = evolve_pure(psi, g, tol=args.tol)
        _emit(args, joint[:, None])
        summary.append(("joint_norm", format_float(float(np.linalg.norm(joint)))))
        if args.weyl_norms:
            terms = weyl_form_of_joint(psi, g, tol=args.tol)
            norms = json_object((f"{t.l},{t.k}", format_float(float(np.linalg.norm(t.env)))) for t in terms)
            summary.append(("env_term_norms", norms))
    _summary(summary)
    return EXIT_OK


def _load_channel_source(args) -> QuantumChannel:
    sources = [name for name in ("gamma", "weights", "channel") if getattr(args, name, None)]
    if len(sources) != 1:
        raise _Usage("provide exactly one channel source (--gamma, --weights or --channel)")
    name = sources[0]
    if name == "gamma":
        g = json_to_gamma(_read_text(args.gamma), tol=args.tol)
        _check_d(g.d)
        return channel_from_dilation(g, tol=args.tol)
    if name == "weights":
        w = json_to_matrix(_read_text(args.weights), "weights table")
        if np.max(np.abs(w.imag)) > args.tol.norm:
            raise DomainError("weights table must be real (imaginary parts are not zero)")
        if w.shape[0] != w.shape[1]:
            raise _Usage(f"weights table must be square, got {w.shape[0]} x {w.shape[1]}")
        _check_d(w.shape[0])
        return weyl_channel(w.real, tol=args.tol)
    ch = json_to_channel(_read_text(args.channel))
    _check_d(ch.d)
    return ch


def _cmd_channel(args) -> int:
    ch = _load_channel_source(args)
    ok, deficit = is_trace_preserving(ch, tol=args.tol)
    if not ok:
        raise ValidationError(
            f"channel is not trace-preserving: deficit {deficit:.3e} exceeds {args.tol.cptp:.3e}"
        )
    rho = json_to_matrix(_read_text(args.rho), "input density")
    out = apply_channel(ch, rho, tol=args.tol)
    _emit(args, out)
    _summary(
        [
            ("d", str(ch.d)),
            ("kraus_count", str(len(ch))),
            ("trace_preservation_deficit", format_float(deficit)),
        ]
    )
    return EXIT_OK


def _cmd_choi(args) -> int:
    ch = _load_channel_source(args)
    j = choi_matrix(ch)
    _emit(args, j, choi_to_json)
    _, deficit = is_trace_preserving(ch, tol=args.tol)
    _summary(
        [
            ("d", str(ch.d)),
            ("choi_trace", format_float(float(np.trace(j).real))),
            ("trace_preservation_deficit", format_float(deficit)),
        ]
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    dims = []
    for part in args.d.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            dims.append(int(part))
        except ValueError:
            raise _Usage(f"--d expects a comma-separated list of integers, got {part!r}") from None
    if not dims:
        raise _Usage("--d expects at least one dimension")
    for d in dims:
        _check_d(d)
    if args.draws < 1:
        raise _Usage(f"--draws must be at least 1, got {args.draws}")
    if args.seed < 0:
        raise _Usage(f"--seed must be non-negative, got {args.seed}")
    report = run_verification(dims, seed=args.seed, draws=args.draws, inject_fault=args.inject_fault)
    text = report.to_table() if args.format == "table" else report.to_json()
    _write_text(args.out, text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", metavar="PATH", help="output path, - for stdout (default)")
    p.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (norm, herm, psd, cptp, prune; jacobi is accepted "
        "and ignored); repeatable",
    )
    p.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="artifact format: json (machine-readable, default) or a readable table",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Weyl-Heisenberg basis, qudit dilations and Kraus channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="emit basis element(s) X_l Z_k as matrix files")
    p.add_argument("--d", type=int, required=True, help="qudit dimension (2..32)")
    p.add_argument("--l", type=int, default=None, help="shift index; with --k, emit one element")
    p.add_argument("--k", type=int, default=None, help="clock index; with --l, emit one element")
    _add_common(p)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("decompose", help="decompose a matrix over the basis")
    p.add_argument("--in", dest="input", required=True, metavar="PATH", help="matrix file, - for stdin")
    p.add_argument("--d", type=int, default=None, help="expected dimension (checked against the file)")
    _add_common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild a matrix from a coefficient table")
    p.add_argument("--in", dest="input", required=True, metavar="PATH", help="coefficient file, - for stdin")
    _add_common(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("dilate", help="evolve a state through a gamma dilation")
    p.add_argument("--gamma", required=True, metavar="PATH", help="gamma table file")
    p.add_argument("--state", required=True, metavar="PATH", help="state vector (or density with --density)")
    p.add_argument("--density", action="store_true", help="treat the state file as a density matrix")
    p.add_argument("--weyl-norms", action="store_true", help="report the environment term norms ||v_lk||")
    _add_common(p)
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("channel", help="apply a channel to a density matrix")
    p.add_argument("--gamma", metavar="PATH", help="gamma table defining a dilation channel")
    p.add_argument("--weights", metavar="PATH", help="real (d, d) matrix file of Weyl weights")
    p.add_argument("--channel", metavar="PATH", help="explicit Kraus channel file")
    p.add_argument("--rho", required=True, metavar="PATH", help="input density matrix file")
    _add_common(p)
    p.set_defaults(handler=_cmd_channel)

    p = sub.add_parser("choi", help="compute the Choi matrix of a channel")
    p.add_argument("--gamma", metavar="PATH", help="gamma table defining a dilation channel")
    p.add_argument("--weights", metavar="PATH", help="real (d, d) matrix file of Weyl weights")
    p.add_argument("--channel", metavar="PATH", help="explicit Kraus channel file")
    _add_common(p)
    p.set_defaults(handler=_cmd_choi)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--d", required=True, metavar="LIST", help="comma-separated dimensions, e.g. 2,3,5")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed recorded in the report")
    p.add_argument("--draws", type=int, default=10, help="random draws per randomized check")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map exceptions to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tol = _tolerances(args.tol)
        return args.handler(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


def main(argv=None) -> None:
    raise SystemExit(run(argv))
