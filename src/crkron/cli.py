"""Command-line surface.

Plain decimal output on a single line by default; ``--json`` switches to
structured output.  Exit codes: 0 success, 1 internal failure (a broken
invariant or any other fault of the program), 2 invalid input
(``ValueError`` or a usage error), an input too deep for the recursive
search (one frame per free cell and the leaf's above the frames already in
use; refused before the search starts) or a character route over the
class budget ``characters.MAX_CLASSES`` (``selfcheck`` refuses such an
``--n`` before it checks anything);
failures print a one-line diagnostic on stderr and never a traceback.  A
reader that closes stdout early (``crkron points ... | head -1``) ends the
command quietly: exit code 0 and nothing on stderr.  The global
``--threads`` option is accepted for compatibility and has no effect: every
command runs serially.

``g``, ``lr``, ``count`` and ``points`` read their triple the same way:
``--lambda`` and ``--mu`` as partitions, then ``--nu`` as a partition
(``g``) or ``--tau`` as a composition of positive parts.  They are parsed
in that order, so the first bad input in that order is the one reported.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import product

from .characters import _MAX_CLASS_N, TooManyClasses, g_oracle, lr_oracle
from .kronecker import (
    face_term_breakdown,
    jt_expansion,
    jt_pair_expansion,
    jt_term_breakdown,
    kron_via_cr,
    kron_via_faces,
)
from .partitions import InvariantViolation, parse_composition, parse_partition, partitions_of
from .polytope import CRSystem, cone_dim, count_points, enumerate_points, polytope_dim_bound
from .tableaux import count_lr_pairs, theorem41_map


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_triple(sub, name: str, third: str, summary: str) -> argparse.ArgumentParser:
    """Declare a subcommand that reads ``--lambda``, ``--mu`` and ``--<third>``, in that order."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--lambda", dest="lam", required=True)
    cmd.add_argument("--mu", required=True)
    cmd.add_argument(f"--{third}", required=True)
    return cmd


def _read_triple(args) -> tuple:
    """Parse lambda, then mu, then nu as a partition (``g``) or tau as a
    composition, so the first bad input in that order is the one reported."""
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    return lam, mu, parse_partition(args.nu) if args.command == "g" else parse_composition(args.tau)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crkron")
    parser.add_argument("--threads", type=int, default=1, help="has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    g = _add_triple(sub, "g", "nu", "Kronecker coefficient g(lambda, mu, nu)")
    g.add_argument("--method", choices=("jt", "faces", "oracle"), default="jt")
    g.add_argument("--ell", type=int, default=1, help="shift diagonal, read by --method faces only")
    g.add_argument("--json", action="store_true")

    lr = _add_triple(sub, "lr", "tau", "Littlewood-Richardson pair count lr(lambda, mu; tau)")
    lr.add_argument("--method", choices=("polytope", "tableaux", "characters"), default="polytope")

    count = _add_triple(sub, "count", "tau", "integer points of CR(lambda, mu; tau)")
    count.add_argument("--transport", action="store_true", help="drop the column-row constraints")
    count.add_argument("--json", action="store_true")

    points = _add_triple(sub, "points", "tau", "enumerate integer points as JSON lines")
    points.add_argument("--decorate", action="store_true", help="append the tableau image")

    expand = sub.add_parser("expand", help="determinant expansion of nu")
    expand.add_argument("--nu", required=True)
    expand.add_argument("--pairs", action="store_true")

    dim = sub.add_parser("dim", help="cone dimension or polytope dimension bound")
    dim.add_argument("--p", type=int, required=True)
    dim.add_argument("--q", type=int, required=True)
    dim.add_argument("--r", type=int, required=True)
    dim.add_argument("--polytope", action="store_true")

    selfcheck = sub.add_parser("selfcheck", help="oracle-equivalence sweep up to size n")
    selfcheck.add_argument("--n", type=int, required=True)

    return parser


def _print_json(payload) -> None:
    """Print ``payload`` as one line of JSON with sorted keys.  ``json`` is
    imported on the first call, so a command without JSON output (``dim``,
    plain ``g``) never loads it."""
    import json

    print(json.dumps(payload, sort_keys=True))


def _cmd_g(args) -> int:
    lam, mu, nu = _read_triple(args)
    if args.method == "oracle":
        value = g_oracle(lam, mu, nu)
        terms = None
    elif args.method == "faces":
        value = kron_via_faces(lam, mu, nu, args.ell)
        terms = face_term_breakdown(lam, mu, nu, args.ell) if args.json else None
    else:
        value = kron_via_cr(lam, mu, nu)
        terms = jt_term_breakdown(lam, mu, nu) if args.json else None
    if args.json:
        payload = {"value": value, "method": args.method}
        if terms is not None:
            payload["terms"] = terms
        _print_json(payload)
    else:
        print(value)
    return 0


def _cmd_lr(args) -> int:
    lam, mu, tau = _read_triple(args)
    if args.method == "tableaux":
        value = count_lr_pairs(lam, mu, tau)
    elif args.method == "characters":
        value = lr_oracle(lam, mu, tau)
    else:
        value = count_points(CRSystem(lam, mu, tau))
    print(value)
    return 0


def _cmd_count(args) -> int:
    lam, mu, tau = _read_triple(args)
    system = CRSystem(lam, mu, tau, transport_only=args.transport)
    value = count_points(system)
    if args.json:
        _print_json({"count": value, "system": system.to_json_dict()})
    else:
        print(value)
    return 0


def _cmd_points(args) -> int:
    lam, mu, tau = _read_triple(args)
    system = CRSystem(lam, mu, tau)
    for tensor in enumerate_points(system):
        payload = tensor.to_json_dict()
        if args.decorate:
            q_tab, p_tab, t_multi, s_multi = theorem41_map(tensor)
            payload["image"] = {
                "Q": q_tab.to_json_dict(),
                "P": p_tab.to_json_dict(),
                "T": t_multi.to_json_dict(),
                "S": s_multi.to_json_dict(),
            }
        _print_json(payload)
    return 0


def _cmd_expand(args) -> int:
    nu = parse_partition(args.nu)
    if args.pairs:
        payload = [
            {
                "sign": t.sign,
                "a": t.a,
                "b": t.b,
                "rho": list(t.rho),
                "tau": list(t.tau),
                "tauBar": list(t.tau_bar),
            }
            for t in jt_pair_expansion(nu)
        ]
    else:
        payload = [{"sign": t.sign, "gamma": list(t.gamma)} for t in jt_expansion(nu)]
    _print_json(payload)
    return 0


def _cmd_dim(args) -> int:
    if args.polytope:
        print(polytope_dim_bound(args.p, args.q, args.r))
    else:
        print(cone_dim(args.p, args.q, args.r))
    return 0


def _cmd_selfcheck(args) -> int:
    if args.n < 2:
        raise ValueError("selfcheck needs --n >= 2")
    if args.n > _MAX_CLASS_N:
        raise TooManyClasses(args.n)  # the oracle would refuse it after every smaller n
    failures = 0
    total = 0
    for n in range(2, args.n + 1):
        parts = partitions_of(n)
        bad = []
        for triple in product(parts, repeat=3):
            values = (kron_via_cr(*triple), kron_via_faces(*triple, 1), g_oracle(*triple))
            if len(set(values)) != 1:
                bad.append((triple, values))
        for (lam, mu, nu), (via_cr, via_faces, oracle) in bad:
            print(
                f"MISMATCH g{lam, mu, nu}: polytopes={via_cr} faces={via_faces} oracle={oracle}"
            )
        failures += len(bad)
        checked = len(parts) ** 3
        total += checked
        print(f"n={n}: {checked} triples checked, {len(bad)} mismatches")
    print(f"selfcheck {'FAILED' if failures else 'OK'}: {total} triples")
    return 1 if failures else 0


_COMMANDS = {
    "g": _cmd_g,
    "lr": _cmd_lr,
    "count": _cmd_count,
    "points": _cmd_points,
    "expand": _cmd_expand,
    "dim": _cmd_dim,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # interpreter's last flush has nothing to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input too deep ({exc})", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
