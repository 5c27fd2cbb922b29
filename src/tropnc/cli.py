"""Command-line front end: JSON pipelines over the core operations.

Every subcommand is a thin shell around exactly one core operation.
`main` decodes the input with the library's own strict loader
(`pluecker.from_json_dict`, `ncfan.from_json_dict`), applies the
desk-scale guard to its (k, n) once for every command, runs the command
and writes its JSON payload.  `verify`, which visits every maximal cone,
also refuses past `VERIFY_MAX_CONES` cones unless given --force.  Each
subcommand takes only the options it reads.  Rationals travel as "p/q"
strings (never floats), outputs are deterministic given the same input
and seed, and exit codes are 0 = pass, 1 = mathematical failure, 2 =
usage or schema error.  `main` turns a `ValueError` or `InvariantError`
raised by any layer, and the vertex walk overrunning `BOUNDED_BUDGET_S`,
into exit 1 with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import ladder, ncfan, planar, pluecker, troplin, weight
from .combinat import _maximal_cone_count, noncyclic_subsets
from .exact import InvariantError, SchemaError, format_fraction
from .ncfan import TPoint

# Wall-clock budget of the vertex walk behind `bounded` and `diameter`;
# overrunning it is exit 1 with one error line.
BOUNDED_BUDGET_S = 60.0

# `verify` visits every maximal cone of the fan; past this many (the count
# at (4,8)) it needs --force.
VERIFY_MAX_CONES = 24024


def _unique_keys(pairs) -> dict:
    # json.load keeps the last of two equal keys; a repeated entry label
    # would silently replace the first value.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError("", f"key {key!r} given twice")
        obj[key] = value
    return obj


def _read_json(path: str):
    # Bytes, so that text that is not UTF-8 is a schema error, not a crash.
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # past Python's digit limit for int conversion.
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return json.loads(data, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError("", f"invalid JSON: {exc}") from None


def _emit(payload: dict, path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_kn(k: int, n: int, force: bool, pointer: str):
    if not (2 <= k <= n - 2):
        raise SchemaError(pointer, f"need 2 <= k <= n-2, got k={k}, n={n}")
    desk_scale = k <= 6 and n <= 12 and math.comb(n, k) <= 1000
    if not desk_scale and not force:
        raise SchemaError(
            pointer, f"(k,n)=({k},{n}) beyond the desk-scale default; pass --force"
        )


def _duality_failures(ncyc, vectors) -> list[dict]:
    """Pairs (J, K) with u_J of the vector of K off the identity matrix,
    compared in scaled integers; a `Fraction` is built only for a failure."""
    expansions = [planar._scaled_expansion(pi) for pi in vectors]
    failures = []
    for j, J in enumerate(ncyc):
        for i, K in enumerate(ncyc):
            us, scale = expansions[i]
            if us[j] != (scale if i == j else 0):
                value = format_fraction(Fraction(us[j], scale))
                failures.append({"u": J.label(), "ray": K.label(), "value": value})
    return failures


def cmd_duality(args):
    ncyc = noncyclic_subsets(args.k, args.n)
    failures = _duality_failures(ncyc, [ladder.rho(ncfan.t_vector(K)) for K in ncyc])
    payload = {"k": args.k, "n": args.n, "size": len(ncyc)}
    return (0 if not failures else 1), {**payload, "ok": not failures, "failures": failures}


def cmd_decompose(t: TPoint):
    return 0, ncfan.tableau_to_json_dict(ncfan.nc_decompose(t))


def cmd_weight(pi: pluecker.PlueckerVector):
    report = weight.weight_report(pi)
    return (0 if report.agree else 1), report.to_json_dict()


def cmd_psi(pi: pluecker.PlueckerVector):
    return 0, ncfan.to_json_dict(ncfan.psi(pi))


def cmd_rho(t: TPoint):
    return 0, pluecker.to_json_dict(ladder.rho(t))


def _bounded_complex(pi: pluecker.PlueckerVector, balance: bool):
    """Vertices and edges of the bounded complex of a positive vector, at
    its balanced representative when `balance` (then exit 1 unless the
    complex sits inside the weight dilate)."""
    report, edges = troplin._complex_with_edges(pi, balance, BOUNDED_BUDGET_S)
    code = 1 if balance and not report.within_dilate else 0
    return code, report.to_json_dict(edges=edges)


def cmd_bounded(pi: pluecker.PlueckerVector):
    return _bounded_complex(pi, balance=False)


def cmd_diameter(pi: pluecker.PlueckerVector):
    return _bounded_complex(pi, balance=True)


def _verify_checks(k: int, n: int, seed: int):
    rng = random.Random(seed)
    ncyc = noncyclic_subsets(k, n)

    def random_tpoint() -> TPoint:
        return TPoint.of(
            k, n, [[rng.randint(0, 4) for _ in range(n - k)] for _ in range(k - 1)]
        )

    checks = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rhos = [ladder.rho(ncfan.t_vector(K)) for K in ncyc]
    record("ray_duality", not _duality_failures(ncyc, rhos), f"{len(ncyc)}x{len(ncyc)}")

    basis = [planar.planar_basis_vector(K) for K in ncyc]
    record("planar_duality", not _duality_failures(ncyc, basis))

    ok = all(
        pluecker.equivalent_mod_lineality(
            planar.planar_basis_vector(J), planar.corank_vector(J)
        )
        for J in ncyc
    )
    record("corank_equals_planar", ok)

    try:
        ncfan.audit_fan(k, n)
        record("fan_unimodular", True, "all maximal cone determinants are +-1")
    except InvariantError as exc:
        record("fan_unimodular", False, str(exc))

    samples = [random_tpoint() for _ in range(25)]
    try:
        ok = all(
            rep.agree and rep.nc_weight == ncfan.nc_weight(t)
            for t, rep in ((t, weight.weight_report(ladder.rho(t))) for t in samples)
        )
        record("weight_equality", ok, "25 seeded samples")
    except InvariantError as exc:
        record("weight_equality", False, str(exc))

    ok = all(weight.bridge(rhos[i]) == 1 for i in range(len(ncyc)))
    record("bridge_normalization", ok)

    # the full scan: the certificate only replays the steps rho applied
    ok = all(pluecker._first_violation(ladder.rho(t)) is None for t in samples[:10])
    record("parametrized_positivity", ok, "10 seeded samples")

    return checks


def cmd_verify(args):
    cones = _maximal_cone_count(args.k, args.n)
    if cones > VERIFY_MAX_CONES and not args.force:
        raise SchemaError(
            "", f"verify lists all {cones} maximal cones at (k,n)=({args.k},{args.n}), "
                f"more than {VERIFY_MAX_CONES}; pass --force"
        )
    checks = _verify_checks(args.k, args.n, args.seed)
    ok = all(c["ok"] for c in checks)
    payload = {"k": args.k, "n": args.n, "seed": args.seed, "checks": checks, "ok": ok}
    return (0 if ok else 1), payload


# name -> (handler, input loader, help).  A command with a loader reads
# --in and its handler takes the decoded object; one without takes --k
# and --n and its handler takes the parsed arguments.  Every handler
# returns (exit code, JSON payload or None).
COMMANDS = {
    "duality": (cmd_duality, None, "dual pairing of cross-ratios against fan rays"),
    "decompose": (cmd_decompose, ncfan.from_json_dict,
                  "noncrossing decomposition of a fan point"),
    "weight": (cmd_weight, pluecker.from_json_dict, "pk / nc / bridge weight report"),
    "psi": (cmd_psi, pluecker.from_json_dict, "project a Plücker vector to the fan"),
    "rho": (cmd_rho, ncfan.from_json_dict,
            "parametrize a fan point as a Plücker vector"),
    "bounded": (cmd_bounded, pluecker.from_json_dict,
                "bounded complex vertices of a positive vector"),
    "diameter": (cmd_diameter, pluecker.from_json_dict,
                 "balanced representative and dilate bound"),
    "verify": (cmd_verify, None, "run the invariant suite for (k, n)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropnc",
        description="exact pipelines over positive tropical Plücker vectors and the noncrossing fan",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, load, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if load is None:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        else:
            p.add_argument("--in", dest="input", required=True,
                           help="input JSON file, or - for stdin")
        if name == "verify":
            p.add_argument("--seed", type=int, default=0, help="seed of the sampled checks")
        p.add_argument("--out", default=None, help="output JSON file (default stdout)")
        p.add_argument("--force", action="store_true",
                       help="lift the desk-scale (k,n) guard"
                       + (" and the maximal-cone limit" if name == "verify" else ""))
        p.set_defaults(handler=handler, load=load)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.load is None:
            _check_kn(args.k, args.n, args.force, "")
            code, payload = args.handler(args)
        else:
            subject = args.load(_read_json(args.input))
            _check_kn(subject.k, subject.n, args.force, "/k")
            code, payload = args.handler(subject)
        if payload is not None:
            _emit(payload, args.out)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, InvariantError, troplin.TimeBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
