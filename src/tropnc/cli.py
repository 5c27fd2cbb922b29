"""Command-line front end: JSON pipelines over the core operations.

Every subcommand is a thin shell around exactly one core operation.
Rationals travel as "p/q" strings (never floats), outputs are
deterministic given the same input and seed, and exit codes are
0 = pass, 1 = mathematical failure, 2 = usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import ladder, ncfan, planar, pluecker, troplin, weight
from .combinat import noncyclic_subsets
from .exact import InvariantError, format_fraction
from .ncfan import TPoint


class SchemaError(ValueError):
    """Input violates a JSON schema; carries a JSON-pointer-ish path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


def _expect(obj, pointer: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(pointer, f"expected an object with keys {keys}")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{pointer}/{key}", "missing required key")
    return obj

def _rational(value, pointer: str) -> Fraction:
    if isinstance(value, float):
        raise SchemaError(pointer, "floats are not accepted; use a 'p/q' string")
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    raise SchemaError(pointer, f"not a rational: {value!r}")


def _load_pluecker(obj) -> pluecker.PlueckerVector:
    _expect(obj, "", ("k", "n", "entries"))
    k, n = obj["k"], obj["n"]
    if not (isinstance(k, int) and isinstance(n, int)):
        raise SchemaError("/k", "k and n must be integers")
    if not isinstance(obj["entries"], dict):
        raise SchemaError("/entries", "expected an object of 'i,j,...' keys")
    entries = {}
    for label, value in obj["entries"].items():
        pointer = f"/entries/{label}"
        try:
            elems = tuple(sorted(int(part) for part in label.split(",")))
        except ValueError:
            raise SchemaError(pointer, "bad subset label") from None
        if elems in entries:
            raise SchemaError(pointer, "second spelling of an already given subset")
        entries[elems] = _rational(value, pointer)
    try:
        return pluecker.PlueckerVector(k, n, entries)
    except ValueError as exc:
        raise SchemaError("/entries", str(exc)) from None


def _load_tpoint(obj) -> TPoint:
    _expect(obj, "", ("k", "n", "rows"))
    k, n = obj["k"], obj["n"]
    if not (isinstance(k, int) and isinstance(n, int)):
        raise SchemaError("/k", "k and n must be integers")
    rows = obj["rows"]
    if not isinstance(rows, list):
        raise SchemaError("/rows", "expected a list of rows")
    cooked = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"/rows/{i}", "expected a list")
        cooked.append([_rational(v, f"/rows/{i}/{j}") for j, v in enumerate(row)])
    try:
        return TPoint.of(k, n, cooked)
    except ValueError as exc:
        raise SchemaError("/rows", str(exc)) from None


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
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


def _require_kn(args) -> tuple[int, int]:
    if args.k is None or args.n is None:
        raise SchemaError("", "--k and --n are required for this command")
    k, n = args.k, args.n
    _check_kn(k, n, args.force, "")
    return k, n


def _map_maybe_parallel(fn, items, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cmd_duality(args) -> int:
    k, n = _require_kn(args)
    ncyc = noncyclic_subsets(k, n)
    rhos = _map_maybe_parallel(
        lambda K: ladder.rho(ncfan.t_vector(K)), ncyc, args.threads
    )
    failures = []
    for j, J in enumerate(ncyc):
        for i, K in enumerate(ncyc):
            value = planar.tropical_u(J, rhos[i])
            wanted = 1 if i == j else 0
            if value != wanted:
                failures.append(
                    {"u": J.label(), "ray": K.label(), "value": format_fraction(value)}
                )
    _emit(
        {
            "k": k,
            "n": n,
            "size": len(ncyc),
            "ok": not failures,
            "failures": failures,
        },
        args.out,
    )
    return 0 if not failures else 1


def cmd_decompose(args) -> int:
    t = _load_tpoint(_read_json(args.input))
    _check_kn(t.k, t.n, args.force, "/k")
    try:
        tab = ncfan.nc_decompose(t)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(ncfan.tableau_to_json_dict(tab), args.out)
    return 0


def cmd_weight(args) -> int:
    pi = _load_pluecker(_read_json(args.input))
    _check_kn(pi.k, pi.n, args.force, "/k")
    report = weight.weight_report(pi)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.agree else 1


def cmd_psi(args) -> int:
    pi = _load_pluecker(_read_json(args.input))
    _emit(ncfan.to_json_dict(ncfan.psi(pi)), args.out)
    return 0


def cmd_rho(args) -> int:
    t = _load_tpoint(_read_json(args.input))
    _emit(pluecker.to_json_dict(ladder.rho(t)), args.out)
    return 0


def _bounded_payload(pi, report) -> dict:
    edges = troplin.bounded_complex_edges(pi, report.vertices)
    return report.to_json_dict(edges=edges)


def cmd_bounded(args) -> int:
    pi = _load_pluecker(_read_json(args.input))
    cert = pluecker.is_positive_tropical(pi)
    if not cert.ok:
        print(f"error: vector is not positive tropical: {cert.violation}", file=sys.stderr)
        return 1
    report = troplin.bounded_complex_vertices(pi)
    _emit(_bounded_payload(pi, report), args.out)
    return 0


def cmd_diameter(args) -> int:
    pi = _load_pluecker(_read_json(args.input))
    cert = pluecker.is_positive_tropical(pi)
    if not cert.ok:
        print(f"error: vector is not positive tropical: {cert.violation}", file=sys.stderr)
        return 1
    coeffs = planar.planar_expand(pi)
    balanced = troplin.balanced_representative(pi)
    report = troplin.bounded_complex_vertices(balanced, coeffs)
    _emit(_bounded_payload(balanced, report), args.out)
    return 0 if report.within_dilate else 1


def _verify_checks(k: int, n: int, seed: int, threads: int):
    rng = random.Random(seed)
    ncyc = noncyclic_subsets(k, n)

    def random_tpoint() -> TPoint:
        return TPoint.of(
            k, n, [[rng.randint(0, 4) for _ in range(n - k)] for _ in range(k - 1)]
        )

    checks = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    rhos = _map_maybe_parallel(lambda K: ladder.rho(ncfan.t_vector(K)), ncyc, threads)
    ok = all(
        planar.tropical_u(J, rhos[i]) == (1 if i == j else 0)
        for j, J in enumerate(ncyc)
        for i, _ in enumerate(ncyc)
    )
    record("ray_duality", ok, f"{len(ncyc)}x{len(ncyc)}")

    ok = all(
        planar.tropical_u(J, planar.planar_basis_vector(K)) == (1 if i == j else 0)
        for j, J in enumerate(ncyc)
        for i, K in enumerate(ncyc)
    )
    record("planar_duality", ok)

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
            weight.pk_weight(pi) == ncfan.nc_weight(t) == weight.bridge(pi)
            for t, pi in ((t, ladder.rho(t)) for t in samples)
        )
        record("weight_equality", ok, "25 seeded samples")
    except InvariantError as exc:
        record("weight_equality", False, str(exc))

    ok = all(weight.bridge(rhos[i]) == 1 for i in range(len(ncyc)))
    record("bridge_normalization", ok)

    ok = all(pluecker.is_positive_tropical(ladder.rho(t)).ok for t in samples[:10])
    record("parametrized_positivity", ok, "10 seeded samples")

    return checks


def cmd_verify(args) -> int:
    k, n = _require_kn(args)
    checks = _verify_checks(k, n, args.seed, args.threads)
    ok = all(c["ok"] for c in checks)
    _emit({"k": k, "n": n, "seed": args.seed, "checks": checks, "ok": ok}, args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropnc",
        description="exact pipelines over positive tropical Plücker vectors and the noncrossing fan",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool):
        if needs_input:
            p.add_argument("--in", dest="input", required=True,
                           help="input JSON file, or - for stdin")
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--out", default=None, help="output JSON file (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--force", action="store_true",
                       help="lift the desk-scale (k,n) guard")

    handlers = {
        "duality": (cmd_duality, False, "dual pairing of cross-ratios against fan rays"),
        "decompose": (cmd_decompose, True, "noncrossing decomposition of a fan point"),
        "weight": (cmd_weight, True, "pk / nc / bridge weight report"),
        "psi": (cmd_psi, True, "project a Plücker vector to the fan"),
        "rho": (cmd_rho, True, "parametrize a fan point as a Plücker vector"),
        "bounded": (cmd_bounded, True, "bounded complex vertices of a positive vector"),
        "diameter": (cmd_diameter, True, "balanced representative and dilate bound"),
        "verify": (cmd_verify, False, "run the invariant suite for (k, n)"),
    }
    for name, (fn, needs_input, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        common(p, needs_input)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
