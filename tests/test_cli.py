"""CLI pipelines: schemas, exit codes, and deterministic output."""

import hashlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CROSSING_WALK_ERROR, CROSSING_WALK_TABLES, canon, run_optimized
from tropnc import cli, combinat, exact, ladder, ncfan, planar, pluecker, troplin, weight
from tropnc.combinat import ksubset


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def weight_two_vector_payload():
    pi = planar.planar_combination(
        3, 6, {(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}
    )
    return pluecker.to_json_dict(pi)


def test_duality_pass(capsys):
    code, out = run_cli(capsys, "duality", "--k", "2", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["size"] == 5 and payload["failures"] == []


def test_duality_4_7(capsys):
    code, out = run_cli(capsys, "duality", "--k", "4", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["size"] == 28


def test_unread_options_are_usage_errors(capsys):
    # --threads is gone, and an input command takes no --seed, --k or --n
    for argv in (
        ["duality", "--k", "3", "--n", "6", "--threads", "4"],
        ["psi", "--in", "-", "--seed", "1"],
        ["psi", "--in", "-", "--k", "9"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_decompose_pipeline(tmp_path, capsys):
    t = ncfan.t_vector(ksubset(6, [1, 4, 5])) + ncfan.t_vector(ksubset(6, [2, 3, 6]))
    path = write_json(tmp_path, "t.json", ncfan.to_json_dict(t))
    code, out = run_cli(capsys, "decompose", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [["1,4,5", "1"], ["2,3,6", "1"]]


def test_decompose_zero(tmp_path, capsys):
    path = write_json(tmp_path, "t.json", ncfan.to_json_dict(ncfan.TPoint.zero(3, 6)))
    code, out = run_cli(capsys, "decompose", "--in", path)
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_weight_report(tmp_path, capsys):
    path = write_json(tmp_path, "pi.json", weight_two_vector_payload())
    code, out = run_cli(capsys, "weight", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"pk_weight": "2", "nc_weight": "2", "bridge": "2", "agree": True}


def test_psi_rho_round_trip(tmp_path, capsys):
    t = ncfan.TPoint.of(3, 6, [[2, 0, 1], [1, 1, 0]])
    tpath = write_json(tmp_path, "t.json", ncfan.to_json_dict(t))
    code, out = run_cli(capsys, "rho", "--in", tpath)
    assert code == 0
    pipath = write_json(tmp_path, "pi.json", json.loads(out))
    code, out = run_cli(capsys, "psi", "--in", pipath)
    assert code == 0
    assert ncfan.from_json_dict(json.loads(out)) == t


def test_bounded_two_block(tmp_path, capsys):
    from tropnc.troplin import central_pluecker_vector

    eta = central_pluecker_vector(ksubset(6, [2, 3, 6]))
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(eta))
    code, out = run_cli(capsys, "bounded", "--in", path)
    assert code == 0
    payload = json.loads(out)
    got = {tuple(v) for v in (canon(list(map_fraction(w))) for w in payload["vertices"])}
    from fractions import Fraction

    want = {
        canon([-1, -1, -1, Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)]),
        canon([Fraction(-2, 3)] * 3 + [-1] * 3),
    }
    assert got == want
    assert payload["within_dilate"] is True
    assert payload["edges"] == [[0, 1]]


def map_fraction(row):
    from fractions import Fraction

    return [Fraction(v) for v in row]


def test_diameter_command(tmp_path, capsys):
    path = write_json(tmp_path, "pi.json", weight_two_vector_payload())
    code, out = run_cli(capsys, "diameter", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["pk_weight"] == "2"
    assert payload["within_dilate"] is True


def test_bounded_and_diameter_print_the_same_edges(tmp_path, capsys):
    # The balanced complex is the central one translated, so the vertex
    # order and the edges between them do not move.
    rows = [["2", "0", "1/2", "1"], ["1", "3", "0", "5/3"]]
    pi = ladder.rho(ncfan.from_json_dict({"k": 3, "n": 7, "rows": rows}))
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(pi))
    bounded, diameter = (json.loads(run_cli(capsys, command, "--in", path)[1])
                         for command in ("bounded", "diameter"))
    assert len(bounded["edges"]) >= len(bounded["vertices"]) > 2
    assert bounded["edges"] == diameter["edges"]
    assert bounded["vertices"] != diameter["vertices"]


def test_bounded_and_diameter_read_the_walks_value_rows(tmp_path, capsys, monkeypatch):
    # The edges read the walk's own value rows, so a run forms two: the
    # central shift's check and the walk's start.  The (3,7) grid has a
    # pair whose argmin sets do not meet, whose rows are summed.
    pi = ladder.rho(ncfan.TPoint.of(3, 7, [[1, 1, 0, 1], [0, 0, 2, 2]]))
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(pi))
    values, calls = troplin._values, []
    monkeypatch.setattr(troplin, "_values", lambda *args: calls.append(1) or values(*args))
    for command in ("bounded", "diameter"):
        calls.clear()
        assert run_cli(capsys, command, "--in", path)[0] == 0
        assert len(calls) == 2, command


def test_verify_suite(tmp_path, capsys):
    code, out = run_cli(capsys, "verify", "--k", "2", "--n", "5", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(c["ok"] for c in payload["checks"])


def test_byte_identical_reruns(tmp_path, capsys):
    path = write_json(tmp_path, "pi.json", weight_two_vector_payload())
    _, out1 = run_cli(capsys, "weight", "--in", path)
    _, out2 = run_cli(capsys, "weight", "--in", path)
    assert out1 == out2
    _, v1 = run_cli(capsys, "verify", "--k", "2", "--n", "6", "--seed", "9")
    _, v2 = run_cli(capsys, "verify", "--k", "2", "--n", "6", "--seed", "9")
    assert v1 == v2


def test_schema_error_float_rejected(tmp_path, capsys):
    payload = {"k": 3, "n": 6, "rows": [[0.5, 1, 0], [0, 1, 1]]}
    path = write_json(tmp_path, "t.json", payload)
    code = cli.main(["decompose", "--in", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "/rows/0/0" in err


def test_schema_error_missing_key(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"k": 3, "rows": []})
    code = cli.main(["psi", "--in", path])
    err = capsys.readouterr().err
    assert code == 2 and "/n" in err


def test_schema_error_partial_entries(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"k": 2, "n": 4, "entries": {"1,2": "0"}})
    code = cli.main(["weight", "--in", path])
    assert code == 2


def test_mathematical_failure_exit_code(tmp_path, capsys):
    # a non-positive vector has no bounded-complex guarantee: exit 1
    h124 = planar.planar_basis_vector(ksubset(6, [1, 2, 4]))
    h356 = planar.planar_basis_vector(ksubset(6, [3, 5, 6]))
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(h124 + h356))
    code = cli.main(["bounded", "--in", path])
    err = capsys.readouterr().err
    assert code == 1 and "not positive tropical" in err


NOT_POSITIVE = (
    "error: vector is not positive tropical: S = (5,), (a, b, c, d) = (1, 3, 4, 6): "
    "pi_Sac + pi_Sbd = 3 but min(pi_Sab + pi_Scd, pi_Sad + pi_Sbc) = 9/2\n"
)


@pytest.mark.parametrize("command", ["bounded", "diameter"])
def test_not_positive_error_prints_p_over_q(tmp_path, capsys, command):
    h124 = planar.planar_basis_vector(ksubset(6, [1, 2, 4]))
    h356 = planar.planar_basis_vector(ksubset(6, [3, 5, 6]))
    pi = (h124 + h356).scale(Fraction(3, 2))
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(pi))
    assert cli.main([command, "--in", path]) == 1
    err = capsys.readouterr().err
    assert err == NOT_POSITIVE and "Fraction(" not in err
    with pytest.raises(ValueError) as exc:
        troplin.bounded_complex_vertices(pi)
    assert "error: " + str(exc.value) + "\n" == NOT_POSITIVE


def _verify_check(name: str) -> dict:
    return next(c for c in cli._verify_checks(3, 6, 0) if c["name"] == name)


def test_parametrized_positivity_fails_on_a_vector_that_is_not_positive(monkeypatch):
    h124 = planar.planar_basis_vector(ksubset(6, [1, 2, 4]))
    h356 = planar.planar_basis_vector(ksubset(6, [3, 5, 6]))
    monkeypatch.setattr(ladder, "rho", lambda t: h124 + h356)
    assert _verify_check("parametrized_positivity") == {
        "name": "parametrized_positivity", "ok": False, "detail": "10 seeded samples"}


def test_parametrized_positivity_runs_the_full_scan(monkeypatch):
    # A plan without steps leaves every non-seed entry 0.  The certificate
    # replays no step and passes such a vector; the full scan does not.
    real = ladder._plan
    monkeypatch.setattr(ladder, "_plan", lambda k, n: (real(k, n)[0], ()))
    stripped = ladder.rho(ncfan.TPoint.of(3, 6, [[1, 0, 2], [0, 3, 1]]))
    assert pluecker.is_positive_tropical(stripped).ok
    assert pluecker._first_violation(stripped) is not None
    assert _verify_check("parametrized_positivity")["ok"] is False


def test_desk_scale_guard(capsys):
    code = cli.main(["duality", "--k", "6", "--n", "14"])
    err = capsys.readouterr().err
    assert code == 2 and "--force" in err


@pytest.mark.parametrize("k,n,cones", [(2, 5, 5), (2, 6, 14), (3, 6, 42), (3, 7, 462),
                                       (3, 8, 6006), (4, 8, 24024), (4, 9, 1662804),
                                       (6, 12, 1671643033734960)])
def test_maximal_cone_count_is_the_rectangle_tableau_count(k, n, cones):
    assert ncfan._maximal_cone_count(k, n) == cones
    if cones <= 462:
        assert len(combinat.maximal_noncrossing_collections(k, n)) == cones


def test_verify_refuses_past_the_maximal_cone_limit(capsys):
    started = time.perf_counter()
    code = cli.main(["verify", "--k", "4", "--n", "9"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 0.5 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: verify lists all 1662804 maximal cones at (k,n)=(4,9)")
    assert "--force" in line


def test_errors_about_the_whole_input_name_no_pointer(tmp_path, capsys, monkeypatch):
    # an empty JSON pointer adds no "(at )"; a nonempty one is still named
    def refused(*argv) -> str:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        return captured.err

    assert refused("verify", "--k", "4", "--n", "9") == (
        "error: verify lists all 1662804 maximal cones at (k,n)=(4,9), "
        "more than 24024; pass --force\n")
    assert refused("duality", "--k", "6", "--n", "14") == (
        "error: (k,n)=(6,14) beyond the desk-scale default; pass --force\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"nonsense")))
    assert refused("rho", "--in", "-") == (
        "error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n")
    path = write_json(tmp_path, "t.json", {"k": 3, "n": 6, "rows": [[0.5, 1, 0], [0, 1, 1]]})
    assert refused("decompose", "--in", path) == (
        "error: not a rational: 0.5; use an integer or a 'p/q' string (at /rows/0/0)\n")


def test_verify_runs_at_the_maximal_cone_limit_and_force_lifts_it(capsys, monkeypatch):
    # (3,6) has 42 maximal cones
    monkeypatch.setattr(cli, "VERIFY_MAX_CONES", 42)
    assert cli.main(["verify", "--k", "3", "--n", "6"]) == 0
    monkeypatch.setattr(cli, "VERIFY_MAX_CONES", 41)
    assert cli.main(["verify", "--k", "3", "--n", "6"]) == 2
    assert cli.main(["verify", "--k", "3", "--n", "6", "--force"]) == 0
    assert "error: verify lists all 42 maximal cones" in capsys.readouterr().err


def test_verify_at_3_6_matches_the_benchmark_golden_digest(capsys):
    # perfbench/golden.json holds the stdout digest of `verify --k 3 --n 6
    # --seed i` as entry i of its cli_mix "verify" pool
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    for seed in (0, 1):
        code, out = run_cli(capsys, "verify", "--k", "3", "--n", "6", "--seed", str(seed))
        assert {"exit": code, "stdout": hashlib.sha256(out.encode()).hexdigest()[:20]} \
            == golden["cli_mix"]["verify"][seed]


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code = cli.main(["duality", "--k", "2", "--n", "5", "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["ok"]


def test_duplicate_subset_spelling_rejected(tmp_path, capsys):
    payload = weight_two_vector_payload()
    payload["entries"]["6,5,4"] = "7"
    path = write_json(tmp_path, "pi.json", payload)
    code = cli.main(["weight", "--in", path])
    err = capsys.readouterr().err
    assert code == 2 and "/entries/6,5,4" in err


def test_input_that_is_not_utf8_is_a_schema_error(tmp_path, capsys, monkeypatch):
    data = b'{"k": 3, "n": 6, "rows": [["0", "1", "0"], ["0", "0", "\xff"]]}'
    path = tmp_path / "t.json"
    path.write_bytes(data)
    code = cli.main(["rho", "--in", str(path)])
    assert code == 2 and "invalid JSON" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = cli.main(["rho", "--in", "-"])
    assert code == 2 and "invalid JSON" in capsys.readouterr().err
    # the same input in UTF-8, from stdin, is read
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data.replace(b"\xff", b"1"))))
    code, out = run_cli(capsys, "rho", "--in", "-")
    assert code == 0 and json.loads(out)["k"] == 3


def test_repeated_json_key_rejected(tmp_path, capsys):
    # the literal same label twice: json.load alone would keep the last value
    text = json.dumps(weight_two_vector_payload())
    text = text.replace('"1,2,3": ', '"1,2,3": "99", "1,2,3": ', 1)
    path = tmp_path / "pi.json"
    path.write_text(text)
    code = cli.main(["weight", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "'1,2,3' given twice" in err


def test_integers_past_the_digit_limit_are_schema_errors(tmp_path, capsys):
    # Python refuses to convert a decimal string of more than 4300 digits
    # to int; in a value or in a label part that is bad input, not a crash.
    huge = "9" * 5000
    payload = weight_two_vector_payload()
    payload["entries"]["1,2,3"] = "HUGE"
    text = json.dumps(payload)
    for bad, where in (
        (text.replace('"HUGE"', huge), "invalid JSON"),
        (text.replace('"1,2,3": "HUGE"', f'"{huge},2,3": "0"'), f"(at /entries/{huge},2,3)"),
    ):
        assert bad != text
        path = tmp_path / "pi.json"
        path.write_text(bad)
        code = cli.main(["weight", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and where in captured.err


@pytest.mark.parametrize("k,n", [(500_000, 1_000_000), (2_000_000, 4_000_000)])
def test_tiny_input_naming_a_huge_binomial_fails_at_once(k, n, tmp_path, capsys):
    # C(n, k) has hundreds of thousands of digits; the entry count is
    # compared with it step by step and never forms it.
    payload = {"k": k, "n": n, "entries": {}}
    start = time.perf_counter()
    with pytest.raises(exact.SchemaError) as caught:
        pluecker.from_json_dict(payload)
    assert caught.value.pointer == "/entries"
    code = cli.main(["weight", "--in", write_json(tmp_path, "pi.json", payload)])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2 and captured.out == "" and "(at /entries)" in captured.err


POINT_PAYLOAD = {"k": 3, "n": 6, "rows": [["0", "1", "0"], ["0", "2", "1"]]}


# command -> the layer patched to raise, under its module
INVARIANT_LAYERS = {
    "duality": (ladder, "rho"),
    "decompose": (ncfan, "nc_decompose"),
    "weight": (weight, "weight_report"),
    "psi": (ncfan, "psi"),
    "rho": (ladder, "rho"),
    "bounded": (troplin, "_walk"),
    "diameter": (troplin, "_complex"),
}


@pytest.mark.parametrize("command", INVARIANT_LAYERS)
def test_invariant_errors_exit_1_with_one_error_line(command, tmp_path, capsys, monkeypatch):
    if command == "duality":
        argv = [command, "--k", "3", "--n", "6"]
    else:
        payload = POINT_PAYLOAD if command in ("decompose", "rho") else (
            pluecker.to_json_dict(ladder.rho(ncfan.from_json_dict(POINT_PAYLOAD))))
        argv = [command, "--in", write_json(tmp_path, "in.json", payload)]

    def broken(*args, **kwargs):
        raise exact.InvariantError("planted invariant failure")

    monkeypatch.setattr(*INVARIANT_LAYERS[command], broken)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: planted invariant failure\n"


@pytest.mark.parametrize("command", ["bounded", "diameter"])
def test_walk_over_its_budget_exits_1_with_one_error_line(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "BOUNDED_BUDGET_S", -1)
    payload = pluecker.to_json_dict(ladder.rho(ncfan.from_json_dict(POINT_PAYLOAD)))
    code = cli.main([command, "--in", write_json(tmp_path, "in.json", payload)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: vertex walk over its -1 s budget\n"


# _gap_shift wrapped to move y_2 by 10 * target: the balancing shift moves, the central one not
GAP_SHIFT_OFF = [
    "from tropnc import troplin",
    "gap_shift = troplin._gap_shift",
    "def planted(row, target, k, n):",
    "    y = gap_shift(row, target, k, n)",
    "    if target:",
    "        y[1] += 10 * target",
    "    return y",
]


def test_diameter_outside_its_dilate_exits_1_with_its_report(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "pi.json",
                      pluecker.to_json_dict(ladder.rho(ncfan.from_json_dict(POINT_PAYLOAD))))
    scope = {}
    exec("\n".join(GAP_SHIFT_OFF), scope)
    monkeypatch.setattr(troplin, "_gap_shift", scope["planted"])
    code, out = run_cli(capsys, "diameter", "--in", path)
    report = json.loads(out)
    assert code == 1 and report["within_dilate"] is False and report["pk_weight"] == "3"
    # the same fault with asserts stripped
    broken = run_optimized(
        *GAP_SHIFT_OFF,
        "import sys",
        "from tropnc import cli",
        "troplin._gap_shift = planted",
        f"sys.exit(cli.main(['diameter', '--in', {path!r}]))",
    )
    assert broken.returncode == 1 and json.loads(broken.stdout) == report


def test_only_diameter_exits_on_the_dilate(tmp_path, capsys):
    # A lineality vector's one vertex is -x modulo all-ones: bounded reports
    # it outside the zero dilate and exits 0; diameter balances it to 0.
    x = [3, Fraction(-1, 2), 5, 0, 7, 2]
    path = write_json(tmp_path, "pi.json", pluecker.to_json_dict(pluecker.lineality_vector(3, 6, x)))
    code, out = run_cli(capsys, "bounded", "--in", path)
    assert code == 0 and json.loads(out)["within_dilate"] is False
    code, out = run_cli(capsys, "diameter", "--in", path)
    assert code == 0 and json.loads(out)["within_dilate"] is True


def test_decompose_and_weight_desk_scale_guard(tmp_path, capsys):
    t = ncfan.t_vector(ksubset(13, [1, 5]))
    tpath = write_json(tmp_path, "t.json", ncfan.to_json_dict(t))
    code = cli.main(["decompose", "--in", tpath])
    err = capsys.readouterr().err
    assert code == 2 and "/k" in err and "--force" in err
    code, out = run_cli(capsys, "decompose", "--in", tpath, "--force")
    assert code == 0 and json.loads(out)["entries"] == [["1,5", "1"]]
    pi = pluecker.PlueckerVector.from_function(2, 13, lambda I: 0)
    pipath = write_json(tmp_path, "pi.json", pluecker.to_json_dict(pi))
    code = cli.main(["weight", "--in", pipath])
    err = capsys.readouterr().err
    assert code == 2 and "/k" in err and "--force" in err
    kpath = write_json(tmp_path, "k1.json", {"k": 1, "n": 5, "rows": []})
    code = cli.main(["decompose", "--in", kpath, "--force"])
    err = capsys.readouterr().err
    assert code == 2 and "/k" in err


@pytest.mark.parametrize("command", ["rho", "decompose"])
def test_rows_with_no_columns_meet_the_kn_guard(command, tmp_path, capsys):
    # n - k = 0: the empty rows load, and the (k, n) guard names the fault
    path = write_json(tmp_path, "t.json", {"k": 4, "n": 4, "rows": [[], [], []]})
    code = cli.main([command, "--in", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need 2 <= k <= n-2, got k=4, n=4 (at /k)\n"


@pytest.mark.parametrize("command", ["psi", "rho", "bounded", "diameter"])
def test_input_commands_apply_the_guard(command, tmp_path, capsys):
    def payload(k, n):
        if command == "rho":
            return ncfan.to_json_dict(ncfan.TPoint.zero(k, n))
        return pluecker.to_json_dict(pluecker.PlueckerVector.zero(k, n))

    k1 = write_json(tmp_path, "k1.json", payload(1, 5))
    assert cli.main([command, "--in", k1, "--force"]) == 2
    assert "/k" in capsys.readouterr().err
    big = write_json(tmp_path, "big.json", payload(2, 13))
    assert cli.main([command, "--in", big]) == 2
    err = capsys.readouterr().err
    assert "/k" in err and "--force" in err
    code, out = run_cli(capsys, command, "--in", big, "--force")
    assert code == 0 and json.loads(out)


# Doubles the sparse ray of the first node of the (3,6) start cone, so
# every flip to it has pivot -2, as if its cones had determinant +-2.  The
# seeded walks of `verify --k 3 --n 6` never flip to that node.
DOUBLE_ONE_RAY = (
    "from tropnc import ncfan",
    "tables = ncfan._walk_tables(3, 6)",
    "node = tables.nodes[tables.start[0]]",
    "sparse_ray = ncfan._sparse_ray",
    "doubled = lambda J: tuple((c, 2 * v) for c, v in sparse_ray(J)) if J == node else sparse_ray(J)",
)


def test_verify_reports_non_unimodular_fan(monkeypatch, capsys):
    scope = {}
    exec("\n".join(DOUBLE_ONE_RAY), scope)
    monkeypatch.setattr(ncfan, "_sparse_ray", scope["doubled"])
    ncfan.audit_fan.cache_clear()
    code, out = run_cli(capsys, "verify", "--k", "3", "--n", "6")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and checks["fan_unimodular"]["ok"] is False
    assert checks["fan_unimodular"]["detail"] == "flip of 1,3,6 to 1,2,4 has pivot -2, not -1"
    assert all(c["ok"] for name, c in checks.items() if name != "fan_unimodular")


# `weight.bridge` one too high on the ray vector of the first noncyclic
# subset alone: the 25 seeded samples' weight reports do not meet it.
BRIDGE_OFF_ON_ONE_RAY = (
    "from tropnc import combinat, ladder, ncfan, weight",
    "ray = ladder.rho(ncfan.t_vector(combinat.noncyclic_subsets(3, 6)[0]))",
    "bridge = weight.bridge",
    "planted = lambda pi: bridge(pi) + (pi == ray)",
)
# `ncfan.nc_weight` one too high on its first call, which is the first
# sample of the weight check and the only place `verify` calls it.
NC_WEIGHT_OFF_ONCE = (
    "from tropnc import ncfan",
    "nc_weight, seen = ncfan.nc_weight, []",
    "planted = lambda t: nc_weight(t) + (seen.append(t) or len(seen) == 1)",
)
# Raises the entry at 1,3,5, which is neither a cyclic nor a gap interval,
# by one: the bridge functional does not read it.
RAISE_ONE_ENTRY = (
    "from tropnc import combinat, ladder, ncfan, planar, pluecker",
    "first = combinat.noncyclic_subsets(3, 6)[0]",
    "raised = lambda pi: pluecker.PlueckerVector.from_function(3, 6, lambda I: pi[I] + (I == (1, 3, 5)))",
)
# `ladder.rho` one entry off on the ray vector of the first noncyclic
# subset alone.
RHO_OFF_ON_ONE_RAY = RAISE_ONE_ENTRY + (
    "ray, rho = ncfan.t_vector(first), ladder.rho",
    "planted = lambda t: raised(rho(t)) if t == ray else rho(t)",
)
# `planar.planar_basis_vector` one entry off on its first call, which is the
# first basis vector of the planar duality check; the corank check calls
# it again and gets the true vector.
BASIS_OFF_ONCE = RAISE_ONE_ENTRY + (
    "basis, seen = planar.planar_basis_vector, []",
    "planted = lambda J: raised(basis(J)) if seen.append(J) or len(seen) == 1 else basis(J)",
)
# `planar.corank_vector` one entry off on the first noncyclic subset alone.
CORANK_OFF_ON_ONE_SUBSET = RAISE_ONE_ENTRY + (
    "corank = planar.corank_vector",
    "planted = lambda J: raised(corank(J)) if J == first else corank(J)",
)
PLANTED_FAULTS = {
    "bridge_normalization": (BRIDGE_OFF_ON_ONE_RAY, weight, "bridge"),
    "corank_equals_planar": (CORANK_OFF_ON_ONE_SUBSET, planar, "corank_vector"),
    "planar_duality": (BASIS_OFF_ONCE, planar, "planar_basis_vector"),
    "ray_duality": (RHO_OFF_ON_ONE_RAY, ladder, "rho"),
    "weight_equality": (NC_WEIGHT_OFF_ONCE, ncfan, "nc_weight"),
}


@pytest.mark.parametrize("check", sorted(PLANTED_FAULTS))
def test_verify_reports_a_planted_fault(monkeypatch, capsys, check):
    lines, module, name = PLANTED_FAULTS[check]
    scope = {}
    exec("\n".join(lines), scope)
    monkeypatch.setattr(module, name, scope["planted"])
    code, out = run_cli(capsys, "verify", "--k", "3", "--n", "6")
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert code == 1 and failed == [check]
    # the same fault with asserts stripped
    main = "import sys; from tropnc import cli; sys.exit(cli.main(['verify', '--k', '3', '--n', '6']))"
    broken = run_optimized(*lines, f"{module.__name__.split('.')[-1]}.{name} = planted", main)
    failed = [c["name"] for c in json.loads(broken.stdout)["checks"] if not c["ok"]]
    assert broken.returncode == 1 and failed == [check]


def test_duality_reports_a_planted_fault(monkeypatch, capsys):
    scope = {}
    exec("\n".join(RHO_OFF_ON_ONE_RAY), scope)
    monkeypatch.setattr(ladder, "rho", scope["planted"])
    code, out = run_cli(capsys, "duality", "--k", "3", "--n", "6")
    report = json.loads(out)
    assert code == 1 and report["ok"] is False and report["failures"]
    assert {f["ray"] for f in report["failures"]} == {"1,2,4"}
    # the same fault with asserts stripped
    main = "import sys; from tropnc import cli; sys.exit(cli.main(['duality', '--k', '3', '--n', '6']))"
    broken = run_optimized(*RHO_OFF_ON_ONE_RAY, "ladder.rho = planted", main)
    assert broken.returncode == 1 and json.loads(broken.stdout) == report


def test_weight_exits_1_when_the_weights_disagree(monkeypatch, tmp_path, capsys):
    path = write_json(tmp_path, "pi.json", weight_two_vector_payload())
    bridge = weight.bridge
    monkeypatch.setattr(weight, "bridge", lambda pi: bridge(pi) + 1)
    code, out = run_cli(capsys, "weight", "--in", path)
    report = json.loads(out)
    assert code == 1 and report == {"pk_weight": "2", "nc_weight": "2", "bridge": "3", "agree": False}
    # the same fault with asserts stripped
    broken = run_optimized(
        "import sys",
        "from tropnc import cli, weight",
        "bridge = weight.bridge",
        "weight.bridge = lambda pi: bridge(pi) + 1",
        f"sys.exit(cli.main(['weight', '--in', {path!r}]))",
    )
    assert broken.returncode == 1 and json.loads(broken.stdout) == report


# t of CROSSING_WALK_TABLES, the weight-two point on the rays of 1,2,4 and 1,4,5.
CROSSING_POINT = {"k": 3, "n": 6, "rows": [["1", "1", "0"], ["1", "0", "0"]]}


@pytest.mark.parametrize("command", ["decompose", "weight"])
def test_a_crossing_walk_support_exits_1_with_one_error_line(command, tmp_path, capsys, monkeypatch):
    scope = {}
    exec("\n".join(CROSSING_WALK_TABLES), scope)
    assert ncfan.to_json_dict(scope["t"]) == CROSSING_POINT
    payload = CROSSING_POINT if command == "decompose" else (
        pluecker.to_json_dict(ladder.rho(scope["t"])))
    path = write_json(tmp_path, "in.json", payload)
    monkeypatch.setattr(ncfan, "_walk_tables", lambda k, n: scope["patched"])
    code = cli.main([command, "--in", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {CROSSING_WALK_ERROR}\n"
    # the same fault with asserts stripped
    broken = run_optimized(
        *CROSSING_WALK_TABLES,
        "import sys",
        "from tropnc import cli",
        "ncfan._walk_tables = lambda k, n: patched",
        f"sys.exit(cli.main([{command!r}, '--in', {path!r}]))",
    )
    assert broken.returncode == 1 and broken.stdout == ""
    assert broken.stderr == f"error: {CROSSING_WALK_ERROR}\n"


def test_a_crossing_walk_support_fails_verify_as_a_check(monkeypatch, capsys):
    # verify reports the invariant as a failed check: exit 1, a JSON report,
    # nothing on stderr.  Seed 1 has a weight sample in the start cone on
    # both rays of the pair (seed 0 has none).
    scope = {}
    exec("\n".join(CROSSING_WALK_TABLES), scope)
    monkeypatch.setattr(ncfan, "_walk_tables", lambda k, n: scope["patched"])
    ncfan.audit_fan.cache_clear()
    code = cli.main(["verify", "--k", "3", "--n", "6", "--seed", "1"])
    captured = capsys.readouterr()
    failed = {c["name"]: c["detail"] for c in json.loads(captured.out)["checks"] if not c["ok"]}
    assert code == 1 and captured.err == ""
    assert failed == {
        "fan_unimodular": ("facet of collection ['1,2,4', '1,2,5', '1,3,4', '3,5,6'] without ray "
                           "3,5,6 has 0 flip partners, not 1"),
        "weight_equality": CROSSING_WALK_ERROR,
    }
    # the same fault with asserts stripped
    main = ("import sys; from tropnc import cli; "
            "sys.exit(cli.main(['verify', '--k', '3', '--n', '6', '--seed', '1']))")
    broken = run_optimized(*CROSSING_WALK_TABLES, "ncfan._walk_tables = lambda k, n: patched", main)
    assert broken.returncode == 1 and broken.stderr == "" and broken.stdout == captured.out


def test_verify_checks_survive_python_O():
    main = "import sys; from tropnc import cli; sys.exit(cli.main(['verify', '--k', '3', '--n', '6']))"
    ok = run_optimized(main)
    assert ok.returncode == 0 and json.loads(ok.stdout)["ok"]
    broken = run_optimized(*DOUBLE_ONE_RAY, "ncfan._sparse_ray = doubled", main)
    checks = {c["name"]: c["ok"] for c in json.loads(broken.stdout)["checks"]}
    assert broken.returncode == 1 and checks["fan_unimodular"] is False
