import copy
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skeinlab.bigon_skein as B
import skeinlab.report as report
from skeinlab import suites
from skeinlab.cli import EXIT_PASS, EXIT_USAGE, main
from skeinlab.diagram import MAX_CLI_WIDTH, BasisTangle, SkeinElement
from skeinlab.report import REPORT_SCHEMA, Case, Report, validate_report_dict
from skeinlab.scalar import HalfLaurent, ScalarError
from skeinlab.suites import random_stated_word, run_suite
from skeinlab.syntax import (
    ParseError,
    format_diagram,
    format_element,
    parse_diagram,
    parse_element,
    parse_hopf,
    parse_scalar,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_reduce_command(capsys):
    code, out, _ = run_cli(capsys, "reduce", "tangle(0){cup0;cap0}")
    assert code == EXIT_PASS
    assert out == "(-s^4 - s^-4) * 1"


def test_functional_theta(capsys):
    code, out, _ = run_cli(capsys, "functional", "theta", "a")
    assert code == EXIT_PASS
    assert out == "-s^6"


def test_bracket_requires_closed(capsys):
    code, out, err = run_cli(capsys, "bracket", "tangle(1){} west=+ east=+")
    assert code == EXIT_USAGE
    assert "closed" in err
    code, _, err = run_cli(capsys, "bracket", "tangle(1){}")
    assert code == EXIT_USAGE  # missing states: parse-level arity error


def test_parse_error_reports_position(capsys):
    code, out, err = run_cli(capsys, "reduce", "tangle(2){x9}")
    assert code == EXIT_USAGE
    assert "column" in err
    code, out, err = run_cli(capsys, "mul", "1/0", "a")
    assert code == EXIT_USAGE
    assert "zero denominator" in err
    wide = MAX_CLI_WIDTH + 1
    code, out, err = run_cli(capsys, "reduce", f"tangle({wide}){{x0}} west={'+' * wide} east={'+' * wide}")
    assert code == EXIT_USAGE
    assert f"width {wide}" in err and f"bound {MAX_CLI_WIDTH}" in err
    code, out, err = run_cli(capsys, "mul", "a^ 100000", "a")
    assert code == EXIT_USAGE
    assert "exponent 100000 exceeds the bound" in err and "column 4" in err


def test_degrees_beyond_the_cli_bound_are_usage_errors(capsys):
    # The suites grow exponentially in --max-degree: these ran until killed.
    bound = suites.MAX_CLI_DEGREE
    assert bound >= 5  # CI runs verify st and verify comodule at degree 5
    for argv in (
        ("verify", "st", "--max-degree", "40"),
        ("verify", "hopf", "--max-degree", "40"),
        ("verify", "excision", "--max-degree", "1000"),
        ("verify", "all", "--max-degree", str(bound + 1)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert f"exceeds the bound {bound}" in err and not out
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == EXIT_PASS and f"at most {bound}" in out


def test_powers_beyond_the_size_bound_are_usage_errors(capsys):
    for text, column in (("((1+s)^64)^64", 11), ("(9/7+s+q)^256", 10), ("(a+b+c+d)^16", 10)):
        for parse in (parse_element, parse_hopf):
            with pytest.raises(ParseError, match=f"size bound.*column {column}"):
                parse(text)
        code, _, err = run_cli(capsys, "mul", text, "a")
        assert code == EXIT_USAGE and "size bound" in err
    code, _, _ = run_cli(capsys, "mul", "(1+s)^256", "1")
    assert code == EXIT_PASS


def test_negative_powers_of_unit_multiples(capsys):
    for parse in (parse_element, parse_hopf):
        assert parse("(q)^-1") == parse("q^-1")
        assert parse("(2*s)^-2") == parse("1/4*s^-2")
        with pytest.raises(ParseError, match="nonnegative powers"):
            parse("(a)^-1")
        with pytest.raises(ScalarError, match="not an invertible monomial"):
            parse("(1+s)^-1")
    code, out, _ = run_cli(capsys, "mul", "(q)^-1", "a")
    assert code == EXIT_PASS and out == "s^-2 * beta(+;+)"


def _readme_cli_lines() -> list[tuple[list[str], str]]:
    """(argv, comment) for each command line of the README ``## CLI`` block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "skeinlab"
        lines.append((argv[1:], comment.strip()))
    return lines


def test_readme_cli_lines_run(capsys):
    # verify runs are covered by the acceptance criteria.
    lines = [(argv, comment) for argv, comment in _readme_cli_lines() if argv[0] != "verify"]
    assert len(lines) == 10
    for argv, comment in lines:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PASS, (argv, err)
        assert out
        if argv[0] == "functional":
            # The comment states the value: "-s^6, i.e. -q^3" or "co-R form, q".
            want = comment.split(",")[0] if argv[1] == "theta" else comment.split(", ")[-1]
            assert parse_scalar(out) == parse_scalar(want), (argv, out)


def test_readme_quick_tour_runs():
    # Each commented line's value prints as its comment, up to an optional ": ".
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imports, body = block.strip().split("\n\n", 1)
    namespace: dict = {}
    exec(imports, namespace)
    checked = 0
    for line in body.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        want = comment.strip().split(": ", 1)[0]
        assert str(eval(code, namespace)) == want, line
        checked += 1
    assert checked == 6


def test_mul_and_inv(capsys):
    code, out, _ = run_cli(capsys, "mul", "a", "d")
    assert code == EXIT_PASS and out == "beta(+-;+-)"
    code, out, _ = run_cli(capsys, "inv", "b")
    assert code == EXIT_PASS and out == "s^-1 * beta(+;+)"


def test_verify_json_schema(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "verify", "hopf", "--max-degree", "1", "--json"
    )
    assert code == EXIT_PASS
    data = json.loads(out)
    jsonschema.validate(data, REPORT_SCHEMA)
    validate_report_dict(data)
    assert data["totals"]["fail"] == 0


def _valid_report():
    return Report("x", {}, [Case("ok", "pass"), Case("no", "fail", "witness")], 0.5).to_dict()


def _case_without_name(data):
    data["cases"][0] = {"status": "pass", "witness": None, "extra": 1}


def _extra_total(data):
    data["totals"]["skipped"] = 0


def _negative_wall_time(data):
    data["wall_time"] = -1.0


@pytest.mark.parametrize("breaks", [_case_without_name, _extra_total, _negative_wall_time])
def test_report_validation_follows_the_schema(breaks):
    data = _valid_report()
    jsonschema.validate(data, REPORT_SCHEMA)
    validate_report_dict(data)
    breaks(data)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)
    with pytest.raises(ValueError):
        validate_report_dict(data)


@pytest.mark.parametrize(
    "key, value",
    [
        ("suite", 5),
        ("parameters", []),
        ("totals", {"pass": True, "fail": False, "total": 1}),
        ("wall_time", True),
    ],
)
def test_report_validation_checks_types_as_the_schema_does(key, value):
    # bool is an int in Python but neither an integer nor a number in JSON Schema.
    data = dict(_valid_report(), cases=[Case("ok", "pass").to_dict()], totals={"pass": 1, "fail": 0, "total": 1})
    jsonschema.validate(data, REPORT_SCHEMA)
    validate_report_dict(data)
    data[key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)
    with pytest.raises(ValueError):
        validate_report_dict(data)


def test_report_validation_takes_integral_floats_as_integers():
    data = dict(_valid_report(), totals={"pass": 1.0, "fail": 1, "total": 2}, wall_time=3)
    jsonschema.validate(data, REPORT_SCHEMA)
    validate_report_dict(data)


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.integers(-4, 6).map(lambda n: n / 2)
    | st.floats(allow_nan=False)
    | st.sampled_from(["pass", "fail", "", "x"])
)
_JSON_VALUES = _JSON_LEAVES | st.lists(_JSON_LEAVES, max_size=2) | st.dictionaries(st.text(max_size=2), _JSON_LEAVES, max_size=2)
#: Where a mutation replaces or drops a value: a top-level key, a totals
#: entry, a case or a case's field, each known or unknown to the schema.
_MUTATION_PATHS = [
    *[(key,) for key in ("suite", "parameters", "cases", "totals", "wall_time", "extra")],
    *[("totals", key) for key in ("pass", "fail", "total", "skipped")],
    *[("cases", i) for i in range(3)],
    *[("cases", 0, key) for key in ("name", "status", "witness", "extra")],
]


def _mutate(data, path, value):
    """Put ``value[0]`` at ``path``, or drop what is there if ``value`` is None.
    A path whose parent is gone or not a container is left alone; a case
    one past the last is appended."""
    *parents, last = path
    for key in parents:
        if not (isinstance(data, dict) and key in data or isinstance(data, list) and key < len(data)):
            return
        data = data[key]
    if isinstance(data, dict):
        data.pop(last, None)
        if value:
            data[last] = value[0]
    elif isinstance(data, list) and isinstance(last, int) and last <= len(data):
        data[last : last + 1] = value or []


@settings(max_examples=400, deadline=None)
@example([(("totals", "pass"), (0.5,)), (("totals", "fail"), (1.5,))])
@given(st.lists(st.tuples(st.sampled_from(_MUTATION_PATHS), st.none() | st.tuples(_JSON_VALUES)), min_size=1, max_size=3))
def test_report_validation_accepts_what_the_schema_and_the_totals_accept(mutations):
    data = _valid_report()
    for path, value in mutations:
        _mutate(data, path, value)
    totals = data.get("totals")
    expected = jsonschema.Draft202012Validator(REPORT_SCHEMA).is_valid(data) and (
        totals["pass"] + totals["fail"] == totals["total"] == len(data["cases"])
    )
    try:
        validate_report_dict(data)
    except ValueError:
        assert not expected, data
    else:
        assert expected, data


def test_report_validation_rejects_a_nan_wall_time():
    # Stricter than jsonschema, which takes NaN as at least 0.
    data = dict(_valid_report(), wall_time=float("nan"))
    jsonschema.validate(data, REPORT_SCHEMA)
    with pytest.raises(ValueError, match=r"report\.wall_time"):
        validate_report_dict(data)


def test_report_validation_reads_the_schema_itself(monkeypatch):
    # A field added to the schema alone is checked: here a case's wall time.
    schema = copy.deepcopy(REPORT_SCHEMA)
    case_schema = schema["properties"]["cases"]["items"]
    case_schema["required"].append("wall_time")
    case_schema["properties"]["wall_time"] = {"type": "number", "minimum": 0}
    monkeypatch.setattr(report, "REPORT_SCHEMA", schema)
    data = _valid_report()
    with pytest.raises(ValueError, match=r"report\.cases\[0\]"):
        validate_report_dict(data)
    for case in data["cases"]:
        case["wall_time"] = 0.25
    validate_report_dict(data)
    data["cases"][1]["wall_time"] = "0.25"
    with pytest.raises(ValueError, match=r"report\.cases\[1\]\.wall_time"):
        validate_report_dict(data)


#: The keywords that ``report._check`` reads, and ``$schema``, which names the draft.
_CHECKED_KEYWORDS = {"$schema", "type", "enum", "minimum", "required", "properties", "additionalProperties", "items"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_report_schema_uses_only_the_keywords_the_validator_reads():
    for schema in _subschemas(REPORT_SCHEMA):
        assert set(schema) <= _CHECKED_KEYWORDS, schema
        # The validator knows only ``additionalProperties: false``, and tests
        # ``enum`` with Python's ==, which agrees with JSON's on strings.
        assert schema.get("additionalProperties", False) is False, schema
        assert all(isinstance(v, str) for v in schema.get("enum", [])), schema


def test_cli_import_loads_no_dataclasses_or_inspect():
    # A fresh interpreter, as every CLI call is: start-up pays for each module imported.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, skeinlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-s", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_text_and_json_agree(capsys):
    code_t, out_t, _ = run_cli(capsys, "verify", "braidop", "--max-degree", "1")
    code_j, out_j, _ = run_cli(capsys, "verify", "braidop", "--max-degree", "1", "--json")
    assert code_t == code_j == EXIT_PASS
    data = json.loads(out_j)
    assert (data["totals"]["fail"] == 0) == ("FAIL" not in out_t)


def test_verify_rejects_degenerate_spec_point(capsys):
    code, _, err = run_cli(capsys, "verify", "hopf", "--spec", "1")
    assert code == EXIT_USAGE
    assert "generic" in err


def test_verify_rejects_a_spec_point_degenerate_mod_p(capsys):
    # 2^31 = 1 mod P = 2^31 - 1, the prime every point rank is taken over.
    for spec in ("2147483648", "1/2147483647"):
        code, _, err = run_cli(capsys, "verify", "hopf", "--spec", spec)
        assert code == EXIT_USAGE
        assert spec in err and "2147483647" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE


def test_st_degree_bounds_matching_points(capsys):
    # D arcs are 2D boundary points; the report carries only the three parameters.
    code, out, _ = run_cli(capsys, "verify", "st", "--max-degree", "2", "--json")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["totals"]["fail"] == 0
    assert all("<= 4 points" in case["name"] for case in data["cases"])
    assert set(data["parameters"]) == {"max_degree", "specializations", "seed"}


def test_negative_bounds_are_usage_errors(capsys):
    # A negative bound would make every check pass vacuously.
    for argv in (
        ("verify", "hopf", "--max-degree", "-1"),
        ("verify", "excision", "--max-degree", "-1"),
        ("verify", "st", "--max-degree", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "non-negative" in err and not out
    # Only verify runs suites, and --max-degree is its one size bound.
    for argv in (("st",), ("verify", "st", "--max-points", "8"), ("verify", "rt", "--oracle-words", "5")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert not out


def random_coeff(rng: random.Random) -> Fraction:
    """Integers of one and two digits and fractions, either sign."""
    return Fraction(rng.randrange(-99, 100), rng.choice((1, 1, 2, 7, 12)))


def random_element(rng: random.Random) -> SkeinElement:
    out = SkeinElement.zero()
    for _ in range(rng.randrange(1, 4)):
        n = rng.randrange(0, 4)
        mu = tuple(sorted((rng.choice((1, -1)) for _ in range(n)), reverse=True))
        nu = tuple(sorted((rng.choice((1, -1)) for _ in range(n)), reverse=True))
        coeff = HalfLaurent(
            {rng.randrange(-6, 7): random_coeff(rng) for _ in range(rng.randrange(1, 3))}
        )
        if coeff.is_zero():
            coeff = HalfLaurent.one()
        out = out + SkeinElement.of(BasisTangle(n, mu, nu), coeff)
    return out


def test_element_roundtrip_500():
    rng = random.Random(99)
    for _ in range(500):
        x = random_element(rng)
        assert parse_element(format_element(x)) == x


def test_hopf_roundtrip():
    from skeinlab.quantum_sl2 import HopfElement, pbw_monomials
    from skeinlab.syntax import format_hopf

    rng = random.Random(5)
    mons = pbw_monomials(3)
    for _ in range(100):
        x = HopfElement.zero()
        for _ in range(rng.randrange(1, 4)):
            coeff = HalfLaurent({rng.randrange(-4, 5): random_coeff(rng)})
            if coeff.is_zero():
                coeff = HalfLaurent.one()
            x = x + HopfElement.of(rng.choice(mons), coeff)
        assert parse_hopf(format_hopf(x)) == x


def test_diagram_roundtrip_random():
    rng = random.Random(31)
    for _ in range(200):
        d = random_stated_word(rng)
        assert parse_diagram(format_diagram(d)) == d


def test_report_json_roundtrip():
    report = run_suite("braidop", max_degree=1)
    data = json.loads(report.to_json())
    assert data == report.to_dict()
    assert data["totals"]["total"] == len(report.cases)


def test_every_suite_passes_at_degree_zero():
    report = run_suite("all", max_degree=0)
    failed = [(case.name, case.witness) for case in report.cases if case.status != "pass"]
    assert report.cases and not failed, failed


def test_capped_labels_name_the_bound_their_case_runs_to(monkeypatch):
    monkeypatch.setattr(suites, "PAIR_STRANDS", 1)
    cases = dict(suites.build_suite("hopf", 3))
    algebra_map = cases["coproduct is an algebra morphism (<= 1 strand factors)"]
    assert algebra_map.keywords == {"strands": 1}
    rot = cases["rot_*: involution (<= 3 strands), algebra map, coproduct-reversing (<= 1 strands)"]
    assert rot.keywords == {"strands": 3, "pair_strands": 1}
    enumerated = []
    basis_tangles = B.basis_tangles
    monkeypatch.setattr(B, "basis_tangles", lambda n: enumerated.append(n) or basis_tangles(n))
    assert algebra_map() is None and enumerated == [1]
    # A label must name every bound of its case, and only those.
    for template, bounds in (("counit laws on <= 3 strands", {"strands": 2}), ("on <= {strands}", {})):
        with pytest.raises(ValueError):
            suites._case(template, suites.counit_law, **bounds)


@pytest.mark.parametrize(
    "suite, label",
    [
        ("iso", "transport roundtrips on degree <= 4"),
        ("excision", "exact containment of the splitting image in the cotensor kernel (n <= 4)"),
    ],
)
def test_uncapped_labels_read_the_max_degree(capsys, suite, label):
    code, out, _ = run_cli(capsys, "verify", suite, "--max-degree", "4", "--json")
    assert code == EXIT_PASS
    statuses = {case["name"]: case["status"] for case in json.loads(out)["cases"]}
    assert statuses[label] == "pass"


def test_help_exits_cleanly(capsys):
    code = main(["--help"])
    assert code == EXIT_PASS


def test_emit_report_exit_codes(capsys):
    from skeinlab.cli import _emit_report

    good = Report(suite="x", parameters={}, cases=[Case("ok", "pass")])
    bad = Report(suite="x", parameters={}, cases=[Case("no", "fail", "witness")])
    assert _emit_report(good, as_json=False) == EXIT_PASS
    assert _emit_report(bad, as_json=False) == 1
    out = capsys.readouterr().out
    assert "witness" in out


_GRAMMAR_CHARS = "abcdsqtangleuwxp+-*^()/;{}=, 0123456789"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30) | st.text(alphabet=_GRAMMAR_CHARS, max_size=30))
@example("1/0")
@example("12*a")
@example("\u00b9")  # a superscript digit: str.isdigit() is true, int() rejects it
@example("9^9999999")
@example("a^100000")
@example("1" * 5000)
@example("((1+s)^64)^64")
@example("(9/7+s+q)^256")
@example("(a+b+c+d)^16")
def test_parsers_never_crash_on_junk(text):
    for fn in (parse_scalar, parse_element, parse_hopf, parse_diagram):
        try:
            fn(text)
        except (ParseError, ScalarError):
            pass
