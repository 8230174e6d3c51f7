import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st, given

from superprolong.cli import main


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    code = exc.value.code if exc.value.code is not None else 0
    return code, out.out, out.err


def test_prolong_stabilized_exit_zero(capsys):
    code, out, _ = run_cli(
        ["prolong", "--name", "odd_ode_symbol:3", "--g0", "scalings"], capsys
    )
    assert code == 0
    assert "total    (4|4)" in out
    assert "in the strong sense" in out


def test_prolong_truncated_exit_three(capsys):
    code, out, _ = run_cli(
        ["prolong", "--name", "skew_cpe:2", "--max-degree", "3"], capsys
    )
    assert code == 3
    assert "not stabilized" in out


def test_prolong_json_round_trips(capsys):
    code, out, _ = run_cli(
        ["prolong", "--name", "odd_ode_symbol:2", "--g0", "scalings",
         "--format", "json", "--constants"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == {"even": 4, "odd": 4}
    from superprolong.cli import read_algebra
    from superprolong.liesuper import validate

    alg = read_algebra(data["algebra"])
    assert validate(alg) == []


def test_field_option_is_a_usage_error(capsys):
    # there is no --field option: argparse rejects it with its usage error,
    # the documented input-error code, instead of ignoring it
    code, _, err = run_cli(
        ["prolong", "--name", "supertranslation:2", "--field", "Q"], capsys
    )
    assert code == 2
    assert "unrecognized arguments: --field" in err


def test_unknown_name_exit_two(capsys):
    code, _, err = run_cli(["prolong", "--name", "not_a_thing"], capsys)
    assert code == 2
    assert "input error" in err


def _shc_json():
    from superprolong.catalog import shc_symbol

    return shc_symbol().to_json()


def _unknown_basis_vector():
    data = _shc_json()
    data["brackets"][0]["result"][0]["basis"] = "W"
    return json.dumps(data)


@pytest.mark.parametrize("command", ["prolong", "cohomology"])
@pytest.mark.parametrize(
    "text, message",
    [(_unknown_basis_vector, "brackets[0].result[0].basis: unknown basis vector 'W'"),
     (lambda: json.dumps(_shc_json())[:40], "Expecting")],
    ids=["unknown-basis-vector", "truncated-json"],
)
def test_bad_algebra_input_exit_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "alg.json"
    path.write_text(text())
    argv = [command, "--input", str(path)]
    if command == "cohomology":
        argv += ["--d", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: %s: " % path)
    assert message in err
    assert err.count("\n") == 1


def _bracket_listed_twice():
    data = _shc_json()
    data["brackets"].append(data["brackets"][0])
    return json.dumps(data)


@pytest.mark.parametrize("command", ["prolong", "cohomology"])
def test_bracket_listed_twice_exit_two(tmp_path, capsys, command):
    path = tmp_path / "dup.json"
    path.write_text(_bracket_listed_twice())
    argv = [command, "--input", str(path)]
    if command == "cohomology":
        argv += ["--d", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: brackets[%d]: bracket [e1, e2] listed twice\n" % (
        path, len(_shc_json()["brackets"])
    )


def _basis_vector_named_twice():
    data = _shc_json()
    data["brackets"][0]["result"] = [
        {"basis": "h", "coeff": "1"}, {"basis": "h", "coeff": "2"}
    ]
    return json.dumps(data)


def _float_coefficient():
    data = _shc_json()
    data["brackets"][0]["result"][0]["coeff"] = 0.5
    return json.dumps(data)


def _zero_denominator():
    data = _shc_json()
    data["brackets"][0]["result"][0]["coeff"] = "1/0"
    return json.dumps(data)


def _gaussian_coefficient_under_q():
    data = _shc_json()
    assert data["field"] == "Q"
    data["brackets"][0]["result"][0]["coeff"] = "0+1*i"
    return json.dumps(data)


@pytest.mark.parametrize("command", ["prolong", "cohomology"])
@pytest.mark.parametrize(
    "text, message",
    [(_basis_vector_named_twice, "brackets[0].result[1].basis: h named twice"),
     (_float_coefficient, 'brackets[0].result[0].coeff: '
      'coefficient 0.5 is neither a "p/q" string nor an integer'),
     (_zero_denominator, "brackets[0].result[0].coeff: scalar '1/0' has a zero denominator"),
     (_gaussian_coefficient_under_q,
      'brackets[0].result[0].coeff: Gaussian coefficient 0+1*i under field "Q"')],
    ids=["basis-vector-named-twice", "float-coefficient", "zero-denominator",
         "gaussian-under-q"],
)
def test_malformed_bracket_result_exit_two(tmp_path, capsys, command, text, message):
    path = tmp_path / "alg.json"
    path.write_text(text())
    argv = [command, "--input", str(path)]
    if command == "cohomology":
        argv += ["--d", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize(
    "degree", [-1.5, True, "-1"], ids=["float", "bool", "string"]
)
def test_algebra_degree_must_be_a_json_integer(tmp_path, capsys, degree):
    data = _shc_json()
    data["basis"][0]["degree"] = degree
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: basis[0].degree: expected an integer, got %s\n" % (
        path, json.dumps(degree)
    )


@pytest.mark.parametrize(
    "parity", [False, True, 0.0, 1.0], ids=["false", "true", "float0", "float1"]
)
def test_algebra_parity_must_be_a_name_or_an_integer(tmp_path, capsys, parity):
    data = _shc_json()
    data["basis"][0]["parity"] = parity
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: basis[0].parity: bad parity %r\n" % (path, parity)


@pytest.mark.parametrize(
    "field, message",
    [("R", 'expected "Q" or "Qi", got "R"'),
     ("Q(i)", 'expected "Q" or "Qi", got "Q(i)"'),
     (0, "expected a string, got 0"), (None, "expected a string, got null")],
    ids=["R", "Q(i)", "zero", "null"],
)
def test_algebra_field_must_be_q_or_qi(tmp_path, capsys, field, message):
    data = _shc_json()
    data["field"] = field
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: field: %s\n" % (path, message)


@pytest.mark.parametrize(
    "argv, message",
    [(["prolong", "--name", "spe_ab:2:1/0:1"],
      "'spe_ab:2:1/0:1': spe_ab argument a '1/0' has a zero denominator"),
     (["prolong", "--name", "spe_ab:2:1:0/0"],
      "'spe_ab:2:1:0/0': spe_ab argument b '0/0' has a zero denominator"),
     (["odesym", "--order", "3", "--rhs", "1/0*xi"],
      "number '1/0' has a zero denominator")],
    ids=["spe_ab-a", "spe_ab-b", "odesym-rhs"],
)
def test_zero_denominator_exit_two(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s\n" % message


def _zero_denominator_field():
    return {
        "ambient": {"even": ["x", "y"], "odd": ["t"]},
        "generators": [
            "@y",
            {"coefficients": [
                {"direction": "x",
                 "monomials": [{"x_exponents": [0, 0], "coeff": "1/0"}]}
            ]},
        ],
    }


def _bracket_result_object():
    data = _shc_json()
    data["brackets"][0]["result"] = {"basis": "h", "coeff": "1"}
    return data


_CONTACT_WITH_A_NUMBER = {"ambient": {"even": ["x"], "odd": ["xi", "xi1"]},
                          "generators": ["@x + xi1*@xi", 5]}


@pytest.mark.parametrize(
    "command, data, message",
    [("odesym", lambda: {"rhs": "xi2"}, "order: missing\n"),
     ("odesym", lambda: {"order": 3}, "rhs: missing\n"),
     ("prolong", lambda: [1, 2], "expected a JSON object, got list"),
     ("symbol", lambda: [1, 2], "expected a JSON object, got list"),
     ("odesym", lambda: [1, 2], "expected a JSON object, got list"),
     ("odesym", lambda: {"order": 3, "rhs": "xi2", "basis": [2]},
      "basis: expected an object, got [2]\n"),
     ("prolong", _bracket_result_object,
      'brackets[0].result: expected an array, got {"basis": "h", "coeff": "1"}\n'),
     ("symbol", lambda: _CONTACT_WITH_A_NUMBER,
      "generators[1]: expected a string or an object, got 5\n"),
     ("symbol", lambda: {"ambient": {"even": ["x"], "odd": []}, "generators": "@x"},
      'generators: expected an array, got "@x"\n'),
     ("symbol", _zero_denominator_field, "generators[1].coefficients[0].monomials[0]"
      ".coeff: scalar '1/0' has a zero denominator\n")],
    ids=["ode-without-order", "ode-without-rhs", "prolong-array", "symbol-array",
         "odesym-array", "ode-basis-list", "bracket-result-object",
         "generator-number", "generators-string", "field-zero-denominator"],
)
def test_json_input_of_the_wrong_shape_exit_two(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data()))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: %s: %s" % (path, message))
    assert err.count("\n") == 1 and "Traceback" not in err


def _theta_table(theta):
    return {"coefficients": [
        {"direction": "xi", "monomials": [{"theta_subset": theta, "coeff": "1"}]}
    ]}


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
@pytest.mark.parametrize(
    "theta, message",
    [(["x"], "theta_subset[0]: unknown odd coordinate 'x'"),
     ({"xi1": 1}, 'theta_subset: expected an array, got {"xi1": 1}'),
     ("xi", 'theta_subset: expected an array, got "xi"')],
    ids=["even-name", "object", "string"],
)
def test_theta_subset_is_a_list_of_odd_coordinates(tmp_path, capsys, command, theta, message):
    # the even "x" was multiplied in and then dropped, reading as @xi
    data = {"ambient": {"even": ["x"], "odd": ["xi", "xi1"]},
            "generators": ["@xi1", _theta_table(theta)]}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: generators[1].coefficients[0].monomials[0].%s\n" % (
        path, message
    )


def _shc_with_e1_named(name):
    def rename(entry, key):
        return dict(entry, **{key: name}) if entry[key] == "e1" else entry

    data = _shc_json()
    data["basis"] = [rename(b, "name") for b in data["basis"]]
    data["brackets"] = [
        dict(rename(rename(b, "left"), "right"),
             result=[rename(t, "basis") for t in b["result"]])
        for b in data["brackets"]
    ]
    return data


def _shc_basis_named(i, name):
    data = _shc_json()
    data["basis"][i]["name"] = name
    return data


def _heisenberg_with_a_number_name():
    from superprolong.catalog import build_named

    data = build_named("heisenberg_contact:2|0").to_json()
    data["basis"][0]["name"] = 1.5
    return data


def _shc_bracket(key, value):
    data = _shc_json()
    data["brackets"][0][key] = value
    return data


def _shc_result_basis(value):
    data = _shc_json()
    data["brackets"][0]["result"][0]["basis"] = value
    return data


@pytest.mark.parametrize("command", ["prolong", "cohomology"])
@pytest.mark.parametrize(
    "data, message",
    [(lambda: _shc_with_e1_named(7), "basis[0].name: expected a string, got 7"),
     (_heisenberg_with_a_number_name, "basis[0].name: expected a string, got 1.5"),
     (lambda: _shc_bracket("left", 7), "brackets[0].left: unknown basis vector 7"),
     (lambda: _shc_bracket("right", "W"), "brackets[0].right: unknown basis vector 'W'"),
     (lambda: _shc_result_basis(["h"]),
      "brackets[0].result[0].basis: unknown basis vector ['h']"),
     (lambda: _shc_basis_named(1, "e1"), "basis[1].name: duplicate basis name 'e1'")],
    ids=["shc-e1-named-7", "heisenberg-name-1.5", "left-number", "right-unknown",
         "result-basis-list", "duplicate-name"],
)
def test_algebra_names_are_strings_of_the_basis(tmp_path, capsys, command, data, message):
    # a numeric name prolonged SHC to (17|14) and was written back as 7
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data()))
    argv = [command, "--input", str(path)]
    if command == "cohomology":
        argv += ["--d", "0"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


def test_failed_validation_names_the_file_and_the_first_violation(tmp_path, capsys):
    # deleting [th1p, rho1] from SHC breaks super Jacobi on (e1, th1p, th2p)
    data = _shc_json()
    data["brackets"] = [
        b for b in data["brackets"] if (b["left"], b["right"]) != ("th1p", "rho1")
    ]
    path = tmp_path / "shc_broken.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: input algebra fails validation: "
        "jacobi at (e1, th1p, th2p): defect f1: 1\n" % path
    )


def test_prolong_of_an_algebra_with_a_nonnegative_degree_exit_two(tmp_path, capsys):
    # algebra JSON carries no matrices, so a degree-0 gl(1|1) read from a
    # file is no structure algebra, and no symbol either
    from superprolong.catalog import gl

    path = tmp_path / "gl11.json"
    path.write_text(json.dumps(gl(1, 1).to_json()))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: symbol algebra must live in negative degrees, "
        "got degrees 0\n" % path
    )
    code, out, err = run_cli(["prolong", "--name", "sl_graded:2|1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: 'sl_graded:2|1': symbol algebra")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_prolongation_error_names_the_input_file(tmp_path, capsys):
    # an abelian symbol in degrees -1, -1, -2 is not generated by its
    # degree -1 part, so prolong refuses it before the first step
    basis = [{"name": n, "degree": d, "parity": "even"}
             for n, d in (("a", -1), ("b", -1), ("c", -2))]
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"basis": basis}))
    code, out, err = run_cli(["prolong", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: m is not fundamental: c is not generated from "
        "degree -1\n" % path
    )


def test_cohomology_table(capsys):
    code, out, _ = run_cli(
        ["cohomology", "--name", "sl_graded:2|1", "--d", "1..2", "--k", "1"],
        capsys,
    )
    assert code == 0
    assert out.count("(0|0)") == 2


def test_check_regular_fail_exit_four(tmp_path, capsys):
    data = {
        "ambient": {"even": ["x", "u", "p", "q", "z"], "odd": ["theta", "nu"]},
        "generators": [
            {"name": "Dx", "expr": "@x + p*@u + q*@p + q^2*@z"},
            {"name": "Dq", "expr": "@q"},
            {"name": "Dth", "expr": "@theta + q*@nu + theta*@p + 2*nu*@z"},
        ],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["check-regular", "--input", str(path)], capsys)
    assert code == 4
    assert "FAIL" in out
    assert "theta*@u" in out


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
def test_distribution_bad_x_exponents_exit_two(tmp_path, capsys, command):
    data = {
        "ambient": {"even": ["x", "y"], "odd": ["t"]},
        "generators": [
            "@y",
            {"coefficients": [
                {"direction": "x",
                 "monomials": [{"x_exponents": [1], "coeff": "1"}]}
            ]},
        ],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: generators[1].coefficients[0].monomials[0].x_exponents: "
        "need one nonnegative integer per even coordinate (2), got [1]\n" % path
    )


def _x_table(exponent, **extra):
    return dict(extra, coefficients=[
        {"direction": "x",
         "monomials": [{"x_exponents": [exponent], "coeff": "1"}]}
    ])


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
@pytest.mark.parametrize(
    "generators, message",
    [([], "generators: must not be empty"),
     ([{"name": ["Dx"], "expr": "@x"}, "@xi1"],
      'generators[0].name: expected a string or null, got ["Dx"]'),
     ([_x_table(0, name={"a": 1}), "@xi1"],
      'generators[0].name: expected a string or null, got {"a": 1}'),
     (["@xi1", _x_table(20)],
      "generators[1].coefficients[0].monomials[0].x_exponents: "
      "even degree 20 exceeds degree_cap 8"),
     (["@xi1", "@x - @x"], "generators[1]: zero generator"),
     (["@xi1", _x_table(0, name=None)], None)],
    ids=["empty", "name-list", "name-object", "exponent-above-cap", "zero",
         "name-null"],
)
def test_distribution_generators_are_checked_at_read_time(
    tmp_path, capsys, command, generators, message
):
    data = {"ambient": {"even": ["x"], "odd": ["xi", "xi1"]}, "degree_cap": 8,
            "generators": generators}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    if message is None:  # a null name is no name
        assert (code, err) == (0, "")
        return
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
def test_degree_cap_exceeded_in_the_derived_flag_exit_two(tmp_path, capsys, command):
    # [y^5 @x, x^5 @y] has coefficients of even degree 9
    data = {"ambient": {"even": ["x", "y", "z"], "odd": []},
            "generators": ["y^5*@x", "x^5*@y"]}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: even degree cap 8 exceeded in a product; "
        "raise degree_cap\n" % path
    )


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
def test_distribution_float_coefficient_exit_two(tmp_path, capsys, command):
    data = {
        "ambient": {"even": ["x", "y"], "odd": ["t"]},
        "generators": [
            "@y",
            {"coefficients": [
                {"direction": "x",
                 "monomials": [{"x_exponents": [0, 0], "coeff": 0.5}]}
            ]},
        ],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: generators[1].coefficients[0].monomials[0].coeff: "
        'coefficient 0.5 is neither a "p/q" string nor an integer\n' % path
    )


def test_check_regular_is_decided_at_the_base_point(tmp_path, capsys):
    # @y - x*@y vanishes on x = 1, away from the base point x0 = 0
    data = {"ambient": {"even": ["x", "y"], "odd": []},
            "generators": ["@x", "@y - x*@y"]}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["check-regular", "--input", str(path)], capsys)
    assert code == 0
    assert "strongly regular: PASS" in out


# each subcommand with its required options; the input file is never opened
_REQUIRED = {
    "prolong": ["--name", "shc_symbol"],
    "cohomology": ["--name", "shc_symbol", "--d", "0"],
    "symbol": ["--input", "dist.json"],
    "check-regular": ["--input", "dist.json"],
    "odesym": [],
}


def _usage_case(argv, message):
    return pytest.param(argv, message, id=" ".join(argv))


@pytest.mark.parametrize(
    "argv, message",
    [_usage_case([c] + req + ["--seed", "0"], "unrecognized arguments: --seed")
     for c, req in _REQUIRED.items()]
    + [_usage_case([c] + _REQUIRED[c] + ["--name", "shc_symbol"],
                   "unrecognized arguments: --name")
       for c in ("symbol", "check-regular", "odesym")]
    + [_usage_case([c], "the following arguments are required: --input")
       for c in ("symbol", "check-regular")]
    + [_usage_case(["prolong", "--name", "shc_symbol", "--input", "alg.json"],
                   "argument --input: not allowed with argument --name"),
       _usage_case(["cohomology", "--d", "0"],
                   "one of the arguments --name --input is required")],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err
    assert "Traceback" not in err


def test_symbol_pass_json(tmp_path, capsys):
    data = {
        "ambient": {"even": ["x"], "odd": ["xi", "xi1"]},
        "generators": ["@x + xi1*@xi", "@xi1"],
    }
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["symbol", "--input", str(path), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regular"] is True
    from superprolong.cli import read_algebra
    from superprolong.liesuper import validate

    sym = read_algebra(payload["symbol"])
    assert validate(sym) == []
    assert sym.space.superdim() == (1, 2)


def test_odesym_text_report(capsys):
    code, out, _ = run_cli(
        ["odesym", "--order", "3", "--rhs", "xi2", "--poly-degree", "2"],
        capsys,
    )
    assert code == 0
    assert "(2|3)" in out
    assert "exp(x)" in out
    assert "bracket table" in out


def test_odesym_closure_runs_up_to_the_bound(capsys):
    # the ansatz holds x^0..x^4 and order 40 needs x^5..x^39: the closure
    # adopts those 35 generators, up to the bound (4|40)
    code, out, _ = run_cli(["odesym", "--order", "40", "--rhs", "0"], capsys)
    assert code == 0
    assert "symmetry superdimension: (4|40)" in out
    assert "prolongation bound: (4|40)  (completeness certified)" in out
    assert out.count("note: closure adopted") == 35


def test_odesym_bad_rhs_exit_two(capsys):
    code, _, err = run_cli(["odesym", "--order", "2", "--rhs", "x"], capsys)
    assert code == 2


def test_missing_command_exit_two(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_paper_suite_flag(capsys):
    code, out, _ = run_cli(["--paper-suite"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 30


def test_paper_suite_fails_on_result_without_expected_value(capsys, monkeypatch):
    from superprolong import papersuite

    expected = papersuite.expected_results()
    monkeypatch.setattr(
        papersuite, "collect_results", lambda: dict(expected, unchecked=1)
    )
    code, out, _ = run_cli(["--paper-suite"], capsys)
    assert code == 1
    assert "FAIL  unchecked  (got 1, not in the expected file)" in out.splitlines()
    assert out.count("FAIL") == 1 and out.count("PASS") == len(expected)
    monkeypatch.setattr(papersuite, "collect_results", lambda: dict(expected))
    assert papersuite.run_suite(verbose=False) is True


@pytest.mark.parametrize(
    "order, degree, message",
    [(1, 4, "order must be >= 2"), (0, 4, "order must be >= 2"),
     (3, -1, "poly_degree must be >= 0")],
    ids=["order1", "order0", "degree-1"],
)
def test_odesym_rejects_unsolvable_order_or_degree(
    tmp_path, capsys, order, degree, message
):
    code, out, err = run_cli(
        ["odesym", "--order", str(order), "--rhs", "0",
         "--poly-degree", str(degree)],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "input error: %s\n" % message
    path = tmp_path / "ode.json"
    path.write_text(
        json.dumps({"order": order, "rhs": "0", "basis": {"poly_degree": degree}})
    )
    code, out, err = run_cli(["odesym", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--d", "0", "--k", "-1"], "--k must be >= 0, got -1"),
        (["--d", "x"], "--d expects a degree or a range lo..hi, got 'x'"),
        (["--d", "1..x"], "--d expects a degree or a range lo..hi, got '1..x'"),
        (["--d", "3..1"], "--d range 3..1 is empty"),
    ],
    ids=["negative-k", "bad-degree", "bad-range-end", "empty-range"],
)
def test_cohomology_bad_degree_or_k_exit_two(capsys, flags, message):
    code, out, err = run_cli(
        ["cohomology", "--name", "sl_graded:2|1"] + flags, capsys
    )
    assert (code, out) == (2, "")
    assert err == "input error: %s\n" % message


def _input_error_case(argv, message):
    return pytest.param(argv, message, id=" ".join(argv))


_ODE_FILE = "ode.json"


@pytest.mark.parametrize(
    "argv, message",
    [_input_error_case(["prolong", "--name", spec],
                       "%r: expected the form %s" % (spec, form))
     for spec, form in (("pe", "pe:n"), ("gl", "gl:p|q"),
                        ("spe_ab:2:1", "spe_ab:n:a:b"),
                        ("osp:2|2:5", "osp:p|q"),
                        # an empty field is refused, not dropped
                        ("shc_symbol:", "shc_symbol"),
                        ("shc_symbol()", "shc_symbol"), ("pe:2:", "pe:n"))]
    + [_input_error_case(["prolong", "--name", name] + flags, message)
       for name, flags, message in (
           ("shc_symbol", ["--max-degree", "-1"],
            "'shc_symbol': max_degree must be an int >= 0, got -1"),
           ("gl:2|1", ["--reduce", "12:zero"],
            "'gl:2|1': reduction 0 has degree 12, not an int in 0..9 "
            "(max_degree)"))]
    + [_input_error_case(["prolong", "--name", name, "--g0", g0], message)
       for name, g0, message in (
           ("abelian:2|1", "gl:2|2",
            "--g0 'gl:2|2' acts on dimension 4, but m has dimension 3"),
           ("abelian:2|1", "gl:1|1",
            "--g0 'gl:1|1' acts on dimension 2, but m has dimension 3"),
           # a smaller realization would act on the first coordinates only
           ("abelian:3|0", "gl:2|0",
            "--g0 'gl:2|0' acts on dimension 2, but m has dimension 3"),
           ("abelian:2|1", "gl:3|0",
            "'abelian:2|1': g0 element 2 is not parity-homogeneous"))]
    + [_input_error_case(["prolong", "--name", spec], message)
       for spec, message in (
           ("gl:-1|2", "'gl:-1|2': dimensions must be >= 0"),
           ("pe:-2", "'pe:-2': dimensions must be >= 0"),
           ("spe_ab:-1:1:2", "'spe_ab:-1:1:2': dimensions must be >= 0"),
           ("abelian:0|-1", "'abelian:0|-1': dimensions must be >= 0"),
           ("heisenberg_contact:-2|0",
            "'heisenberg_contact:-2|0': dimensions must be >= 0"),
           ("heisenberg_contact:1|0",
            "'heisenberg_contact:1|0': heisenberg_contact needs an even p, got 1"),
           ("gl:0|0", "'gl:0|0': symbol algebra must live in negative "
            "degrees, got degrees none"),
           # an integer field is an optional "-" and ASCII digits, not what
           # Python's int reads: 1_0 would be gl(10|0)
           ("gl:1_0|0", "'gl:1_0|0': expected an integer, got '1_0'"),
           ("gl: 1|0", "'gl: 1|0': expected an integer, got ' 1'"),
           ("gl:+1|0", "'gl:+1|0': expected an integer, got '+1'"),
           ("pe:2 ", "'pe:2 ': expected an integer, got '2 '"),
           # a p|q field holds one bar, and a rational field takes no spaces
           ("osp:1|2|3", "'osp:1|2|3': expected p|q, got '1|2|3'"),
           ("spe_ab:2: 1:2", "'spe_ab:2: 1:2': spe_ab argument a ' 1' is "
            'neither an integer nor a "p/q" string'))]
    + [_input_error_case(["prolong", "--name", "heisenberg_contact:0|0"],
                         "'heisenberg_contact:0|0': m is not fundamental: Z is "
                         "not generated from degree -1")]
    + [_input_error_case(["odesym", "--order", "3", "--rhs", "xi*@x"],
                         "direction symbol in a jet superfunction: 'xi*@x'")]
    + [_input_error_case(["odesym", "--order", "3", "--rhs", rhs], message)
       for rhs, message in (
           ("xi2 +", "missing factor at the end of 'xi2 +'"),
           ("x^2^3*xi", "misplaced '^' in 'x^2^3*xi'"))]
    + [_input_error_case(["odesym", "--order", "3", "--rhs", name],
                         "unknown jet coordinate %r" % name)
       for name in ("xi_2", "xi_0", "xi_", "xi_a")]
    + [_input_error_case(["odesym", "--input", _ODE_FILE] + flags,
                         "--input excludes " + excluded)
       for flags, excluded in (
           (["--order", "5", "--rhs", "xi"], "--order, --rhs"),
           (["--order", "3"], "--order"),
           (["--rhs", "xi"], "--rhs"),
           (["--poly-degree", "4"], "--poly-degree"),
           (["--exp", "1"], "--exp"))],
)
def test_input_errors_exit_two_with_one_line(argv, message, tmp_path, capsys):
    (tmp_path / _ODE_FILE).write_text(json.dumps({"order": 3, "rhs": "xi2"}))
    argv = [str(tmp_path / a) if a == _ODE_FILE else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s\n" % message


@pytest.mark.parametrize("rhs", [2, 2.5])
def test_odesym_input_with_a_non_string_rhs_exit_two(tmp_path, capsys, rhs):
    path = tmp_path / _ODE_FILE
    path.write_text(json.dumps({"order": 3, "rhs": rhs}))
    code, out, err = run_cli(["odesym", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: rhs: expected a string, got %s\n" % (path, rhs)


def test_odesym_input_alone_reads_the_file(tmp_path, capsys):
    path = tmp_path / _ODE_FILE
    path.write_text(json.dumps({"order": 3, "rhs": "xi2"}))
    code, out, _ = run_cli(["odesym", "--input", str(path)], capsys)
    assert code == 0
    assert "symmetry superdimension: (2|3)" in out


_CONTACT = {"ambient": {"even": ["x"], "odd": ["xi", "xi1"]},
            "generators": ["@x + xi1*@xi", "@xi1"]}


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
@pytest.mark.parametrize(
    "extra, message",
    [
        ({"basepoint": [0.1]},
         'basepoint[0]: number 0.1 is neither an integer nor a "p/q" string'),
        ({"basepoint": [True]},
         'basepoint[0]: number True is neither an integer nor a "p/q" string'),
        ({"degree_cap": "8"}, 'degree_cap: expected an integer, got "8"'),
        ({"degree_cap": 2.5}, "degree_cap: expected an integer, got 2.5"),
        ({"degree_cap": True}, "degree_cap: expected an integer, got true"),
    ],
    ids=["basepoint-float", "basepoint-bool", "cap-string", "cap-float", "cap-bool"],
)
def test_distribution_inexact_numbers_exit_two(tmp_path, capsys, command, extra, message):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(dict(_CONTACT, **extra)))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("command", ["symbol", "check-regular"])
def test_an_empty_basepoint_is_not_the_origin(tmp_path, capsys, command):
    # only a missing "basepoint" means the origin; [] on R^3 read as it
    data = {"ambient": {"even": ["x", "y", "z"], "odd": []},
            "generators": ["@x", "@y", "@z"]}
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(data))
    assert run_cli([command, "--input", str(path)], capsys)[0] == 0
    path.write_text(json.dumps(dict(data, basepoint=[])))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "input error: %s: basepoint: basepoint needs 3 even coordinates\n" % path
    )


@pytest.mark.parametrize(
    "ambient, message",
    [
        ({"even": "xy", "odd": []}, 'ambient.even: expected an array, got "xy"'),
        ({"even": ["x", "y"], "odd": "t"}, 'ambient.odd: expected an array, got "t"'),
        ({"even": ["x", 1], "odd": []}, "ambient.even[1]: expected a string, got 1"),
        ({"even": ["x", "y"], "odd": ["x"]},
         "ambient.odd[0]: duplicate coordinate name 'x'"),
    ],
    ids=["even-string", "odd-string", "numeric-name", "duplicate-name"],
)
def test_distribution_coordinates_must_be_lists_of_names(tmp_path, capsys, ambient, message):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"ambient": ambient, "generators": ["@x", "@y"]}))
    code, out, err = run_cli(["symbol", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"order": 3.7}, "order: expected an integer, got 3.7"),
        ({"order": True}, "order: expected an integer, got true"),
        ({"basis": {"poly_degree": "2"}},
         'basis.poly_degree: expected an integer, got "2"'),
        ({"basis": {"exponentials": [0.1]}},
         'basis.exponentials[0]: number 0.1 is neither an integer nor a "p/q" string'),
        ({"basis": {"exponentials": [False]}},
         'basis.exponentials[0]: number False is neither an integer nor a "p/q" string'),
    ],
    ids=["order-float", "order-bool", "degree-string", "exp-float", "exp-bool"],
)
def test_odesym_input_inexact_numbers_exit_two(tmp_path, capsys, extra, message):
    path = tmp_path / _ODE_FILE
    path.write_text(json.dumps(dict({"order": 3, "rhs": "xi2"}, **extra)))
    code, out, err = run_cli(["odesym", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: %s: %s\n" % (path, message)


def test_odesym_exp_takes_an_exact_rational(capsys):
    code, out, err = run_cli(
        ["odesym", "--order", "3", "--rhs", "xi2", "--exp", "0.5"], capsys
    )
    assert (code, out) == (2, "")
    assert err == 'input error: exponential \'0.5\' is neither an integer nor a "p/q" string\n'
    code, out, _ = run_cli(
        ["odesym", "--order", "3", "--rhs", "xi2", "--exp", "1/2"], capsys
    )
    assert code == 0
    assert "symmetry superdimension: (2|3)" in out


# The example documents of docs/formats.md, one per JSON input format, and
# the subcommands that read them.
_DOC_ALGEBRA = {
    "field": "Q",
    "basis": [
        {"name": "X", "degree": -1, "parity": "even"},
        {"name": "th1", "degree": -1, "parity": "odd"},
        {"name": "th2", "degree": -2, "parity": "odd"},
    ],
    "brackets": [
        {"left": "X", "right": "th1", "result": [{"basis": "th2", "coeff": "1/1"}]}
    ],
}
_DOC_DISTRIBUTION = {
    "ambient": {"even": ["x", "u", "p", "q", "z"], "odd": ["theta", "nu"]},
    "basepoint": [0, 0, 0, 0, 0],
    "degree_cap": 8,
    "generators": [
        {"name": "Dx", "expr": "@x + p*@u + q*@p + q^2*@z"},
        {"name": "Dq", "expr": "@q"},
        {"coefficients": [
            {"direction": "theta",
             "monomials": [{"x_exponents": [0, 0, 0, 0, 0],
                            "theta_subset": [], "coeff": "1/1"}]}
        ]},
    ],
}
_DOC_ODE = {"order": 3, "rhs": "xi2", "basis": {"poly_degree": 2, "exponentials": []}}
_FUZZED = {
    "prolong": (_DOC_ALGEBRA, []),
    "cohomology": (_DOC_ALGEBRA, ["--d", "0..2"]),
    "symbol": (_DOC_DISTRIBUTION, []),
    "check-regular": (_DOC_DISTRIBUTION, []),
    "odesym": (_DOC_ODE, []),
}
_DELETE = object()
# no integer above 6: "order" and "poly_degree" set the solver's cost
_SUBSTITUTES = [_DELETE, None, True, False, 0, 1, -1, 6, 1.5, "", "x", "xi",
                "odd", "1/0", "W", [], [1], ["x"], {}, {"a": 1}]
# Python's own wording, which names no field of the file
_PYTHON_WORDING = ("object is not", "unhashable", "indices must", "has no attribute",
                   "not iterable", "unknown or missing name")


def _paths(value, path=()):
    """Every path to a value inside value, containers included."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield path + (key,)
            yield from _paths(item, path + (key,))


def _substituted(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", sorted(_FUZZED))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_single_field_substitutions_exit_with_a_named_field(command, data):
    doc, extra = _FUZZED[command]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(_SUBSTITUTES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "input.json"
        file.write_text(json.dumps(_substituted(doc, path, value)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main([command, "--input", str(file)] + extra)
    code, err = exc.value.code, err.getvalue()
    assert code in (0, 2, 3, 4), err
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not any(words in err for words in _PYTHON_WORDING), err
