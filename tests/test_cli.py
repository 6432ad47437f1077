import hashlib
import importlib.resources as resources
import json
import re

import pytest

from prismring.cli import run
from prismring.poly import read_system


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == 0
    assert "F210" in out and "F660" in out


def test_catalog_show_round_trips(capsys, tmp_path):
    code, out, _ = invoke(capsys, "catalog", "show", "F660")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 8
    path = tmp_path / "F660.json"
    path.write_text(out)
    code, out2, _ = invoke(capsys, "info", str(path))
    assert code == 0 and "FPdim: 660" in out2


def test_unknown_catalog_name_is_usage_error(capsys):
    code, _, err = invoke(capsys, "catalog", "show", "nosuch")
    assert code == 1
    assert "nosuch" in err


def test_verify_command(capsys):
    code, out, _ = invoke(capsys, "verify", "F210")
    assert code == 0
    assert "all axioms hold" in out


def test_criteria_exit_code_three_on_witness(capsys):
    code, out, _ = invoke(
        capsys, "criteria", "F660", "--kind", "zero", "--fail-on-witness"
    )
    assert code == 3
    assert "i1=b2" in out
    code, out, _ = invoke(capsys, "--json", "criteria", "F660", "--kind", "zero")
    assert set(json.loads(out)["result"]) == {"kinds", "witnesses"}


def test_criteria_negative_control(capsys):
    code, out, _ = invoke(capsys, "criteria", "Fib", "--kind", "both")
    assert code == 0
    assert out.count("no witness") == 2


def test_chartab_json_envelope_matches_schema(capsys):
    code, out, _ = invoke(capsys, "--json", "chartab", "F210", "--lifting",
                          "--char0-excluded")
    assert code == 0
    report = json.loads(out)
    _validate_report(report)
    assert report["command"] == "chartab"
    values = report["result"]["values"]
    assert len(values) == 7 and len(values[0][0]) == 2
    assert report["result"]["lifting"]["conclusion"].startswith("no-positive-char")


def test_localize_groebner_pipeline(capsys, tmp_path):
    out_file = tmp_path / "ek.sys"
    code, _, _ = invoke(
        capsys, "localize", "F210", "--k", "5_1", "--sprime", "1,5_1,5_3",
        "-o", str(out_file),
    )
    assert code == 0
    polys, vars, field = read_system(out_file.read_text())
    assert len(polys) == 12 and len(vars) == 10
    code, out, _ = invoke(
        capsys, "groebner", str(out_file), "--quotient-dim"
    )
    assert code == 0
    assert "# quotient dimension: 14" in out


def test_groebner_resource_cap_exit_code(capsys, tmp_path):
    sysfile = tmp_path / "hard.sys"
    sysfile.write_text(
        "vars: x y z\nfield: Q\n"
        "x + y + z\nx*y + y*z + z*x\nx*y*z - 1\n"
    )
    code, _, err = invoke(capsys, "groebner", str(sysfile), "--pair-budget", "1")
    assert code == 2
    assert "resource cap" in err


@pytest.mark.parametrize("flag", ["--pair-budget", "--term-budget"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_groebner_budget_below_one_is_usage_error(capsys, tmp_path, flag, value):
    """A budget below 1 is refused by the parser, not replaced by the
    default cap (0) or reported as a resource cap (negative)."""
    sysfile = tmp_path / "small.sys"
    sysfile.write_text("vars: x y\nfield: Q\nx^2 - y\ny^2 - 1\n")
    code, out, err = invoke(capsys, "groebner", str(sysfile), flag, value)
    assert code == 1
    assert "positive integer" in err and "resource cap" not in err
    assert out == ""


def test_tpe_labels_output_parses(capsys):
    code, out, _ = invoke(capsys, "tpe", "Fib", "--labels", "1,tau")
    assert code == 0
    polys, vars, _ = read_system(out)
    assert polys and "d_tau" in vars


def test_tpe_output_file_matches_stdout(capsys, tmp_path):
    out_file = tmp_path / "fib.sys"
    code, out, _ = invoke(capsys, "tpe", "Fib", "--labels", "1,tau", "-o", str(out_file))
    assert code == 0
    polys, vars, _ = read_system(out_file.read_text())
    assert out == f"wrote {len(polys)} equations to {out_file}\n"
    _, stdout, _ = invoke(capsys, "tpe", "Fib", "--labels", "1,tau")
    assert out_file.read_text() == stdout


def test_tpe_localization_family(capsys):
    code, out, _ = invoke(
        capsys, "tpe", "F210", "--family", "localization",
        "--k", "5_1", "--sprime", "1,5_1,5_3",
    )
    assert code == 0
    polys, vars, _ = read_system(out)
    assert any(v.startswith("x_5_1[") for v in vars)
    assert any(v.startswith("y_5_1[") for v in vars)


@pytest.mark.parametrize(
    "k, works", [("5_1", "1,5_1,5_3"), ("5_2", "1,5_1,5_2"), ("5_3", "1,5_2,5_3")]
)
def test_tpe_localization_default_needs_sprime(capsys, k, works):
    """Both maximal chosen subsets of k contain 7_1 or 7_2, and their prism
    configurations reach a face of multiplicity 2: the usage error says so
    and names a subset that works."""
    code, out, err = invoke(capsys, "tpe", "F210", "--family", "localization", "--k", k)
    assert code == 1 and not out
    assert "has multiplicity 2" in err
    assert err.rstrip().endswith(f"pass --sprime, for example --sprime {works}")
    code, out, _ = invoke(
        capsys, "tpe", "F210", "--family", "localization", "--k", k, "--sprime", works
    )
    assert code == 0 and read_system(out)[0]


def test_tpe_localization_default_is_first_maximal_subset(capsys):
    code, out, _ = invoke(capsys, "tpe", "F210", "--family", "localization", "--k", "6_1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "1b3c82259f64db39"
    _, explicit, _ = invoke(
        capsys, "tpe", "F210", "--family", "localization", "--k", "6_1",
        "--sprime", "1,5_1,5_2,5_3,6_1",
    )
    assert out == explicit


def test_two_parallel_prime_field(capsys):
    code, out, _ = invoke(
        capsys, "--json", "two-parallel", "F210", "--k", "5_1", "--l", "5_3",
        "--field", "GF(11)",
    )
    assert code == 0
    report = json.loads(out)
    _validate_report(report)
    assert report["result"]["verdict"] == "not-excluded"
    assert len(report["result"]["final_basis"]) == 23
    assert report["result"]["gb_sizes"] == {"k": 31, "l": 31}
    assert report["result"]["corank"] == 4
    assert "gb_final" not in report["result"]["timings"]
    stats = report["result"]["stats"]
    assert set(stats) == {"k", "l", "link"}
    assert [stats[s]["matrices"] for s in "kl"] == [8, 8]
    assert [stats[s]["pairs_left"] for s in "kl"] == [88, 95]
    assert stats["link"] == {"dim": 196, "rank": 192, "border": 182, "fglm_candidates": 27}
    code, out, _ = invoke(
        capsys, "two-parallel", "F210", "--k", "5_1", "--l", "5_3", "--field", "GF(32003)"
    )
    assert code == 0
    assert "verdict: excluded" in out and "corank: 0" in out


def test_two_parallel_bad_characteristic(capsys):
    code, _, err = invoke(
        capsys, "two-parallel", "F210", "--k", "5_1", "--l", "5_3", "--field", "GF(5)"
    )
    assert code == 1
    assert "not invertible" in err


def test_verify_reports_broken_ring_as_data(capsys, tmp_path):
    doc = json.loads((resources.files("prismring") / "data/rings/F210.json").read_text())
    doc["N"][1][1][1] += 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    assert "axioms FAILED" in out


def test_report_determinism_modulo_timings(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = invoke(capsys, "--json", "info", "F210")
        assert code == 0
        outs.append(re.sub(r'"wall_s": [0-9.]+', '"wall_s": 0', out))
    assert outs[0] == outs[1]


# ---------------------------------------------------- minimal schema check


def _schema():
    text = resources.files("prismring").joinpath("data/report.v1.json").read_text()
    return json.loads(text)


def _validate_report(doc):
    """Check the envelope against the shipped schema (subset of draft-07)."""
    schema = _schema()
    assert isinstance(doc, dict)
    assert set(schema["required"]) <= set(doc)
    if not schema.get("additionalProperties", True):
        assert set(doc) <= set(schema["properties"])
    for key, spec in schema["properties"].items():
        if key not in doc:
            continue
        val = doc[key]
        if "const" in spec:
            assert val == spec["const"]
        if "enum" in spec:
            assert val in spec["enum"]
        if "type" in spec:
            types = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
            py = {
                "object": dict, "string": str, "integer": int,
                "number": (int, float), "null": type(None),
            }
            assert isinstance(val, tuple(py[t] for t in types) if len(types) > 1
                              else py[types[0]])
        if "pattern" in spec and isinstance(val, str):
            assert re.fullmatch(spec["pattern"], val)
        if key == "timings":
            assert "wall_s" in val
