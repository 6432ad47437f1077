import hashlib
import importlib.resources as resources
import json
import re

import pytest

from prismring import cli
from prismring.catalog import CATALOG_NAMES, catalog
from prismring.cli import run
from prismring.fields import QQ
from prismring.poly import read_system, write_system
from prismring.tpegen import MultiplicityError, localization_system


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
    "k, sprime", [("5_1", "1,5_1,5_3"), ("5_2", "1,5_1,5_2"), ("5_3", "1,5_2,5_3")]
)
def test_localization_default_is_the_one_candidate(capsys, k, sprime):
    """Every maximal multiplicity-free subset of k holds 7_1 or 7_2, and
    N(7_1,7_1;7_2) = N(7_2,7_2;7_1) = 2 with both in the support, so the
    one candidate is the subset without them: ``localize`` and ``tpe
    --family localization`` take it by default."""
    for cmd in (
        ["localize", "F210", "--k", k],
        ["tpe", "F210", "--family", "localization", "--k", k],
    ):
        code, out, err = invoke(capsys, *cmd)
        assert code == 0, err
        _, explicit, _ = invoke(capsys, *cmd, "--sprime", sprime)
        assert out == explicit and read_system(out)[0]


def test_tpe_localization_default_multiplicity_error(capsys, monkeypatch):
    """The default chosen subset is the first maximal one; when its prism
    configurations reach a face of multiplicity 2, the command exits 1 with
    the face named and tries no other subset. No catalog ring reaches this,
    so the default subset of 6_1 is made to fail."""
    def system(ring, k, sprime, l=None, sprime_l=None, real=cli.localization_system):
        if sprime == ("1", "5_1", "5_2", "5_3", "6_1"):
            raise MultiplicityError("face ('6_1', '6_1', '6_1') has multiplicity 2")
        return real(ring, k, sprime, l, sprime_l)

    monkeypatch.setattr(cli, "localization_system", system)
    code, out, err = invoke(capsys, "tpe", "F210", "--family", "localization", "--k", "6_1")
    assert code == 1 and not out
    assert err == "error: face ('6_1', '6_1', '6_1') has multiplicity 2\n"
    code, out, _ = invoke(
        capsys, "tpe", "F210", "--family", "localization", "--k", "6_1",
        "--sprime", "1,5_1,5_2,5_3",
    )
    assert code == 0 and read_system(out)[0]


def test_tpe_localization_link(capsys):
    """The linking configuration of 5_3 into E_5_1 adds one equation. Each
    of --l and --sprime-l needs the other."""
    argv = ["tpe", "F210", "--family", "localization", "--k", "5_1", "--l", "5_3"]
    code, out, err = invoke(capsys, *argv, "--sprime-l", "1,5_2,5_3")
    assert code == 0, err
    assert out.count("\n") == 20
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "1181419803658ceb"
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and not out
    assert "second subsystem needs its chosen subset" in err
    # --sprime-l without --l is an error, not a dropped selector
    code, out, err = invoke(capsys, *argv[:-2], "--sprime-l", "1,5_2,5_3")
    assert code == 1 and not out
    assert err == "error: a chosen subset for a second subsystem needs its label\n"


def test_localization_system_is_the_cli_default(capsys, f210):
    system = localization_system(f210, "5_1", ("1", "5_1", "5_3"))
    code, out, _ = invoke(capsys, "tpe", "F210", "--family", "localization", "--k", "5_1")
    assert code == 0
    legend = ["ring F210", "identification: localization subsystem 5_1"]
    assert out == write_system(system.polys, system.variables, QQ, comments=legend)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_unit_label_has_no_localization_system(capsys, name):
    ring = catalog(name)
    unit = ring.labels[ring.unit_index]
    cmds = [
        ["localize", name, "--k", unit],
        ["tpe", name, "--family", "localization", "--k", unit],
    ]
    if name == "F210":
        cmds.append(["two-parallel", name, "--k", unit, "--l", "5_1"])
    for cmd in cmds:
        code, out, err = invoke(capsys, *cmd)
        assert code == 1 and not out
        assert err == f"error: {unit!r} is the unit label, which has no localization system\n"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--family", "localization", "--k", "5_1"], "--family, --k"),
        (["--k", "5_3"], "--k"),
        (["--l", "5_3"], "--l"),
        (["--sprime", "1,5_1"], "--sprime"),
        (["--sprime-l", "1,5_2,5_3"], "--sprime-l"),
    ],
)
def test_tpe_labels_conflict_with_localization_flags(capsys, flags, named):
    """--labels selects the symmetric-gauge system; a localization flag
    beside it is a usage error, not dropped."""
    code, out, err = invoke(capsys, "tpe", "F210", "--labels", "1,5_1", *flags)
    assert code == 1 and not out
    assert err == f"error: --labels conflicts with {named}\n"


@pytest.mark.parametrize("prefixes", ["u,v,w", "u", "x,x", ",v", "x,x1"])
def test_localize_alias_prefixes_must_be_two_distinct(capsys, prefixes):
    """Three prefixes, one, a repeated or an empty one are usage errors, and
    so are prefixes whose aliases collide (x10 from x and from x1, for the
    12 x variables of E_6_1)."""
    code, out, err = invoke(
        capsys, "localize", "F210", "--k", "6_1", "--alias-prefixes", prefixes
    )
    assert code == 1 and not out
    assert "--alias-prefixes" in err
    code, out, _ = invoke(capsys, "localize", "F210", "--k", "6_1", "--alias-prefixes", "a,b")
    assert code == 0 and "a0=x_6_1[" in out and "b0=y_6_1[" in out


def test_groebner_rejects_repeated_variable(capsys, tmp_path):
    """A repeated name on the vars: line would be a second, free variable."""
    sysfile = tmp_path / "dup.sys"
    sysfile.write_text("vars: x x\nfield: Q\nx\n")
    code, out, err = invoke(capsys, "groebner", str(sysfile), "--quotient-dim")
    assert code == 1 and not out
    assert "bad system file" in err and "repeated" in err


def test_tpe_localization_default_is_first_maximal_subset(capsys):
    code, out, _ = invoke(capsys, "tpe", "F210", "--family", "localization", "--k", "6_1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "1b3c82259f64db39"
    _, explicit, _ = invoke(
        capsys, "tpe", "F210", "--family", "localization", "--k", "6_1",
        "--sprime", "1,5_1,5_2,5_3,6_1",
    )
    assert out == explicit


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--k", "5_1"], "af82c422c1974762"),
        (["--k", "5_3", "--sprime", "1,5_2,5_3"], "d288db80b391d192"),
        (["--k", "5_1", "--full"], "aa7d74e8869d4123"),
        (["--k", "6_1"], "1c73dddde90b8d55"),
        (["--k", "6_1", "--full"], "539d31aade72c93f"),
    ],
)
def test_localize_output_is_pinned(capsys, argv, digest):
    """The localization systems of F210 as written, byte for byte: the
    legend, aliases and provenance, the variables and every polynomial."""
    code, out, err = invoke(capsys, "localize", "F210", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_non_integral_ring_points_to_the_prism_family(capsys):
    """``localize`` needs integer dimensions and exits 1 on Fib, naming the
    prism family, which keeps the dimensions as symbols and exits 0."""
    code, out, err = invoke(capsys, "localize", "Fib", "--k", "tau")
    assert code == 1 and not out
    assert err.startswith(
        "error: localization needs exact integer dimensions; ring is not integral"
    )
    assert "(prism tpe --family localization) keeps symbolic dimensions d_<label>" in err
    code, out, err = invoke(capsys, "tpe", "Fib", "--family", "localization", "--k", "tau")
    assert code == 0, err
    assert "d_tau" in read_system(out)[1]


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
    k = stats["k"]
    assert (k["matrices"], k["pairs_left"], k["steps"]) == (8, 88, 0)
    # E_l is E_k renamed by the 3-cycle 5_1 -> 5_3 -> 5_2 -> 5_1
    cycle = {"1": "1", "5_1": "5_3", "5_2": "5_1", "5_3": "5_2", "6_1": "6_1", "7_1": "7_1",
             "7_2": "7_2"}
    assert stats["l"] == {"from": "k", "labels": cycle}
    assert stats["link"] == {"dim": 196, "rank": 192, "border": 182, "fglm_candidates": 27}
    code, out, _ = invoke(
        capsys, "two-parallel", "F210", "--k", "5_1", "--l", "5_3", "--field", "GF(32003)"
    )
    assert code == 0
    assert "verdict: excluded" in out and "corank: 0" in out


def test_two_parallel_equal_labels(capsys):
    code, _, err = invoke(capsys, "two-parallel", "F210", "--k", "5_1", "--l", "5_1")
    assert code == 1
    assert "the two subsystem labels must differ" in err


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
