import argparse
import ast
import glob
import json
import os

import pytest

from vilenkin import config, families
from vilenkin.errors import ConfigurationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _schema():
    with open(os.path.join(ROOT, "docs", "config-schema.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_schema_keys_match_defaults_and_parser():
    schema = _schema()
    props = schema["properties"]
    assert set(props) == set(config.DEFAULTS)
    for key in config._MERGE_KEYS:
        assert set(props[key]["properties"]) == set(config.DEFAULTS[key]), key
    items = props["functions"]["items"]
    assert items["properties"]["family"]["enum"] == list(config._FAMILY_KEYS)
    assert set(items["properties"]) == {"family"}.union(*config._FAMILY_KEYS.values())
    # each family's allOf branch closes its spec to the keys the parser lets it take
    closed = {b["if"]["properties"]["family"]["const"]: b["then"]["propertyNames"]["enum"]
              for b in items["allOf"]}
    assert closed == {name: ["family", *keys] for name, keys in config._FAMILY_KEYS.items()}
    assert set(props["n_schedule"]["properties"]) == set(config._SCHEDULE_KEYS)
    forms = [set(form["properties"]) for form in props["radix"]["oneOf"] if "properties" in form]
    assert forms == [set(keys) for keys in config._RADIX_FORMS]
    assert props["suites"]["items"]["enum"] == list(config.SUITES)
    assert props["suites"]["minItems"] == 1  # as the parser's suites_empty case rejects []
    # as the parser's scan_n_empty and out_empty cases reject [] and ""
    assert props["kernel_scan"]["properties"]["n"]["minItems"] == 1
    assert props["out"]["minLength"] == 1


def test_package_reads_no_environment():
    # settings come from flags and the config file only
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "vilenkin", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path


def test_schema_accepts_defaults_and_shipped_configs():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    jsonschema.Draft7Validator.check_schema(schema)
    jsonschema.validate(config.DEFAULTS, schema)
    paths = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), schema)


def test_schema_bounds_match_the_parser():
    # the parser accepts a zero Lipschitz bound and rejects a negative seed, as the schema does
    props = _schema()["properties"]
    assert props["functions"]["items"]["properties"]["bound"]["minimum"] == 0
    assert props["seed"]["minimum"] == 0
    ns = config.parse(config.DEFAULTS, "converge").ns
    label, _ = config.family_from_spec(ns, {"family": "random_lipschitz", "bound": 0})
    assert label == "random_lipschitz-0.0"
    with pytest.raises(ConfigurationError, match="seed"):
        config.parse(dict(config.DEFAULTS, seed=-1), "converge")


# (config fragment, whether it is valid); the schema and parse must give the same verdict
SCHEMA_AND_PARSE_CASES = {
    "file_without_path": ({"functions": [{"family": "file"}]}, False),
    "file_with_path": ({"functions": [{"family": "file", "path": "step.json"}]}, True),
    "lacunary_bare": ({"functions": [{"family": "lacunary"}]}, False),
    "lacunary_decay": ({"functions": [{"family": "lacunary", "decay": "inverse_scale"}]}, True),
    "lacunary_coeffs": ({"functions": [{"family": "lacunary", "coeffs": [5.0]}]}, True),
    "lacunary_coeffs_empty": ({"functions": [{"family": "lacunary", "coeffs": []}]}, False),
    "lacunary_decay_and_coeffs": ({"functions": [{"family": "lacunary", "decay": "inverse_scale",
                                                  "coeffs": [5.0]}]}, False),
    "indicator": ({"functions": [{"family": "digit_indicator", "level": 2}]}, True),
    "lipschitz": ({"functions": [{"family": "random_lipschitz"}]}, True),
    # a key of another family is foreign, not dropped
    "lipschitz_with_coeffs": ({"functions": [{"family": "random_lipschitz", "coeffs": [1.0]}]},
                              False),
    "indicator_with_bound": ({"functions": [{"family": "digit_indicator", "level": 1,
                                             "bound": 2.0}]}, False),
    "stability_factor_zero": ({"thresholds": {"stability_factor": 0}}, False),
    "stability_factor_negative": ({"thresholds": {"stability_factor": -1}}, False),
    "stability_factor_small": ({"thresholds": {"stability_factor": 1e-9}}, True),
    "stability_factor_default": ({"thresholds": {"stability_factor": 1.5}}, True),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_AND_PARSE_CASES))
def test_schema_and_parse_agree(name, tmp_path, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    fragment, valid = SCHEMA_AND_PARSE_CASES[name]
    monkeypatch.chdir(tmp_path)  # the file family's path is relative
    ns = config.parse(config.DEFAULTS, "converge").ns
    cells = ", ".join(["[0.5, 0]"] * ns.cell_count)
    (tmp_path / "step.json").write_text(
        f'{{"radix": {list(ns.radix.radices)}, "resolution": {ns.resolution}, '
        f'"cells": [{cells}]}}', encoding="utf-8")
    (tmp_path / "cfg.json").write_text(json.dumps(fragment), encoding="utf-8")
    schema_valid = jsonschema.Draft7Validator(_schema()).is_valid(fragment)
    try:
        config.parse(config.merge_config(argparse.Namespace(config="cfg.json")), "converge")
        parse_valid = True
    except ConfigurationError:
        parse_valid = False
    assert schema_valid == parse_valid == valid


def test_function_file_nested_too_deep_is_a_configuration_error(tmp_path):
    # json.load raises RecursionError, not ValueError, past its nesting depth
    path = tmp_path / "deep.json"
    path.write_text("[" * 10000 + "]" * 10000, encoding="utf-8")
    ns = config.parse(config.DEFAULTS, "converge").ns
    with pytest.raises(ConfigurationError, match="cannot read function file"):
        config.family_from_spec(ns, {"family": "file", "path": str(path)})


@pytest.mark.parametrize("cells", ["x" * 10**5, [[0, 0]] * 7 + [list(range(10**5))]],
                         ids=["cells_string", "cell_long"])
def test_a_rejected_value_is_abridged(tmp_path, cells):
    # a function file's bad value may be most of the file; the message names it, not prints it
    ns = config.parse(dict(config.DEFAULTS, radix=[2, 2, 2]), "converge").ns
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"radix": [2, 2, 2], "resolution": 3, "cells": cells}))
    with pytest.raises(ConfigurationError, match="cells") as err:
        config.family_from_spec(ns, {"family": "file", "path": str(path)})
    assert len(str(err.value)) < 200 + len(str(path))


def test_parse_builds_no_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse built a function")

    for name in ("lacunary", "digit_indicator", "random_lipschitz"):
        monkeypatch.setattr(families, name, refuse)
    merged = dict(config.DEFAULTS, functions=[
        {"family": "lacunary", "decay": "inverse_scale"}, {"family": "lacunary", "coeffs": [0.5]},
        {"family": "digit_indicator", "level": 2}, {"family": "random_lipschitz"}])
    cfg = config.parse(merged, "converge")
    assert [label for label, _ in cfg.functions] == [
        "lacunary-inverse_scale", "lacunary-0.5", "digit_indicator-2-0", "random_lipschitz-1.0"]
    assert cfg.merged is merged


def test_parse_resolves_every_command_alike():
    merged = dict(config.DEFAULTS, radix=[2] * 5, kernel_scan={"kinds": ["majorant"],
                                                               "level": None, "n": [3, 32]})
    parsed = {command: config.parse(merged, command) for command in ("verify", "bench")}
    assert parsed["verify"].out == os.path.join("runs", "verify")
    assert parsed["bench"].out == os.path.join("runs", "bench")
    cfg = parsed["verify"]
    assert cfg.scan_level == 4 and cfg.scan_n == (3, 32) and cfg.scan_kinds == ("majorant",)
    assert cfg.suites == config.SUITES
    assert [ns.cell_count for ns in cfg.bench_systems] == [4096]
    # a key the command does not read is still checked
    with pytest.raises(ConfigurationError, match="kernel_scan.n"):
        config.parse(dict(merged, kernel_scan={"kinds": [], "level": None, "n": ["x"]}), "verify")
    # max_cells caps every group the config names, the bench sizes too
    with pytest.raises(ConfigurationError, match="bench size"):
        config.parse(dict(merged, max_cells=1024), "converge")
