"""The JSON output of every subcommand, and of each Ext-lab part,
validates against docs/report-schema.json."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from curvedual import cli

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs"
                     / "report-schema.json").read_text(encoding="utf-8"))

OUTPUTS = {
    "report": ["report", "3,4,5"],
    "omega": ["omega", "tacnode"],
    "check": ["check", "node", "--cases", "2"],
    "check-fail": ["check", "cusp", "--cases", "1",
                   "--inject", "drop-residue-condition"],
    "ext-lab-claim2": ["ext-lab", "--m", "3", "--p", "2", "--claim2"],
    "ext-lab-claim4": ["ext-lab", "--m", "3", "--p", "2", "--claim4"],
    "ext-lab-cor3": ["ext-lab", "--m", "3", "--p", "2", "--cor3"],
    "ext-lab-all": ["ext-lab", "--m", "3", "--p", "2"],
    "toric-saturate": ["toric", "saturate", "--model", "pinched-plane"],
    "toric-omega": ["toric", "omega", "--model", "diagonal-mod3"],
    "toric-hull": ["toric", "hull", "--model", "pinched-plane"],
}


def test_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_validates(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(OUTPUTS[name] + ["--format", "json"])
    assert code in (0, 1)
    jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


def test_ext_lab_needs_a_payload():
    doc = {"schema": "curvedual-report/1", "command": "ext-lab", "seed": 0,
           "m": 3, "p": 2, "status": "pass"}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)
