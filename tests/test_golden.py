"""The golden CLI corpus: every recorded klrwcb command line, run again
in-process, gives the recorded stdout, stderr and exit code byte for byte.
tests/golden/regenerate.py lists the command lines and rewrites the corpus."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RECORDS = json.loads((GOLDEN / "corpus.json").read_text())


def test_corpus_lists_every_case():
    assert [r["argv"] for r in RECORDS] == regenerate.CASES


@pytest.mark.parametrize("record", RECORDS, ids=[
    "%02d-%s" % (i, r["argv"][0]) for i, r in enumerate(RECORDS)])
def test_golden_output(record):
    stdout, stderr, code = regenerate.run(record["argv"])
    assert (stdout, stderr, code) == (record["stdout"], record["stderr"],
                                      record["exit"])
