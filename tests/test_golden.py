"""Byte-for-byte comparison against the golden report corpus.

The corpus and its case list live in ``tests/golden/``; regenerate it only
with ``PYTHONPATH=src python3 tests/golden/regen.py`` and review the diff.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen",
                                               GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CASES = regen.cases()


@pytest.mark.parametrize("rel", sorted(CASES))
def test_golden(rel):
    want = (GOLDEN / rel).read_bytes()
    got = CASES[rel]().encode("utf-8")
    if got != want:
        diff = difflib.unified_diff(
            want.decode("utf-8").splitlines(), got.decode("utf-8").splitlines(),
            f"golden/{rel}", "current", lineterm="")
        pytest.fail("\n".join(list(diff)[:60]))


def test_corpus_has_no_stray_files():
    assert regen.existing_files() == sorted(CASES)
