"""Every case of the error corpus ends in its recorded exit code and ``error:`` line."""

import json

import error_corpus


def test_error_corpus_reproduces_its_golden():
    golden = error_corpus.GOLDEN.read_text(encoding="utf-8").splitlines()
    got = error_corpus.dumps(error_corpus.replay()).splitlines()
    assert len(got) == len(golden)
    for line, expected in zip(got, golden):
        assert json.loads(line) == json.loads(expected)
    assert got == golden  # and the bytes, as the script writes them


def test_diff_lists_each_changed_outcome_and_each_moved_case():
    case = {"kind": "model", "command": "evaluate", "change": "x", "exit": 0, "error": None}
    changed = {**case, "exit": 1, "error": "error: bad"}
    moved = {**case, "change": "y"}
    assert error_corpus.diff([case, case], [case, case]) == []
    assert error_corpus.diff([case, case], [case, changed]) == [
        "model | evaluate | x: 0 None -> 1 error: bad"]
    assert error_corpus.diff([case, case], [moved]) == [
        "2 golden records, 1 replayed", f"case moved: {json.dumps(case)} -> {json.dumps(moved)}"]
