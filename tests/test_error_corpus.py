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
