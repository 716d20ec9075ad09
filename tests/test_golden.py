"""Byte-for-byte CLI outputs against tests/golden (see make_golden.py and
ops_digest.py there)."""

import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from make_golden import CASES, argv_for, run_cli  # noqa: E402

CODES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    code, out, err = run_cli(argv_for(case))
    assert code == CODES[case]
    assert out == (GOLDEN / (case + ".stdout")).read_text()
    assert err == (GOLDEN / (case + ".stderr")).read_text()


def test_every_bench_op_prints_the_recorded_digest(capsys):
    # ops_digest.py turns bytecode writing off so that importing bench/inputs.py
    # leaves no cache under bench/; the rest of the session keeps its setting
    dont_write = sys.dont_write_bytecode
    try:
        import ops_digest
    finally:
        sys.dont_write_bytecode = dont_write
    ops_digest.print_digests()
    assert capsys.readouterr().out == (GOLDEN / "ops_digest.txt").read_text()
