"""`toric3 census` writes the same bytes to stdout and to --out."""

import pytest

from toric3.cli import main


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_stdout_equals_the_out_file(fmt, tmp_path, capsysbinary):
    argv = ["census", "--q", "5", "--dim", "4", "--format", fmt]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    path = tmp_path / f"census.{fmt}"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsysbinary.readouterr().out == f"wrote 5 rows to {path}\n".encode()
    assert stdout == path.read_bytes()
    header = b'[\n  {\n    "q": 5,' if fmt == "json" else b"q,family,s,t,n,k,"
    assert stdout.startswith(header)
