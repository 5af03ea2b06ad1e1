"""`toric3 census` writes the same bytes to stdout and to --out."""

import json

import pytest

from toric3.classify import census
from toric3.cli import main
from toric3.galois import make_field


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


@pytest.mark.parametrize("dim", [4, 5])
@pytest.mark.parametrize("q", [5, 7, 9])
def test_census_json_is_the_indented_dump(q, dim, tmp_path, capsysbinary):
    rows = [e.row(q) for e in census(make_field(q), dim)]
    want = (json.dumps(rows, indent=2) + "\n").encode()
    argv = ["census", "--q", str(q), "--dim", str(dim)]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want
    path = tmp_path / "census.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want


def test_a_failed_census_leaves_the_out_file_as_it_was(tmp_path, capsysbinary):
    # --out was opened for writing before the census ran, so a census that
    # failed emptied the file, or left a new empty one
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    kept = b"kept\n" * 4096  # longer than the census below
    old.write_bytes(kept)
    for path in (old, new):
        assert main(["census", "--q", "4", "--dim", "5", "--out", str(path)]) == 1
    assert capsysbinary.readouterr().err.count(b"error: ") == 2
    assert old.read_bytes() == kept and not new.exists()
    # a census that succeeds replaces every byte
    argv = ["census", "--q", "5", "--dim", "4"]
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(old)]) == 0
    assert old.read_bytes() == stdout
