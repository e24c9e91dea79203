import pytest

from sourcescope._fmt import write_lines


def test_write_lines_ends_each_line_and_counts_them(tmp_path):
    path = tmp_path / "out.txt"
    assert write_lines(path, iter(["a,b", "", "c é"])) == 3
    assert path.read_bytes() == "a,b\n\nc é\n".encode("utf-8")
    assert write_lines(path, []) == 0
    assert path.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_lines_that_raise_part_way_leave_the_earlier_file_as_it_was(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier output\n")

    def lines():
        yield "first"
        yield "second"
        raise ValueError("bad record")

    with pytest.raises(ValueError, match="bad record"):
        write_lines(path, lines())
    assert path.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
