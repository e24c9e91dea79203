from sourcescope._fmt import write_lines


def test_write_lines_ends_each_line_and_counts_them(tmp_path):
    path = tmp_path / "out.txt"
    assert write_lines(path, iter(["a,b", "", "c é"])) == 3
    assert path.read_bytes() == "a,b\n\nc é\n".encode("utf-8")
    assert write_lines(path, []) == 0
    assert path.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

