import pytest

from pcqa import DuplicateKeyError, MosRow, ParseError, SchemaError, load_mos_csv


def write(tmp_path, text):
    path = tmp_path / "mos.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_two_rows(tmp_path):
    rows = load_mos_csv(write(tmp_path, "content,distortion,mos\na,cn-1,7.5\na,cn-2,6\n"))
    assert rows == (MosRow("a", "cn-1", 7.5), MosRow("a", "cn-2", 6.0))


def test_missing_column(tmp_path):
    with pytest.raises(SchemaError, match="mos"):
        load_mos_csv(write(tmp_path, "content,distortion\na,cn-1\n"))


def test_empty_file(tmp_path):
    with pytest.raises(SchemaError, match="empty file, expected a header row"):
        load_mos_csv(write(tmp_path, ""))


def test_short_row_names_row(tmp_path):
    with pytest.raises(ParseError, match="row 3: expected 3 fields, found 2$"):
        load_mos_csv(write(tmp_path, "content,distortion,mos\na,cn-1,5\nb,6\n"))


def test_non_numeric_mos_names_row(tmp_path):
    with pytest.raises(ParseError, match="row 3"):
        load_mos_csv(write(tmp_path, "content,distortion,mos\na,cn-1,5\nb,cn-1,abc\n"))


def test_duplicate_key(tmp_path):
    with pytest.raises(DuplicateKeyError):
        load_mos_csv(write(tmp_path, "content,distortion,mos\na,cn-1,5\na,cn-1,6\n"))


def test_blank_lines_skipped(tmp_path):
    table = load_mos_csv(write(tmp_path, "content,distortion,mos\n\na,cn-1,5\n\n"))
    assert len(table) == 1


def test_extra_columns_tolerated(tmp_path):
    table = load_mos_csv(write(tmp_path, "content,distortion,mos,std\na,cn-1,5,0.4\n"))
    assert len(table) == 1


def test_non_finite_mos_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_mos_csv(write(tmp_path, "content,distortion,mos\na,cn-1,inf\n"))


def test_utf8_bom_reads_as_the_plain_table(tmp_path):
    text = "content,distortion,mos\na,cn-1,7.5\nb,cn-2,6\n"
    plain = load_mos_csv(write(tmp_path, text))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))  # as Excel saves "CSV UTF-8"
    assert load_mos_csv(bom) == plain
