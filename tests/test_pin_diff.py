import pytest

from burstfec.sweep import CSV_COLUMNS
import pin_diff

# model, p_E, c, n, k, l, I, M, p, p_hat, ci_lo, ci_hi, rel_err, throughput, residual_corr, seed
OLD = [
    "model1,0.01,0.5,63,45,3,4,4,0.25,,,,,540,0.0625,",
    "model1,0.02,0.5,63,45,3,4,4,0.5,,,,,360,0.0625,",
    "baseline,0.01,0.5,63,45,3,4,4,0.125,,,,,630,0.0625,",
    "mc,0.01,0.5,63,45,3,4,4,,0.25,0.2,0.3,,540,0.0625,77",
]


def write(path, lines):
    path.write_text("\n".join([",".join(CSV_COLUMNS), *lines]) + "\n")
    return str(path)


def diff(tmp_path, new_lines, capsys):
    status = pin_diff.main([write(tmp_path / "old.csv", OLD), write(tmp_path / "new.csv", new_lines)])
    captured = capsys.readouterr()
    return status, [line.split() for line in captured.out.splitlines()[1:]], captured.err


def test_identical_files_move_nothing(tmp_path, capsys):
    status, table, _ = diff(tmp_path, OLD, capsys)
    assert status == 0
    assert table == [["model1", "2", "0", "-"], ["baseline", "1", "0", "-"], ["mc", "1", "0", "-"]]


def test_moved_rows_are_counted_per_model_with_their_largest_move(tmp_path, capsys):
    new = list(OLD)
    new[0] = new[0].replace("0.25,,,,,540", "0.2500001,,,,,539.99997")  # 4e-7 and 5.6e-8
    new[1] = new[1].replace("0.5,,,,,360", "0.5000000005,,,,,360")  # 1e-9
    new[3] = new[3].replace(",,540,", ",0.001,540,")  # an empty field filled
    status, table, _ = diff(tmp_path, new, capsys)
    assert status == 1
    assert table == [["model1", "2", "2", "4e-07"], ["baseline", "1", "0", "-"], ["mc", "1", "1", "inf"]]


@pytest.mark.parametrize("new", [
    OLD[:3],  # a row fewer
    [OLD[0].replace("0.01,0.5", "0.01,0.6"), *OLD[1:]],  # another c
    [*OLD[:3], OLD[3].replace(",77", ",78")],  # another seed
])
def test_files_of_different_grids_are_refused(tmp_path, capsys, new):
    status, table, err = diff(tmp_path, new, capsys)
    assert status == 2 and table == []
    assert err.startswith("error: not the same grid")
