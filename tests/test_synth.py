from pathlib import Path

from ordercky import synth

DATA = Path(synth.__file__).parent / "data"


def test_bundled_corpora_regenerate_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["synth", str(tmp_path)])
    synth.main()
    for name in ("memorize50.txt", "skew_train.txt", "skew_dev.txt"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
    assert "50 memorization and 120+40 skew sentences" in capsys.readouterr().out


def test_order_skew_summary_names_the_one_sided_labels():
    # NP is a left and a right child, VP and PP only right children; the
    # dummy label of the width-1 spans is left out
    lines = [
        "(S (NP (DT a) (NN b)) (VP (VB c) (NP (DT d) (NN e))))",
        "(S (NP (DT a) (NN b)) (VP (VB c) (PP (IN f) (NP (DT d) (NN e)))))",
    ]
    assert synth.order_skew_summary(lines) == {"VP", "PP"}
