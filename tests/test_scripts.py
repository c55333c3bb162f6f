import importlib.util
import pathlib

from qutritimg import CODECS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_shot_convergence_prints_one_row_per_codec(capsys):
    spec = importlib.util.spec_from_file_location(
        "shot_convergence", SCRIPTS / "shot_convergence.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--shots", "1000", "--seeds", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:7]]
    assert [row[0] for row in rows] == list(CODECS)
    assert all(len(row) == 2 and float(row[1]) >= 0 for row in rows)
