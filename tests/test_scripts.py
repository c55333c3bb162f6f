import importlib.util
import json
import pathlib
import re

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


def test_output_manifest_prints_one_line_per_artifact(capsys):
    spec = importlib.util.spec_from_file_location(
        "output_manifest", SCRIPTS / "output_manifest.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    # per codec and size: circuits, tables of 5,000 shots, 64 shots and exact
    # probabilities, three decodes and a roundtrip (image and report each);
    # qrciq adds a 27x27 roundtrip; and one statevector per measured circuit
    # at 3x3, 9x9 and 27x27, and its circuit JSON, a histogram and its
    # probabilities per measured circuit at 27x27, and the exact probability
    # CSV of qrciq at 27x27; and one statevector per random circuit and per
    # random multiplexor
    per_size = {name: 4 * codec.histograms + 8 for name, codec in CODECS.items()}
    measured = sum(codec.histograms for codec in CODECS.values())
    randoms = script.RANDOM_CIRCUITS + script.MULTIPLEXORS
    names = {line.split()[1] for line in lines}
    assert len(lines) == len(names) == (
        2 * sum(per_size.values()) + 2 + 6 * measured + 1 + randoms) == 221
    assert sum(n.startswith("statevector/random-") for n in names) == script.RANDOM_CIRCUITS
    assert sum(n.startswith("statevector/multiplexor-") for n in names) == script.MULTIPLEXORS
    assert sum(n.startswith("statevector/") for n in names) == 3 * measured + randoms
    assert [n for n in names if n.startswith("probabilities-csv/")] == [
        "probabilities-csv/qrciq-27x27.m1"]
    for kind in ("histogram/", "probabilities/", "circuit/"):
        assert sorted(n for n in names if n.startswith(kind)) == sorted(
            n.replace("statevector/", kind) for n in names
            if n.startswith("statevector/") and "-27x27." in n)
    for name, count in per_size.items():
        assert sum(n.startswith(f"{name}-9x9/") for n in names) == count
    assert sum(n.endswith("/decode-few.json") for n in names) == 2 * len(CODECS)
    assert sorted(n for n in names if n.startswith("qrciq-27x27/")) == [
        "qrciq-27x27/roundtrip.json", "qrciq-27x27/roundtrip.ppm"]


def test_layer_ab_times_a_tree_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("layer_ab", SCRIPTS / "layer_ab.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    root = str(SCRIPTS.parent)
    assert script.main([root, root, "--repeats", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    codecs = [f"{name}-{side}" for name in CODECS for side in (3, 9, 27)]
    labels = [label for label in codecs for label in (
        [f"{label}.m{k}" for k in (1, 2, 3)] + [f"{label}.all"] if "fqrqci" in label
        else [label])]
    assert list(result) == ["repeats", *labels, "images", "decode"]
    calls = {label: ["write", "read", "ops", "matrices", "run"] for label in labels}
    calls["images"] = ["write", "read", "construct"]
    calls["decode"] = codecs
    for label, names in calls.items():
        assert list(result[label]) == names
        for call in names:
            sides = result[label][call]
            assert list(sides) == ["parent", "change", "parent_copy"]
            for side in sides.values():
                warm = side["warm"]
                assert side["median"] > 0 and 0 <= side["wins_vs_parent"] <= 2
                assert side["minor_faults"] >= 0
                assert warm["median"] > 0 and 0 <= warm["wins_vs_parent"] <= 2
                # k calls at the cold time last at least 1 ms; over two
                # iterations, median k times the cold q3 is at least half that
                assert warm["batch"] >= 1 and warm["batch"] * side["q3"] >= 0.5
            assert sides["parent"]["warm"]["ratio_to_parent"] == 1.0
            assert sides["parent"]["ratio_to_parent"] == 1.0
