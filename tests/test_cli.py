import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritimg import (
    CODECS,
    RgbImage,
    circuit_to_json,
    histogram_to_csv,
    probabilities,
    probabilities_to_csv,
    read_pgm,
    read_ppm,
    run,
    sample,
    write_pgm,
    write_ppm,
)
from qutritimg import cli
from qutritimg.cli import main
from qutritimg.simulator import Block


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def gray_path(data_dir):
    return data_dir / "gray_3x3.pgm"


@pytest.fixture()
def rgb_path(data_dir):
    return data_dir / "rgb_3x3.ppm"


def test_encode_mcqri_op_count(tmp_path, rgb_path):
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", "mcqri", "--input", rgb_path, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["num_qutrits"] == 4
    assert len(doc["ops"]) == 30


def test_encode_fqrqci_writes_measurement_variants(tmp_path, rgb_path):
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", "fqrqci", "--input", rgb_path, "--out", out) == 0
    base = json.loads(out.read_text())
    m2 = json.loads((tmp_path / "circ.m2.json").read_text())
    m3 = json.loads((tmp_path / "circ.m3.json").read_text())
    assert len(m2["ops"]) == len(base["ops"]) + 1
    assert len(m3["ops"]) == len(base["ops"]) + 1


# sha256 of the circuit JSON that `encode` writes for the sample images.  The
# layout is fixed: json.dumps(doc, indent=1), ops as gate, subspace, params,
# target, controls.
GOLDEN_CIRCUIT_SHA256 = {
    "fqri": ["643497867851245d358fff06af4f89312989f5dd5296ad5246db5a90cd1a8861"],
    "fqrri": ["2f4473a2870d59a0be9f02b39b763819f1061e722a5d7c3a594400bc64ccc8e0"],
    "fqrqci": ["ffb4526125cfc6ca8d2b8fdb8b7598e1ca7bc9a8e41d74f2391acd1afe6c881d",
               "30145f39fb9c6f3d6db57974a49992405469189d88755e58738f04c4547d7122",
               "9080ce13678d30808ec0d58b43ec0d230bc50ed3e16d7486455671c15390a901"],
    "mcqri": ["a7a2f8e304cada9efdd5384355d648b1b9a438b40efd43b58f747620485a7ccb"],
    "qrciq": ["09e7d305fd24fb2018d4505ab4dda74467c8565363d8226b3a70f5afabaa41a4"],
}


@pytest.mark.parametrize("method", sorted(GOLDEN_CIRCUIT_SHA256))
def test_encode_circuit_json_golden_bytes(tmp_path, gray_path, rgb_path, method):
    image = gray_path if CODECS[method].gray else rgb_path
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", method, "--input", image, "--out", out) == 0
    paths = [out, tmp_path / "circ.m2.json", tmp_path / "circ.m3.json"]
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()]
    assert digests == GOLDEN_CIRCUIT_SHA256[method]


def test_encode_fqrqci_renders_each_shared_block_once(tmp_path, rgb_path):
    """The three fqrqci circuits share their preparation blocks, so encode
    renders four blocks' op text: the Hadamards, the pixel rotations and
    the basis change of each of the second and third circuits."""
    rendered = []
    render = Block.json_ops.func
    spy = functools.cached_property(lambda blk: rendered.append(blk) or render(blk))
    spy.__set_name__(Block, "json_ops")
    with mock.patch.object(Block, "json_ops", spy):
        assert _run("encode", "--method", "fqrqci", "--input", rgb_path,
                    "--out", tmp_path / "circ.json") == 0
    assert len(rendered) == len(set(map(id, rendered))) == 4


def test_encode_kind_mismatch_fails(tmp_path, gray_path, capsys):
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", "fqrri", "--input", gray_path, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_encode_bad_shape_fails(tmp_path, capsys):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P3\n6 6\n255\n" + b"0 " * 108)
    assert _run("encode", "--method", "mcqri", "--input", bad, "--out", tmp_path / "c.json") == 1
    assert "error:" in capsys.readouterr().err


def test_encode_over_capacity_fails_without_output(tmp_path, capsys):
    big = tmp_path / "big.ppm"
    big.write_bytes(write_ppm(RgbImage(np.zeros((81, 81, 3), dtype=np.uint8))))
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", "qrciq", "--input", big, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "13 qutrits" in err
    assert not out.exists()


@pytest.mark.parametrize("method, data", [
    ("fqri", b"P2\n1000000 1000000\n255\n0\n"),  # not a power of 3
    ("mcqri", b"P3\n531441 531441\n255\n0 0 0\n"),  # 3^12: more samples than bytes
    ("fqri", b"P5\n847288609443 847288609443\n255\n\x00"),  # 3^25
], ids=["P2-not-3n", "P3-3^12", "P5-3^25"])
def test_encode_huge_header_fails_without_output(tmp_path, capsys, method, data):
    image = tmp_path / "huge.pnm"
    image.write_bytes(data)
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", method, "--input", image, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_encode_sample_past_int64_fails_cleanly(tmp_path, capsys):
    image = tmp_path / "big.pgm"
    image.write_bytes(b"P2\n3 3\n255\n1 2 3 4 5 6 7 8 99999999999999999999\n")
    out = tmp_path / "circ.json"
    assert _run("encode", "--method", "fqri", "--input", image, "--out", out) == 1
    assert capsys.readouterr().err == "error: sample out of range [0, 255]\n"
    assert not out.exists()


def _circuit_text(num_qutrits=2, **fields):
    """Circuit JSON of one H op on qutrit 0 with `fields` changed, as bytes."""
    op = {"gate": "H", "subspace": None, "params": [], "target": 0, "controls": []} | fields
    return json.dumps({"num_qutrits": num_qutrits, "ops": [op]}).encode()


def _repr_head(value):
    text = repr(value)
    return f"{text[:64]}... (64 of {len(text)} shown)"


_KEYS = {f"k{i}": i for i in range(50_000)}
_WIDTHS = list(range(50_000))
_CONTROLS = [{"q": 1, "v": 1}] * 30_000 + [{"q": 1.5, "v": 1}]
_PARAMS = [1.0] * 50_000 + ["x"]
_BIG = int("7" * 4_000)
_BIG_HEAD = "7" * 64 + "... (64 of 4000 shown)"
_SIDE = b"1" + b"0" * 3_998 + b"1"  # 4,000 digits, not a power of 3
_POWER_SIDE = b"%d" % 3**8_383  # 4,000 digits: its square has 8,000, past int formatting


@pytest.mark.parametrize("command, name, data, quote", [
    ("encode", "big.pgm", b"P2\n" + b"1" * 1_000_000 + b" 3\n255\n0\n",
     "bad header token b'" + "1" * 64 + "'... (64 of 1000000 shown)"),
    ("encode", "big.pgm", b"P2\n3 3\n255\n1 2 3 4 5 6 7 8 9" + b"9" * 999_999 + b"x\n",
     "bad sample b'" + "9" * 64 + "'... (64 of 1000001 shown)"),
    ("decode", "hist.csv", b"state,count\n01," + b"7" * 1_000_000 + b"x\n",
     "bad histogram row '01," + "7" * 61 + "'... (64 of 1000004 shown)"),
    ("decode", "probs.csv", b"state,probability\n0,1\n1," + b"5" * 1_000_000 + b"\n2,0\n",
     "probability '" + "5" * 64 + "'... (64 of 1000000 shown) is not a number in [0, 1]"),
    ("encode", "big.pgm", b"P2\n" + b"9" * 4_000 + b" 3\n255\n0\n",
     "PGM image must be square, got " + "9" * 64 + "... (64 of 4000 shown)x3"),
    ("encode", "big.pgm", b"P2\n3 3\n" + b"9" * 4_000 + b"\n0\n",
     "only maxval 255 is supported, got " + "9" * 64 + "... (64 of 4000 shown)"),
    ("encode", "big.pgm", b"P2\n-" + b"9" * 4_000 + b" 3\n255\n0\n",
     "bad dimensions -" + "9" * 63 + "... (64 of 4001 shown)x3"),
    ("simulate", "circ.json", json.dumps({"num_qutrits": 2, "ops": _KEYS}).encode(),
     "circuit JSON 'ops' must be list, got " + _repr_head(_KEYS)),
    ("simulate", "circ.json", _circuit_text(num_qutrits=_WIDTHS),
     "circuit JSON 'num_qutrits' must be int, got " + _repr_head(_WIDTHS)),
    ("simulate", "circ.json", _circuit_text(controls=_CONTROLS),
     "circuit JSON controls need int q and v: " + _repr_head(_CONTROLS)),
    ("simulate", "circ.json", _circuit_text(params=_PARAMS),
     "circuit JSON params must be finite numbers: " + _repr_head(_PARAMS)),
    ("simulate", "circ.json", _circuit_text(gate="Q" * 100_000),
     "unknown gate kind '" + "Q" * 64 + "'... (64 of 100000 shown)"),
    ("simulate", "circ.json", _circuit_text(target="7" * 100_000),
     "circuit JSON 'target' must be int, got '" + "7" * 64 + "'... (64 of 100000 shown)"),
    ("simulate", "circ.json", _circuit_text(target=_BIG),
     f"target {_BIG_HEAD} out of range for 2 qutrits"),
    ("simulate", "circ.json", _circuit_text(target=-_BIG),
     "target must be >= 0, got -" + "7" * 63 + "... (64 of 4001 shown)"),
    ("simulate", "circ.json", _circuit_text(controls=[{"q": _BIG, "v": 1}]),
     f"control qutrit {_BIG_HEAD} out of range for 2 qutrits"),
    ("simulate", "circ.json", _circuit_text(controls=[{"q": 1, "v": _BIG}]),
     f"control value must be 0, 1 or 2, got {_BIG_HEAD}"),
    ("simulate", "circ.json", _circuit_text(gate="X", subspace=[0, _BIG]),
     "subspace pair must be one of ((0, 1), (0, 2), (1, 2)), got (0, " + "7" * 60
     + "... (64 of 4005 shown)"),
    ("simulate", "circ.json", _circuit_text(num_qutrits=_BIG),
     f"{_BIG_HEAD} qutrits exceeds the cap of 12"),
    ("encode", "big.pgm", b"P2\n" + _SIDE + b" " + _SIDE + b"\n255\n0\n",
     "side 1" + "0" * 63 + "... (64 of 4000 shown) is not a power of 3"),
    ("encode", "big.pgm", b"P2\n" + _POWER_SIDE + b" " + _POWER_SIDE + b"\n255\n0\n",
     f"raster truncated: side {_POWER_SIDE[:64].decode()}... (64 of 4000 shown) in 3 bytes"),
], ids=["header-token", "sample", "histogram-row", "probability", "width", "maxval",
        "negative-width", "ops-object", "num-qutrits-list", "controls-list", "params-list",
        "gate-kind", "target", "big-target", "big-negative-target", "big-control-q",
        "big-control-v", "big-subspace-item", "big-num-qutrits", "big-side",
        "big-power-of-3-side"])
def test_errors_quote_a_bounded_prefix_of_long_input(tmp_path, capsys, command, name, data,
                                                     quote):
    source = tmp_path / name
    source.write_bytes(data)
    if command == "encode":
        argv = ("encode", "--method", "fqri", "--input", source, "--out", tmp_path / "c.json")
    elif command == "decode":
        argv = ("decode", "--method", "qrciq", "--hist", source, "--out", tmp_path / "i.ppm")
    else:
        argv = ("simulate", "--circuit", source, "--shots", 10, "--out", tmp_path / "h.csv")
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {quote}\n" and len(err.encode()) <= 200


def test_simulate_exact_probability_table(tmp_path, gray_path):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    out = tmp_path / "probs.csv"
    assert _run("simulate", "--circuit", circ, "--exact", "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "state,probability"
    assert len(lines) == 1 + 27
    total = sum(float(ln.split(",")[1]) for ln in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_simulate_zero_shots_fails(tmp_path, gray_path, capsys):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    assert _run("simulate", "--circuit", circ, "--shots", 0,
                "--out", tmp_path / "h.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_needs_shots_or_exact(tmp_path, gray_path, capsys):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    out = tmp_path / "h.csv"
    assert _run("simulate", "--circuit", circ, "--out", out) == 1
    assert capsys.readouterr().err == "error: --shots is required unless --exact is given\n"
    assert not out.exists()


def test_simulate_same_seed_same_file(tmp_path, gray_path):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert _run("simulate", "--circuit", circ, "--shots", 4000,
                    "--seed", 11, "--out", out) == 0
    assert a.read_text() == b.read_text()


def test_simulate_malformed_circuit(tmp_path, capsys):
    circ = tmp_path / "circ.json"
    circ.write_text("{broken")
    assert _run("simulate", "--circuit", circ, "--shots", 10,
                "--out", tmp_path / "h.csv") == 1
    assert "error:" in capsys.readouterr().err


def _op(**changes):
    op = {"gate": "RY", "subspace": [0, 1], "params": [1.0], "target": 0,
          "controls": [{"q": 1, "v": 1}]}
    return op | changes


def _bad_circuit(name, num_qutrits=2, ops=None):
    doc = {"num_qutrits": num_qutrits, "ops": [_op()] if ops is None else ops}
    return pytest.param(doc, 10, "circuit JSON", id=name)


@pytest.mark.parametrize("doc,shots,message", [
    _bad_circuit("float-v", ops=[_op(controls=[{"q": 1, "v": 1.0}])]),
    _bad_circuit("float-q", ops=[_op(controls=[{"q": 1.5, "v": 1}])]),
    _bad_circuit("float-target", ops=[_op(target=0.0)]),
    _bad_circuit("float-num-qutrits", num_qutrits=2.0, ops=[]),
    _bad_circuit("bool-num-qutrits", num_qutrits=True, ops=[]),
    _bad_circuit("ops-object", ops={}),
    _bad_circuit("controls-object", ops=[_op(controls={})]),
    _bad_circuit("nan-param", ops=[_op(params=[float("nan")])]),
    pytest.param({"num_qutrits": 2, "ops": [_op()]}, 10**22, "shots", id="shots-overflow"),
    pytest.param('{"num_qutrits": 2, "ops": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 10, "circuit JSON", id="deeply-nested"),
])
def test_simulate_rejects_malformed_input(tmp_path, capsys, doc, shots, message):
    circ = tmp_path / "circ.json"
    circ.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "h.csv"
    assert _run("simulate", "--circuit", circ, "--shots", shots, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_decode_qrciq_complete_histogram(tmp_path, rgb_path):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "qrciq", "--input", rgb_path, "--out", circ)
    hist = tmp_path / "hist.csv"
    _run("simulate", "--circuit", circ, "--shots", 5000, "--seed", 3, "--out", hist)
    out = tmp_path / "decoded.ppm"
    report_path = tmp_path / "report.json"
    assert _run("decode", "--method", "qrciq", "--hist", hist, "--n", 1,
                "--out", out, "--report", report_path) == 0
    assert read_ppm(out.read_bytes()) == read_ppm(rgb_path.read_bytes())
    report = json.loads(report_path.read_text())
    assert report["method"] == "qrciq"
    assert report["missing_states"] == []
    assert report["shots"] == 5000


def test_decode_from_exact_probabilities(tmp_path, gray_path):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    probs = tmp_path / "probs.csv"
    _run("simulate", "--circuit", circ, "--exact", "--out", probs)
    out = tmp_path / "decoded.pgm"
    assert _run("decode", "--method", "fqri", "--hist", probs, "--n", 1,
                "--out", out) == 0
    from qutritimg import read_pgm

    assert read_pgm(out.read_bytes()) == read_pgm(gray_path.read_bytes())


@pytest.mark.parametrize("prefix", [b"\n", b" \t\n\r\n"], ids=["blank", "whitespace"])
def test_decode_probability_table_after_blank_lines(tmp_path, gray_path, prefix):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    probs = tmp_path / "probs.csv"
    _run("simulate", "--circuit", circ, "--exact", "--out", probs)
    padded = tmp_path / "padded.csv"
    padded.write_bytes(prefix + probs.read_bytes())
    plain_out, padded_out = tmp_path / "plain.pgm", tmp_path / "padded.pgm"
    assert _run("decode", "--method", "fqri", "--hist", probs, "--out", plain_out) == 0
    assert _run("decode", "--method", "fqri", "--hist", padded, "--out", padded_out) == 0
    assert padded_out.read_bytes() == plain_out.read_bytes()


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as spreadsheet tools write it
SIMULATE_MODES = pytest.mark.parametrize("mode", [("--exact",), ("--shots", 100)],
                                         ids=["exact", "histogram"])


def _with_bom(path):
    marked = path.with_name("bom-" + path.name)
    marked.write_bytes(BOM + path.read_bytes())
    return marked


@SIMULATE_MODES
def test_decode_table_with_a_byte_order_mark(tmp_path, gray_path, mode):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    table = tmp_path / "table.csv"
    _run("simulate", "--circuit", circ, *mode, "--out", table)
    plain_out, marked_out = tmp_path / "plain.pgm", tmp_path / "marked.pgm"
    assert _run("decode", "--method", "fqri", "--hist", table, "--out", plain_out) == 0
    assert _run("decode", "--method", "fqri", "--hist", _with_bom(table),
                "--out", marked_out) == 0
    assert marked_out.read_bytes() == plain_out.read_bytes()


@SIMULATE_MODES
def test_simulate_and_draw_circuit_json_with_a_byte_order_mark(tmp_path, capsys, gray_path,
                                                               mode):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    plain_out, marked_out = tmp_path / "plain.csv", tmp_path / "marked.csv"
    assert _run("simulate", "--circuit", circ, *mode, "--out", plain_out) == 0
    assert _run("simulate", "--circuit", _with_bom(circ), *mode, "--out", marked_out) == 0
    assert marked_out.read_bytes() == plain_out.read_bytes()
    capsys.readouterr()
    assert _run("diagram", "--circuit", circ) == 0
    plain = capsys.readouterr()
    assert _run("diagram", "--circuit", _with_bom(circ)) == 0
    assert capsys.readouterr() == plain


def _set_row(k, row):
    return lambda rows: rows[:k] + [row(rows[k])] + rows[k + 1:]


@pytest.mark.parametrize("mutate,message", [
    pytest.param(_set_row(1, lambda r: "000" + r[3:]), "duplicate", id="duplicate"),
    pytest.param(_set_row(1, lambda r: "0" + r), "not 3 trits", id="long-state"),
    pytest.param(_set_row(0, lambda r: "000,-0.1"), "'-0.1' is not", id="negative"),
    pytest.param(_set_row(0, lambda r: "000,nan"), "'nan' is not", id="nan"),
    pytest.param(_set_row(0, lambda r: "000,inf"), "'inf' is not", id="inf"),
    pytest.param(_set_row(0, lambda r: "000,1.5"), "'1.5' is not", id="above-one"),
    pytest.param(lambda rows: [f"{r.split(',')[0]},{float(r.split(',')[1]) / 2!r}"
                               for r in rows], "sum to 0.5", id="sum-half"),
    pytest.param(lambda rows: ["0" * 13 + ",1"], "13 qutrits exceeds the cap of 12",
                 id="13-trits"),
])
def test_decode_rejects_bad_probability_table(tmp_path, gray_path, capsys, mutate,
                                              message):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    probs = tmp_path / "probs.csv"
    _run("simulate", "--circuit", circ, "--exact", "--out", probs)
    header, *rows = probs.read_text().splitlines()
    probs.write_text("\n".join([header] + mutate(rows)) + "\n")
    out = tmp_path / "decoded.pgm"
    assert _run("decode", "--method", "fqri", "--hist", probs, "--n", 1,
                "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_decode_fqrqci_requires_three_histograms(tmp_path, rgb_path, capsys):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqrqci", "--input", rgb_path, "--out", circ)
    hist = tmp_path / "hist.csv"
    _run("simulate", "--circuit", circ, "--shots", 100, "--out", hist)
    assert _run("decode", "--method", "fqrqci", "--hist", hist, "--n", 1,
                "--out", tmp_path / "img.ppm") == 1
    assert "hist2" in capsys.readouterr().err


@pytest.mark.parametrize("rows,message", [
    (["0000000,0"], "at least 1 shot"),
    (["0000000,3", "0000000,4"], "duplicate state"),
    (["0000000,99999999999999999999"], "exceeds 2^63 - 1"),
    (["0" * 13 + ",5"], "13 qutrits exceeds the cap of 12"),
    (["0" * 41 + ",5"], "41 qutrits exceeds the cap of 12"),
], ids=["zero-shots", "repeated-state", "count-past-int64", "13-trits", "41-trits"])
def test_decode_rejects_bad_count_table(tmp_path, capsys, rows, message):
    hist = tmp_path / "hist.csv"
    hist.write_text("\n".join(["state,count"] + rows) + "\n")
    out = tmp_path / "img.ppm"
    assert _run("decode", "--method", "qrciq", "--hist", hist, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_decode_rejects_extra_histograms(tmp_path, rgb_path, capsys):
    circ, hist = tmp_path / "circ.json", tmp_path / "hist.csv"
    _run("encode", "--method", "fqrri", "--input", rgb_path, "--out", circ)
    _run("simulate", "--circuit", circ, "--shots", 100, "--out", hist)
    out = tmp_path / "img.ppm"
    assert _run("decode", "--method", "fqrri", "--hist", hist, "--hist2", hist,
                "--hist3", hist, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--hist2" in err and "fqrri" in err
    assert not out.exists()


def _fresh_process(*argv):
    """`python -m qutritimg argv` in a new process: (exit code, stderr)."""
    import subprocess
    import sys

    import qutritimg

    result = subprocess.run(
        [sys.executable, "-m", "qutritimg", *map(str, argv)], capture_output=True,
        text=True, cwd=pathlib.Path(qutritimg.__file__).parents[1],
    )
    return result.returncode, result.stderr


def test_one_parser_serves_every_call(tmp_path, rgb_path, capsys):
    """main builds its parser once per process: after a failed call, valid
    calls with and without --n give what they give in a fresh process."""
    circ, hist = tmp_path / "circ.json", tmp_path / "hist.csv"
    _run("encode", "--method", "fqrri", "--input", rgb_path, "--out", circ)
    _run("simulate", "--circuit", circ, "--shots", 500, "--seed", 2, "--out", hist)
    calls = [["--hist2", hist], [], ["--n", 1]]
    outputs = {}
    for side in ("same", "fresh"):
        d = tmp_path / side
        d.mkdir()
        for k, extra in enumerate(calls):
            argv = ["decode", "--method", "fqrri", "--hist", hist, *extra,
                    "--out", d / f"img{k}.ppm", "--report", d / f"rep{k}.json"]
            if side == "same":
                code, err = _run(*argv), capsys.readouterr().err
            else:
                code, err = _fresh_process(*argv)
            files = [d / f"img{k}.ppm", d / f"rep{k}.json"]
            outputs[side, k] = code, err, [p.read_bytes() if p.exists() else None
                                           for p in files]
    assert cli._build_parser() is cli._build_parser()
    for k in range(len(calls)):
        assert outputs["same", k] == outputs["fresh", k]
    assert outputs["same", 0][0] == 1 and outputs["same", 0][2] == [None, None]
    assert outputs["same", 1][0] == outputs["same", 2][0] == 0


@pytest.mark.parametrize("sim", [["--exact"], ["--shots", 2000, "--seed", 6]],
                         ids=["exact", "shots"])
@pytest.mark.parametrize("method", sorted(CODECS))
def test_decode_infers_n(tmp_path, gray_path, rgb_path, method, sim):
    codec = CODECS[method]
    circ = tmp_path / "circ.json"
    _run("encode", "--method", method, "--input", gray_path if codec.gray else rgb_path,
         "--out", circ)
    hists = []
    for k in range(codec.histograms):
        hists += [f"--hist{k + 1 if k else ''}", tmp_path / f"h{k}.csv"]
        circuit = circ.with_suffix(f".m{k + 1}.json") if k else circ
        assert _run("simulate", "--circuit", circuit, *sim, "--out", hists[-1]) == 0
    outputs = []
    for given in ([], ["--n", 1]):
        img, report = tmp_path / f"img{len(given)}", tmp_path / f"rep{len(given)}.json"
        assert _run("decode", "--method", method, *hists, *given,
                    "--out", img, "--report", report) == 0
        outputs.append((img.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [2, -1])
def test_decode_wrong_n_names_both_values(tmp_path, gray_path, capsys, n):
    circ, hist = tmp_path / "circ.json", tmp_path / "hist.csv"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    _run("simulate", "--circuit", circ, "--shots", 100, "--out", hist)
    out = tmp_path / "img.pgm"
    assert _run("decode", "--method", "fqri", "--hist", hist, "--n", n, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--n {n}" in err and "n = 1" in err
    assert not out.exists()


def test_decode_wrong_register_size(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("state,count\n0000,5\n")
    assert _run("decode", "--method", "fqri", "--hist", hist, "--n", 1,
                "--out", tmp_path / "img.pgm") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method,source", [
    (name, "gray" if codec.gray else "rgb") for name, codec in CODECS.items()
])
def test_roundtrip_all_methods(tmp_path, gray_path, rgb_path, method, source):
    report_path = tmp_path / f"{method}.json"
    input_path = gray_path if source == "gray" else rgb_path
    assert _run("roundtrip", "--method", method, "--input", input_path,
                "--shots", 20000, "--seed", 1, "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    for key in ("method", "n", "shots", "seed", "mae", "psnr", "exact_match",
                "clip_events", "missing_states"):
        assert key in report
    assert report["method"] == method
    assert report["n"] == 1
    ext = ".pgm" if source == "gray" else ".ppm"
    assert report_path.with_suffix(ext).exists()


def test_roundtrip_qrciq_exact_at_5000_shots(tmp_path, rgb_path):
    report_path = tmp_path / "qr.json"
    assert _run("roundtrip", "--method", "qrciq", "--input", rgb_path,
                "--shots", 5000, "--seed", 0, "--report", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["exact_match"] is True
    assert report["mae"] == 0
    assert report["psnr"] is None
    assert report["missing_states"] == []


def test_roundtrip_default_report_bytes(tmp_path, gray_path):
    """Without --diagnostics the report keeps its fields and layout, byte for byte."""
    report_path = tmp_path / "r.json"
    assert _run("roundtrip", "--method", "fqri", "--input", gray_path, "--shots", 1000,
                "--seed", 2, "--report", report_path, "--out", tmp_path / "r.pgm") == 0
    assert report_path.read_text() == (
        '{\n  "method": "fqri",\n  "n": 1,\n  "shots": 1000,\n  "clip_events": 0,\n'
        '  "missing_states": [],\n  "seed": 2,\n  "mae": 4.666666666666667,\n'
        '  "psnr": 33.72871189481019,\n  "exact_match": false\n}')


@pytest.mark.parametrize("method", ["fqri", "fqrqci", "qrciq"])
def test_roundtrip_diagnostics_adds_timings_and_sizes(tmp_path, gray_path, rgb_path, method):
    codec = CODECS[method]
    input_path = gray_path if codec.gray else rgb_path
    docs = []
    for extra in ((), ("--diagnostics",)):
        report_path = tmp_path / f"r{len(extra)}.json"
        assert _run("roundtrip", "--method", method, "--input", input_path, "--shots", 500,
                    "--seed", 4, "--report", report_path, "--out", tmp_path / "r.img",
                    *extra) == 0
        docs.append(json.loads(report_path.read_text()))
    plain, diagnosed = docs
    added = {key: diagnosed.pop(key) for key in list(diagnosed) if key not in plain}
    assert diagnosed == plain and list(diagnosed) == list(plain)
    assert list(added) == ["timings_ms", "minor_faults", "ops", "qutrits", "state_bytes"]
    timings = added["timings_ms"]
    assert list(timings) == ["encode", "run", "sample", "decode"]
    assert all(type(ms) is float and ms >= 0 for ms in timings.values())
    faults = added["minor_faults"]
    assert list(faults) == list(timings)
    assert all(type(count) is int and count >= 0 for count in faults.values())
    image = read_pgm(input_path.read_bytes()) if codec.gray else read_ppm(input_path.read_bytes())
    circuits = codec.measure(codec.encode(image))
    assert added["ops"] == sum(len(c.ops) for c in circuits)
    assert added["qutrits"] == circuits[0].num_qutrits
    assert added["state_bytes"] == 16 * 3 ** circuits[0].num_qutrits


def test_roundtrip_single_shot_does_not_crash(tmp_path, gray_path):
    report_path = tmp_path / "one.json"
    assert _run("roundtrip", "--method", "fqri", "--input", gray_path,
                "--shots", 1, "--seed", 5, "--report", report_path,
                "--out", tmp_path / "one.pgm") == 0
    report = json.loads(report_path.read_text())
    assert report["exact_match"] is False


def test_diagram_wire_counts(tmp_path, gray_path, rgb_path, capsys):
    circ = tmp_path / "circ.json"
    _run("encode", "--method", "fqri", "--input", gray_path, "--out", circ)
    assert _run("diagram", "--circuit", circ) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3

    _run("encode", "--method", "qrciq", "--input", rgb_path, "--out", circ)
    assert _run("diagram", "--circuit", circ) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7


def test_module_entry_point(tmp_path, gray_path):
    import pathlib
    import subprocess
    import sys

    import qutritimg

    out = tmp_path / "circ.json"
    result = subprocess.run(
        [sys.executable, "-m", "qutritimg", "encode", "--method", "fqri",
         "--input", str(gray_path), "--out", str(out)],
        capture_output=True,
        # run from the directory holding the imported package, installed or not
        cwd=pathlib.Path(qutritimg.__file__).parents[1],
    )
    assert result.returncode == 0
    assert out.exists()


def test_diagram_empty_circuit(tmp_path, capsys):
    circ = tmp_path / "circ.json"
    circ.write_text('{"num_qutrits": 2, "ops": []}')
    assert _run("diagram", "--circuit", circ) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2
    assert "[" not in out


# --- fuzzing: bad input ends in exit 1 and one error line -------------------

def _exit_and_stderr(*argv):
    """Run the CLI quietly; its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = _run(*argv)  # any exception but ValueError/OSError escapes here
    return code, err.getvalue()


def _fails_cleanly(*argv):
    """Run the CLI; True when it exits 1 with exactly one `error:` line."""
    code, err = _exit_and_stderr(*argv)
    return code == 1 and err.startswith("error: ") and err.count("\n") == 1


def _utf8(text):
    """`text` as UTF-8, a lone surrogate as the invalid bytes it stands for."""
    return text.encode("utf-8", "surrogatepass")


def _sample_circuit_doc():
    image = read_ppm((pathlib.Path(__file__).resolve().parent.parent / "data" / "rgb_3x3.ppm")
                     .read_bytes())
    _, m2, _ = CODECS["fqrqci"].measure(CODECS["fqrqci"].encode(image))
    return json.loads(circuit_to_json(m2))  # controlled and uncontrolled ops, params


CIRCUIT_DOC = _sample_circuit_doc()
NOT_INT = (True, False, None, 1.5, "1", [], {})
BAD_FIELD = {  # values that no op of CIRCUIT_DOC accepts in that field
    "num_qutrits": NOT_INT + (0, -1, 1),
    "ops": (None, {}, "x", 1, [1], [[]]),
    "gate": (None, 1, [], "Q", "h"),
    "subspace": (True, 7, "x", [0], [1, 0], [0, 0, 1]),
    "params": (None, "x", {}, [True], [math.nan], [0.5] * 4),
    "target": NOT_INT + (-1, 99),
    "controls": (None, {}, "x", [1], [{"q": 1}]),
    "q": NOT_INT + (-1, 99),
    "v": NOT_INT + (-1, 3),
}


@st.composite
def broken_circuit_texts(draw):
    """Circuit JSON made invalid: truncated, one field removed or made bad, or junk."""
    text = json.dumps(CIRCUIT_DOC, indent=1)
    how = draw(st.sampled_from(("truncate", "field", "junk")))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "junk":
        return draw(st.text())
    doc = copy.deepcopy(CIRCUIT_DOC)
    places = [doc] + doc["ops"] + [c for op in doc["ops"] for c in op["controls"]]
    place = draw(st.sampled_from(places))
    key = draw(st.sampled_from(sorted(place)))
    if key == "subspace" and place[key] is None:
        place[key] = [0, 1]  # on a gate that takes no subspace
    elif draw(st.booleans()):
        del place[key]
    else:
        place[key] = draw(st.sampled_from(BAD_FIELD[key]))
    return json.dumps(doc)


@settings(deadline=None, max_examples=150)
@given(broken_circuit_texts())
def test_fuzz_circuit_json_fails_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        circ, out = pathlib.Path(tmp, "circ.json"), pathlib.Path(tmp, "h.csv")
        circ.write_bytes(_utf8(text))
        assert _fails_cleanly("simulate", "--circuit", circ, "--shots", 10, "--out", out)
        assert not out.exists()
        assert _fails_cleanly("diagram", "--circuit", circ)


@pytest.mark.parametrize("width", [13, 10**30])
def test_diagram_wider_than_the_cap_fails_cleanly(tmp_path, width):
    circ = tmp_path / "wide.json"
    circ.write_text(json.dumps({"num_qutrits": width, "ops": []}))
    assert _fails_cleanly("diagram", "--circuit", circ)


def _tables():
    """A valid histogram CSV and probability CSV of the 3x3 gray sample."""
    image = read_pgm((pathlib.Path(__file__).resolve().parent.parent / "data" / "gray_3x3.pgm")
                     .read_bytes())
    state = run(CODECS["fqri"].encode(image).circuit)
    return (histogram_to_csv(sample(state, 500, 1)),
            probabilities_to_csv(state.num_qutrits, probabilities(state)))


HIST_CSV, PROB_CSV = _tables()
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)))


@st.composite
def broken_tables(draw):
    """CSV text that neither table reader accepts."""
    how = draw(st.sampled_from(("junk", "header-junk", "bad-cell", "duplicate", "long-state")))
    if how == "junk":
        return draw(st.text())
    text = draw(st.sampled_from((HIST_CSV, PROB_CSV)))
    header, *rows = text.splitlines()
    if how == "header-junk":  # no digit, so no row can parse
        return header + "\n" + draw(NO_DIGITS)
    k = draw(st.integers(0, len(rows) - 1))
    state, value = rows[k].split(",")
    if how == "duplicate":
        rows.append(rows[k])
    elif how == "long-state":
        rows[k] = f"{state}0,{value}"
    elif draw(st.booleans()):
        rows[k] = f"{state[:-1]}{draw(st.sampled_from('3x -'))},{value}"
    else:  # not a count: 2 and 1e400 are probabilities above one
        bad = ("-1", "1.5", "x", "", "nan") + (("2", "1e400") if text == PROB_CSV else ())
        rows[k] = f"{state},{draw(st.sampled_from(bad))}"
    return "\n".join([header] + rows) + "\n"


@settings(deadline=None, max_examples=150)
@given(broken_tables())
def test_fuzz_table_csv_fails_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        table, out = pathlib.Path(tmp, "table.csv"), pathlib.Path(tmp, "out.pgm")
        table.write_bytes(_utf8(text))
        assert _fails_cleanly("decode", "--method", "fqri", "--hist", table, "--out", out)
        assert not out.exists()


def _netpbm_files():
    """The 3x3 samples as P2, P5, P3 and P6 bytes."""
    data = pathlib.Path(__file__).resolve().parent.parent / "data"
    gray = read_pgm((data / "gray_3x3.pgm").read_bytes())
    rgb = read_ppm((data / "rgb_3x3.ppm").read_bytes())
    return {b"P2": write_pgm(gray), b"P5": write_pgm(gray, binary=True),
            b"P3": write_ppm(rgb), b"P6": write_ppm(rgb, binary=True)}


NETPBM = _netpbm_files()
SIDES = st.one_of(st.integers(-1, 30), st.sampled_from([3**k for k in range(26)]),
                  st.integers(0, 10**12))


@st.composite
def mutated_netpbm(draw):
    """A valid P2, P5, P3 or P6 file with new header dimensions, or cut,
    or with one byte changed, bytes inserted or a span deleted."""
    magic = draw(st.sampled_from(sorted(NETPBM)))
    data = NETPBM[magic]
    how = draw(st.sampled_from(("dims", "truncate", "byte", "insert", "delete")))
    raster = data[len(magic + b"\n3 3\n255\n"):]
    if how == "dims":
        return magic, b"%s\n%d %d\n255\n%s" % (magic, draw(SIDES), draw(SIDES), raster)
    k = draw(st.integers(0, len(data) - 1))
    if how == "truncate":
        return magic, data[:k]
    if how == "byte":
        return magic, data[:k] + bytes([draw(st.integers(0, 255))]) + data[k + 1:]
    if how == "insert":
        return magic, data[:k] + draw(st.binary(min_size=1, max_size=8)) + data[k:]
    return magic, data[:k] + data[k + draw(st.integers(1, 8)):]


@settings(deadline=None, max_examples=300)
@given(mutated_netpbm())
def test_fuzz_netpbm_encodes_or_fails_cleanly(case):
    magic, data = case
    with tempfile.TemporaryDirectory() as tmp:
        image, out = pathlib.Path(tmp, "image"), pathlib.Path(tmp, "circ.json")
        image.write_bytes(data)
        method = "fqri" if magic in (b"P2", b"P5") else "mcqri"
        code, err = _exit_and_stderr("encode", "--method", method, "--input", image,
                                     "--out", out)
        if code == 0:
            assert out.exists() and not err
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
