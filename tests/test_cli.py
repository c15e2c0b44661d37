import json
import tracemalloc

import numpy as np
import pytest

from mucinf import cpinf, jsonio
from mucinf.cli import main
from mucinf.matc import MAT
from mucinf.objects import Base

RNG = np.random.default_rng(123)


def write_channel(path, k):
    path.write_text(json.dumps(jsonio.channel_to_json(k)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_channel_equiv_reflexive(tmp_path, capsys):
    p = write_channel(tmp_path / "id.json", cpinf.kraus_identity("mat",
                                                                 Base(2)))
    code, out, _ = run(capsys, "channel-equiv", p, p)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert "seed" in payload and "tol" in payload


def test_channel_equiv_distinguishes(tmp_path, capsys):
    k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(2))
    p1 = write_channel(tmp_path / "a.json", k1)
    p2 = write_channel(tmp_path / "b.json", k2)
    code, out, _ = run(capsys, "channel-equiv", p1, p2)
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_channel_apply_discard_is_trace(tmp_path, capsys):
    p = write_channel(tmp_path / "discard.json",
                      cpinf.env_discard("mat", Base(2)))
    rho = cpinf.random_density(RNG, 2)
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(jsonio.matrix_to_json(rho)))
    code, out, _ = run(capsys, "channel-apply", p, str(rho_path))
    assert code == 0
    result = jsonio.matrix_from_json(json.loads(out))
    assert np.allclose(result, [[np.trace(rho)]])


def test_compose_then_apply(tmp_path, capsys):
    k1 = cpinf.random_channel(MAT, RNG, Base(2), Base(3), Base(2))
    k2 = cpinf.random_channel(MAT, RNG, Base(3), Base(2), Base(1))
    p1 = write_channel(tmp_path / "k1.json", k1)
    p2 = write_channel(tmp_path / "k2.json", k2)
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "channel-compose", p1, p2,
                     "--out", str(out_path))
    assert code == 0
    k = jsonio.channel_from_json(json.loads(out_path.read_text()))
    assert cpinf.equiv_decide(k, cpinf.kraus_compose(k1, k2))


def test_choi_purify_round_trip_twenty_fixtures(tmp_path, capsys):
    for i in range(20):
        k = cpinf.random_channel(MAT, RNG)
        cpath = write_channel(tmp_path / f"chan{i}.json", k)
        choi_path = tmp_path / f"choi{i}.json"
        code, _, _ = run(capsys, "channel-choi", cpath,
                         "--out", str(choi_path))
        assert code == 0
        pur_path = tmp_path / f"pure{i}.json"
        code, _, _ = run(capsys, "channel-purify", str(choi_path),
                         "--out", str(pur_path), "--tol", "1e-8")
        assert code == 0
        code, out, _ = run(capsys, "channel-equiv", str(pur_path), cpath,
                           "--tol", "1e-7")
        assert code == 0, out


def test_channel_decompose(tmp_path, capsys):
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(3))
    p = write_channel(tmp_path / "k.json", k)
    code, out, _ = run(capsys, "channel-decompose", p)
    assert code == 0
    blocks = [jsonio.matrix_from_json(b) for b in json.loads(out)["kraus"]]
    assert len(blocks) == 3
    for got, want in zip(blocks, cpinf.pure_decomposition(k)):
        assert np.array_equal(got, want)


def test_laws_run_exit_codes_and_lines(capsys):
    code, out, _ = run(capsys, "laws-run", "--model", "cplane",
                       "--trials", "2", "--seed", "7")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) >= 30
    assert all(line["pass"] for line in lines)
    assert all(line["seed"] == 7 for line in lines)


def test_laws_run_mat_emits_full_catalog(capsys):
    code, out, _ = run(capsys, "laws-run", "--model", "mat",
                       "--trials", "1", "--seed", "7")
    assert code == 0
    assert len(out.strip().splitlines()) >= 30


def test_laws_run_filter(capsys):
    code, out, _ = run(capsys, "laws-run", "--model", "mat",
                       "--trials", "2", "--filter", "DMIX")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["law"] == "DMIX"


def test_laws_list(capsys):
    code, out, _ = run(capsys, "laws-list")
    assert code == 0
    laws = json.loads(out)["laws"]
    assert any(entry["id"] == "DMIX" for entry in laws)
    assert len(laws) >= 30


def test_fmat_check(tmp_path, capsys):
    from mucinf.fmat import include_mat
    m = include_mat(np.eye(2))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(jsonio.fmat_to_json(m)))
    code, out, _ = run(capsys, "fmat-check", str(good))
    assert code == 0 and json.loads(out)["valid"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "src": {"X": [0, 1], "A": [[0]], "B": [[0], [1], [0, 1], []]},
        "tgt": {"X": "omega", "A": "fin", "B": "all"},
        "entries": []}))
    code, out, _ = run(capsys, "fmat-check", str(bad))
    assert code == 1 and not json.loads(out)["valid"]


def test_fmat_check_rejects_labels_outside_the_index(tmp_path, capsys):
    space = {"X": [0, 1], "A": [[0, 1], [0], [1], []],
             "B": [[0, 1], [0], [1], []]}
    p = tmp_path / "outside.json"
    p.write_text(json.dumps({"src": space, "tgt": space,
                             "entries": [[5, 7, 1.0, 0.0]]}))
    code, out, _ = run(capsys, "fmat-check", str(p))
    report = json.loads(out)
    assert code == 1 and report["src_space_valid"]
    assert report["relation_valid"] is False and report["valid"] is False


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MUC_CPINF_SEED", "42")
    code, out, _ = run(capsys, "laws-run", "--model", "cplane",
                       "--trials", "1", "--filter", "DMIX")
    assert code == 0
    assert json.loads(out.strip())["seed"] == 42


def test_malformed_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MUC_CPINF_SEED", "abc")
    code, out, err = run(capsys, "laws-list")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MUC_CPINF_SEED" in err


def test_non_integral_dimension_exits_two(tmp_path, capsys):
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(1))
    d = jsonio.channel_to_json(k)
    d["dom"] = 2.5
    p = tmp_path / "k.json"
    p.write_text(json.dumps(d))
    code, _, err = run(capsys, "channel-choi", str(p))
    assert code == 2 and "TypingError" in err


def test_channel_of_the_wrong_shape_exits_two(tmp_path, capsys):
    p = tmp_path / "k.json"
    p.write_text("[1, 2]")
    code, out, err = run(capsys, "channel-choi", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: TypingError") and err.count("\n") == 1


def test_fmat_space_of_the_wrong_shape_exits_two(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "src": {"X": 5, "A": "fin", "B": "all"},
        "tgt": {"X": "omega", "A": "fin", "B": "all"},
        "entries": []}))
    code, out, err = run(capsys, "fmat-check", str(p))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["valid"] is False and "'X'" in report["error"]


def test_fmat_check_refuses_a_long_member_before_closing_it(tmp_path,
                                                            capsys):
    labels = list(range(20))
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "src": {"X": labels, "A": [labels], "B": [labels]},
        "tgt": {"X": "omega", "A": "fin", "B": "all"},
        "entries": []}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "fmat-check", str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == ("error: DimensionOverflow: power family over 20 labels "
                   "is beyond desk scale\n")
    assert peak < 2 ** 20


def test_channel_choi_refuses_an_oversized_choi_matrix(tmp_path, capsys):
    # 5000 x 1 body, ancilla 1: its Choi matrix would be 5000 x 5000
    p = tmp_path / "long.json"
    p.write_text(json.dumps({
        "dom": 1, "cod": 5000, "ancilla": 1,
        "body": {"rows": 5000, "cols": 1, "entries": [[1.0, 0.0]] * 5000}}))
    code, out, err = run(capsys, "channel-choi", str(p))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: DimensionOverflow: Choi matrix 5000x5000")


@pytest.mark.parametrize("command", [["channel-choi", "k"],
                                     ["channel-equiv", "k", "k"],
                                     ["channel-compose", "k", "k"],
                                     ["channel-apply", "k", "rho"]])
def test_an_overflowing_channel_exits_two(tmp_path, capsys, command):
    # finite entries whose products overflow: no numpy warnings, no
    # Infinity or NaN on stdout
    (tmp_path / "k").write_text(json.dumps({
        "dom": 1, "cod": 1, "ancilla": 1,
        "body": {"rows": 1, "cols": 1, "entries": [[1e308, 1e308]]}}))
    (tmp_path / "rho").write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}))
    code, out, err = run(capsys, command[0],
                         *(str(tmp_path / name) for name in command[1:]))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if command[0] in ("channel-choi", "channel-equiv"):
        assert err.startswith("error: DimensionOverflow: Choi matrix "
                              "overflows: body entries reach 1.41e+308")


def test_usage_error_exit_two(capsys):
    code, _, err = run(capsys, "channel-choi", "no-such-file.json")
    assert code == 2 and "error:" in err


def test_entry_point_parses():
    with pytest.raises(SystemExit):
        main(["--help"])
