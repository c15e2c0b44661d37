import argparse
import hashlib
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from mucinf import cli, cpinf, jsonio
from mucinf.cli import build_parser, main
from mucinf.fmat import MAX_EXPLICIT, include_mat
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


def test_channel_equiv_builds_two_canonical_forms(tmp_path, capsys,
                                                  monkeypatch):
    k1, k2 = cpinf.distinct_pair(MAT, RNG, Base(2), Base(3))
    same = cpinf.equivalent_variant(RNG, k1)
    paths = [write_channel(tmp_path / f"{i}.json", k)
             for i, k in enumerate((k1, same, k2))]
    built = []
    canonical = MAT.canonical
    monkeypatch.setattr(MAT, "canonical",
                        lambda k: built.append(k) or canonical(k))
    for other, expected in ((paths[1], 0), (paths[2], 1)):
        built.clear()
        code, out, _ = run(capsys, "channel-equiv", paths[0], other)
        payload = json.loads(out)
        assert (code, len(built)) == (expected, 2)
        assert payload["equivalent"] is (expected == 0)
        assert (payload["deviation"] <= 1e-9) is (expected == 0)


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


def test_a_model_listed_twice_runs_once(capsys):
    code, out, _ = run(capsys, "laws-run", "--model", "mat", "--model", "mat",
                       "--filter", "DMIX", "--trials", "1")
    assert code == 0
    (line,) = out.strip().splitlines()
    report = json.loads(line)
    assert (report["law"], report["model"]) == ("DMIX", "mat")


def test_laws_list(capsys):
    code, out, _ = run(capsys, "laws-list")
    assert code == 0
    laws = json.loads(out)["laws"]
    assert any(entry["id"] == "DMIX" for entry in laws)
    assert len(laws) >= 30


def test_fmat_check(tmp_path, capsys):
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


@pytest.mark.parametrize("command, field", [
    ("channel-choi", "dom"), ("channel-choi", "cod"),
    ("channel-choi", "ancilla"), ("channel-choi", "body.rows"),
    ("channel-choi", "body.cols"), ("channel-purify", "rows"),
    ("channel-purify", "cols"), ("channel-purify", "a"),
    ("channel-purify", "b")])
def test_a_negative_dimension_names_its_field(tmp_path, capsys, command,
                                              field):
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(2), Base(1))
    d = (jsonio.channel_to_json(k) if command == "channel-choi"
         else jsonio.choi_to_json(cpinf.to_choi(k)))
    *outer, key = field.split(".")
    target = d
    for name in outer:
        target = target[name]
    target[key] = -1
    p = tmp_path / "in.json"
    p.write_text(json.dumps(d))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err == (f"error: TypingError: '{key}' must be a non-negative "
                   f"integer, got -1\n")


def test_zero_trials_exit_two(capsys):
    # no trial checks nothing, and must not print passing reports
    code, out, err = run(capsys, "laws-run", "--trials", "0",
                         "--filter", "DMIX")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: trials must be >= 1, got 0\n"


def test_a_filter_selecting_no_pair_exits_two(capsys):
    # DLDC1a is an entry, but not one that fmat carries
    code, out, err = run(capsys, "laws-run", "--model", "fmat",
                         "--filter", "DLDC1a")
    assert (code, out) == (2, "")
    assert err == ("error: UnknownLaw: filter 'DLDC1a' selects no law of "
                   "models ['fmat']\n")


def test_channel_of_the_wrong_shape_exits_two(tmp_path, capsys):
    p = tmp_path / "k.json"
    p.write_text("[1, 2]")
    code, out, err = run(capsys, "channel-choi", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: TypingError") and err.count("\n") == 1


def test_an_ancilla_that_does_not_fit_the_body_exits_two(tmp_path, capsys):
    # the body's shape is checked once, when the representative is built
    k = cpinf.random_channel(MAT, RNG, Base(2), Base(3), Base(2))
    d = jsonio.channel_to_json(k)
    d["ancilla"] = 3
    p = tmp_path / "k.json"
    p.write_text(json.dumps(d))
    code, out, err = run(capsys, "channel-choi", str(p))
    assert (code, out) == (2, "")
    assert err == ("error: TypingError: payload shape (6, 2) does not match "
                   "typing (9, 2)\n")


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


def test_fmat_check_refuses_one_label_beyond_desk_scale(tmp_path, capsys):
    labels = list(range(MAX_EXPLICIT + 1))
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "src": {"X": labels, "A": [labels], "B": [labels]},
        "tgt": {"X": "omega", "A": "fin", "B": "all"},
        "entries": []}))
    code, out, err = run(capsys, "fmat-check", str(p))
    assert code == 2 and out == ""
    assert err == (f"error: DimensionOverflow: power family over "
                   f"{MAX_EXPLICIT + 1} labels is beyond desk scale\n")


@pytest.mark.parametrize("command", ["channel-choi", "fmat-check"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    # the decoder recurses once per array, so this exhausts any stack limit
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, str(p))
    assert code == 2 and out == ""
    assert err == f"error: TypingError: {p}: JSON nested too deeply\n"


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


def test_entry_point_parses(capsys):
    # the second call goes through the parser the first one built
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mucinf")


def test_a_huge_integer_entry_exits_two(tmp_path, capsys):
    p = tmp_path / "k.json"
    p.write_text('{"dom": 1, "cod": 1, "ancilla": 1, "body": {"rows": 1, '
                 '"cols": 1, "entries": [[' + "9" * 400 + ', 0]]}}')
    code, out, err = run(capsys, "channel-choi", str(p))
    assert (code, out) == (2, "")
    assert err == "error: TypingError: non-finite number in matrix\n"


def _fixtures():
    """A valid input document for each positional of the command table."""
    k = cpinf.kraus_identity("mat", Base(2))
    channel = jsonio.channel_to_json(k)
    return {"first": channel, "second": channel, "channel": channel,
            "choi": jsonio.choi_to_json(cpinf.to_choi(k)),
            "density": jsonio.matrix_to_json(np.eye(2) / 2),
            "matrix": jsonio.fmat_to_json(include_mat(np.eye(2)))}


def _commands(tmp_path):
    """One argv per row of ``cli.COMMANDS``, a fixture file per positional."""
    paths = {}
    for name, doc in _fixtures().items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return [[name, *(str(paths[arg]) for arg in row.positionals)]
            for name, row in cli.COMMANDS.items()]


def test_every_row_runs_on_its_fixtures(tmp_path, capsys):
    quick = {"laws-run": ["--trials", "1", "--filter", "DMIX"]}
    for argv in _commands(tmp_path):
        code, out, err = run(capsys, *argv, *quick.get(argv[0], []))
        assert (code, err) == (0, ""), argv
        assert [json.loads(line) for line in out.splitlines()], argv


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_a_tolerance_not_positive_and_finite_exits_two(tmp_path, capsys,
                                                       tol):
    for argv in _commands(tmp_path):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ValueError: tolerance must be "
                              "positive and finite") and err.count("\n") == 1


def _help(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


# sha256 of ``mucinf --help`` ("") and of each ``mucinf <cmd> --help`` at
# 80 columns, as the hand-written parser printed them
_HELP_SHA256 = {
    "": "2945778cf0ee8c671b8d443d1a1b379989759ce7683de31563221f748c5a596f",
    "laws-run":
        "9e471b5f463aceb286d1c0d7f3bf28e15ec9b24f230baff6d9e995784cc2e886",
    "laws-list":
        "af83bd1895ce8e62b3919c8b8c1f8359ad6aabcc5a970f1a53ac874882264764",
    "channel-compose":
        "aaa88b7b334f2627fdbf13dd959d35619685e2463bc59b6c0bd4e721ce713cb4",
    "channel-equiv":
        "274af701ccc05a2c1561cbfedf4652442a3fd677d402d1ff85747ba3e2a1c6cc",
    "channel-choi":
        "6357db1e3ea553c318ab953f780ee9371658e6f81bde83b06e64bd9ef0db6a59",
    "channel-decompose":
        "494a58c67c7e1a29bab06838f2786dddfa25b59961b0b0907e0350c7cab03dd7",
    "channel-purify":
        "50c6029953c3b58db85fcbcbd94d6648abb533e50147076b82cea0c385696134",
    "channel-apply":
        "33a5a31fe28bafc31e4331eac0e91dba180376cf66becac402da2274f0be343f",
    "fmat-check":
        "b446671f7b81fe0919154990697f363a0d6a58d19ef02d3fe61d01918813347c",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently elsewhere")
@pytest.mark.parametrize("command", list(_HELP_SHA256))
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    text = _help(capsys, monkeypatch, *filter(None, [command]))
    assert hashlib.sha256(text.encode()).hexdigest() == _HELP_SHA256[command]


def test_help_lists_exactly_the_table(capsys, monkeypatch):
    assert sorted(_HELP_SHA256) == sorted(["", *cli.COMMANDS])
    text = _help(capsys, monkeypatch)
    choices = re.search(r"\{([^}]*)\}", text).group(1)
    assert choices.split(",") == list(cli.COMMANDS)
    # only rows with a help text are described, in table order
    described = re.findall(r"^    (\S+)  +\S", text, re.MULTILINE)
    assert described == [name for name, row in cli.COMMANDS.items()
                         if row.help]


def test_wrappers_installed_after_import_see_every_call(tmp_path, capsys,
                                                        monkeypatch):
    # the benchmark's layer tracer swaps module attributes by name after
    # import; a handler that captured a function at import would escape it
    seen = []

    def wrap(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: seen.append(name)
                            or original(*a, **kw))

    wrap(jsonio, "channel_from_json")
    wrap(cpinf, "kraus_compose")
    wrap(cli, "_emit")
    k = write_channel(tmp_path / "k.json",
                      cpinf.kraus_identity("mat", Base(2)))
    for _ in range(2):
        assert run(capsys, "channel-compose", k, k)[0] == 0
    assert run(capsys, "channel-choi", k)[0] == 0
    assert seen == ["channel_from_json", "channel_from_json",
                    "kraus_compose", "_emit"] * 2 + ["channel_from_json",
                                                     "_emit"]


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1)
                        or init(self, *a, **kw))
    build_parser.cache_clear()
    k = write_channel(tmp_path / "k.json",
                      cpinf.kraus_identity("mat", Base(2)))
    counts = []
    for argv in (["laws-list"], ["channel-equiv", k, k],
                 ["channel-choi", k], ["laws-run", "--model", "cplane",
                                       "--trials", "1", "--filter", "DMIX"],
                 ["channel-compose", k, k]):
        assert run(capsys, *argv)[0] == 0
        counts.append(len(built))
    # the first call builds the parser and its subparsers, no later one does
    assert counts[0] > 0 and counts == counts[:1] * 5


def test_a_model_restriction_does_not_stick(capsys):
    seen = []
    for argv in (["--model", "mat"], []):
        code, out, _ = run(capsys, "laws-run", "--trials", "1",
                           "--filter", "PRES", *argv)
        assert code == 0
        seen.append(sorted(json.loads(line)["model"]
                           for line in out.splitlines()))
    assert seen == [["mat"], ["cplane", "fmat", "mat"]]

