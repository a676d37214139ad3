import json

import pytest

from cofinj import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_success(capsys):
    rc, out, err = run_cli(capsys, "--eval", "a+(0)*b+(0)")
    assert rc == 0 and out == "id\n" and err == ""


def test_eval_parse_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "--eval", "shift(2) *")
    assert rc == 2 and "parse error" in err


def test_eval_eval_error_exit_code(capsys):
    rc, out, err = run_cli(capsys, "--eval", "h(true)")
    assert rc == 1 and "error" in err


# (argv, (exit code, stdout, stderr))
ONE_SHOT = [
    (["--eval", "id $"], (2, "", "parse error: 1:4: unexpected character '$'\n")),
    (["--eval", "solve ? = id"], (1, "", "error: the known side of a solve statement is empty\n")),
    (["--eval", "solve ?^-1 * id = id"], (2, "", "parse error: 1:8: '?' cannot be inverted\n")),
    (["--eval", "solve ?^-1 * ? = id"], (2, "", "parse error: 1:8: '?' cannot be inverted\n")),
    (["--eval", "{true, false}"], (0, "{false, true}\n", "")),
    (["--eggbox", "1,9"], (1, "", "error: shift_window must be in [0, 8]\n")),
]


@pytest.mark.parametrize("argv, want", ONE_SHOT, ids=[" ".join(argv) for argv, _ in ONE_SHOT])
def test_one_shot_output_and_exit_code(capsys, argv, want):
    assert run_cli(capsys, *argv) == want


def test_json_format_monotone(capsys):
    rc, out, _ = run_cli(capsys, "--eval", "seg[(-inf..0,+0),(2..+inf,+1)]", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "type": "monotone",
        "segments": [
            {"lo": "-inf", "hi": 0, "offset": 0},
            {"lo": 2, "hi": "+inf", "offset": 1},
        ],
    }


def test_json_format_other_values(capsys):
    rc, out, _ = run_cli(capsys, "--eval", "h(shift(3))", "--format", "json")
    assert json.loads(out) == {
        "type": "pair",
        "items": [{"type": "int", "value": 3}, {"type": "int", "value": 3}],
    }
    rc, out, _ = run_cli(capsys, "--eval", "am[d=0,L=0,u=6,R=0; 2->3, 1->5]", "--format", "json")
    data = json.loads(out)
    assert data["type"] == "almost" and data["middle"] == [[1, 5], [2, 3]]


IDENTITY_JSON = {"type": "monotone", "segments": [{"lo": "-inf", "hi": "+inf", "offset": 0}]}


def test_json_canonicalizes_elements_inside_pairs_and_sets(capsys):
    # a monotone am[...] value prints as segments wherever it sits, as in text
    rc, out, _ = run_cli(capsys, "--eval", "(am[d=0,L=0,u=1,R=0;], id)", "--format", "json")
    assert rc == 0 and json.loads(out) == {"type": "pair", "items": [IDENTITY_JSON, IDENTITY_JSON]}
    stmt = "{(am[d=0,L=0,u=1,R=0;], E{0}), (id, am[d=0,L=0,u=3,R=0; 1->2, 2->1])}"
    rc, out, _ = run_cli(capsys, "--eval", stmt)
    assert rc == 0 and out == "{(id, E{0}), (id, am[d=0,L=0,u=3,R=0; 1->2, 2->1])}\n"
    rc, out, _ = run_cli(capsys, "--eval", stmt, "--format", "json")
    first, second = json.loads(out)["items"]
    gap = {
        "type": "monotone",
        "segments": [{"lo": "-inf", "hi": -1, "offset": 0}, {"lo": 1, "hi": "+inf", "offset": 0}],
    }
    assert first == {"type": "pair", "items": [IDENTITY_JSON, gap]}
    assert second["items"][0] == IDENTITY_JSON and second["items"][1]["type"] == "almost"


def test_format_dot_is_rejected(capsys):
    # DOT output comes only from --eggbox
    with pytest.raises(SystemExit) as exc:
        cli.main(["--eval", "id", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_script_mode(tmp_path, capsys):
    script = tmp_path / "batch.cfj"
    script.write_text(
        "# composition acts left to right\n"
        "shift(2)*shift(3)\n"
        "\n"
        "solve E{0}*? = E{0}\n"
    )
    rc, out, _ = run_cli(capsys, "--script", str(script))
    assert rc == 0
    assert out == "shift(5)\n{E{0}, id}\n"


def test_script_parse_error_gives_the_file_position(tmp_path, capsys):
    script = tmp_path / "batch.cfj"
    script.write_text("id\nshift(1)\n\nid *")
    rc, out, err = run_cli(capsys, "--script", str(script))
    assert (rc, out) == (2, "")
    assert err.startswith("parse error: 4:5: got 'end of input'")
    # leading blanks are stripped from the statement but still count in the column
    script.write_text("# comment\n  id $\n")
    assert run_cli(capsys, "--script", str(script)) == (2, "", "parse error: 2:6: unexpected character '$'\n")


def test_script_missing_file(capsys):
    rc, _, err = run_cli(capsys, "--script", "/nonexistent/x.cfj")
    assert rc == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    rc, out, _ = run_cli(capsys, "--eval", "id", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text() == "id\n"


def test_seed_changes_samples(capsys):
    rc, a, _ = run_cli(capsys, "--eval", "sample(nbhd(id; 0))", "--seed", "1")
    rc, b, _ = run_cli(capsys, "--eval", "sample(nbhd(id; 0))", "--seed", "1")
    rc, c, _ = run_cli(capsys, "--eval", "sample(nbhd(id; 0))", "--seed", "2")
    assert a == b
    assert a != c


def test_repl_smoke(capsys, monkeypatch):
    lines = iter(["shift(2)*shift(1)", "bogus(", "h(true)", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    rc = cli.main([])
    out = capsys.readouterr()
    assert rc == 0
    assert "shift(3)" in out.out
    assert "parse error" in out.err and "error:" in out.err


def test_repl_skips_blank_and_comment_lines_and_exits_on_eof(capsys, monkeypatch):
    lines = iter(["", "   ", "# a comment"])

    def read(prompt=""):
        for line in lines:
            return line
        raise EOFError

    monkeypatch.setattr("builtins.input", read)
    assert cli.main([]) == 0
    assert capsys.readouterr() == ("\n", "")


DEEP = ["(" * 1000 + "id" + ")" * 1000, "{" * 1000 + "id" + "}" * 1000, "shift(" * 1000 + "1" + ")" * 1000]


@pytest.mark.parametrize("text", DEEP, ids=["parens", "braces", "calls"])
def test_deep_nesting_is_a_parse_error(text, tmp_path, capsys):
    script = tmp_path / "deep.cfj"
    script.write_text(text + "\n")
    for argv in (["--eval", text], ["--script", str(script)]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == "", argv[0]
        assert err.startswith("parse error: 1:") and "nesting deeper than" in err, argv[0]


def test_deep_nesting_in_the_repl_keeps_the_session(capsys, monkeypatch):
    lines = iter(DEEP + ["shift(2)*shift(1)", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    rc = cli.main([])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == "shift(3)\n"
    assert out.err.count("parse error: 1:") == 3


def test_long_inverse_chain_is_evaluated_without_recursion(capsys):
    rc, out, err = run_cli(capsys, "--eval", "id" + "^-1" * 1200)
    assert (rc, out, err) == (0, "id\n", "")
    rc, out, _ = run_cli(capsys, "--eval", "shift(2)" + "^-1" * 1201)
    assert (rc, out) == (0, "shift(-2)\n")


def test_nesting_up_to_the_limit_evaluates(capsys):
    from cofinj.exprlang import MAX_NESTING

    n = MAX_NESTING
    for fmt in ("text", "json"):
        for text in ("(" * n + "id" + ")" * n, "{" * n + "id" + "}" * n, "(" * n + "id, id" + ")" * n):
            rc, out, err = run_cli(capsys, "--format", fmt, "--eval", text)
            assert rc == 0 and err == "", (fmt, text[:5])
        rc, _, err = run_cli(capsys, "--format", fmt, "--eval", "h(" * n + "id" + ")" * n)
        assert rc == 1 and err.startswith("error: h expects an element")


# -- egg-box export -------------------------------------------------------------------


def test_eggbox_trivial_grid(capsys):
    rc, out, _ = run_cli(capsys, "--eggbox", "0,1")
    assert rc == 0
    assert out.startswith("digraph eggbox {")
    assert 'cell_0_0 [label="dom gaps {} | ran gaps {}\\nshift(-1)\\nid\\nshift(1)"];' in out


def test_eggbox_two_by_two(capsys):
    rc, out, _ = run_cli(capsys, "--eggbox", "1,0")
    assert rc == 0
    assert out.count("cell_") >= 4
    assert "dom gaps {0} | ran gaps {0}" in out


def test_eggbox_deterministic_and_balanced(capsys):
    rc, a, _ = run_cli(capsys, "--eggbox", "2,2")
    rc, b, _ = run_cli(capsys, "--eggbox", "2,2")
    assert a == b
    assert a.count("{") == a.count("}")
    assert a.rstrip().endswith("}")


def test_eggbox_rejects_out_of_range(capsys):
    rc, _, err = run_cli(capsys, "--eggbox", "9,1")
    assert rc == 1
    rc, _, err = run_cli(capsys, "--eggbox", "1")
    assert rc == 1


def test_eggbox_cells_hold_correct_classes(capsys):
    from cofinj.core import element_from_gaps, parse_element

    rc, out, _ = run_cli(capsys, "--eggbox", "1,1")
    row = next(l for l in out.splitlines() if "dom gaps {0} | ran gaps {}" in l)
    label = row.split('label="')[1]
    assert label.endswith('"];')
    reps = label[: -len('"];')].split("\\n")[1:]
    assert len(reps) == 3
    for k, text in zip(range(-1, 2), reps):
        assert parse_element(text) == element_from_gaps([0], [], k)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_builds_each_solution_text_once(capsys, monkeypatch, fmt):
    """The 924 solutions of E{0..5}*? = E{0..5} are printed with one to_text call each, in either format."""
    from cofinj.almost import AlmostMonotoneElement
    from cofinj.core import MonotoneElement

    calls = []
    for cls in (MonotoneElement, AlmostMonotoneElement):
        monkeypatch.setattr(cls, "to_text", lambda self, text=cls.to_text: calls.append(1) or text(self))
    rc, out, err = run_cli(capsys, "--format", fmt, "--eval", "solve E{0,1,2,3,4,5}*? = E{0,1,2,3,4,5}")
    assert rc == 0 and err == ""
    items = json.loads(out)["items"] if fmt == "json" else out.split(", ")
    assert len(items) == len(calls) == 924
