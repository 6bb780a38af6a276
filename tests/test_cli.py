import functools
import io
from pathlib import Path

import pytest

from fibdecide import arith
from fibdecide import automata as au
from fibdecide import cli
from fibdecide import synth


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, catalog):
    root = tmp_path_factory.mktemp("store")
    store = cli.Store(root)
    store.save_catalog(catalog)
    return root


def run_cli(args, warm_store):
    return cli.main(["--store", str(warm_store), "--quiet", *args])


def test_store_roundtrip(tmp_path, catalog):
    store = cli.Store(tmp_path / "s")
    store.save("eq", catalog["eq"])
    assert [p.name for p in store.root.iterdir()] == ["eq.aut"]
    back = store.load("eq")
    assert au.equivalent(back, catalog["eq"])
    assert store.load("missing") is None


def test_failed_save_keeps_the_previous_file(tmp_path, catalog, monkeypatch):
    """A write that fails halfway leaves the old .aut loadable and no temp file."""
    store = cli.Store(tmp_path / "s")
    store.save("rel", catalog["eq"])
    real_write_text = Path.write_text

    def torn_write(path, text):
        real_write_text(path, text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="No space"):
        store.save("rel", catalog["lt"])
    monkeypatch.undo()
    assert [p.name for p in store.root.iterdir()] == ["rel.aut"]
    assert au.equivalent(store.load("rel"), catalog["eq"])


def test_run_script_all_true(tmp_path, warm_store, capsys):
    script = tmp_path / "ok.txt"
    script.write_text(
        'eval upper "?msd_fib Ax,y ($phin(2,x) & $phin(3,y)) => x<y":\n'
        'def even "?msd_fib Ek n=2*k":\n'
        'eval even0 "?msd_fib $even(0)":\n'
    )
    code = run_cli(["run", str(script)], warm_store)
    out = capsys.readouterr().out
    assert code == 0
    assert "upper: TRUE" in out and "even0: TRUE" in out


def test_run_script_false_exit_one(tmp_path, warm_store, capsys):
    script = tmp_path / "bad.txt"
    script.write_text('eval wrong "?msd_fib Ax x=x+1":\n')
    code = run_cli(["run", str(script)], warm_store)
    assert code == 1
    assert "wrong: FALSE" in capsys.readouterr().out


def test_run_script_unknown_name_exit_two(tmp_path, warm_store, capsys):
    script = tmp_path / "err.txt"
    script.write_text('eval oops "?msd_fib Ax $nosuch(x)":\n')
    code = run_cli(["run", str(script)], warm_store)
    assert code == 2
    assert "nosuch" in capsys.readouterr().err


def test_malformed_combine_exit_two(tmp_path, warm_store, capsys):
    script = tmp_path / "err.txt"
    script.write_text("combine C s1=\n")
    assert run_cli(["run", str(script)], warm_store) == 2
    assert capsys.readouterr().err == "error: combine part s1= needs a number (line 1)\n"


def test_corrupt_store_file_exit_two(tmp_path, catalog, capsys):
    """A truncated .aut file is a one-line error naming the file, not a traceback."""
    store = cli.Store(tmp_path / "s")
    store.save_catalog(catalog)
    path = store.path("phin")
    path.write_text(path.read_text()[:40])
    script = tmp_path / "ok.txt"
    script.write_text('eval t "?msd_fib Ax x=x":\n')
    for args in (["run", str(script)], ["export-dot", "phin", str(tmp_path / "p.dot")]):
        assert run_cli(args, store.root) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "--rebuild" in err
        assert len(err.splitlines()) == 1


def test_run_missing_script(warm_store, capsys):
    code = run_cli(["run", "/nonexistent/script.txt"], warm_store)
    assert code == 2
    assert capsys.readouterr().err == "error: no such script: /nonexistent/script.txt\n"


def test_empty_script_exit_zero(tmp_path, warm_store):
    script = tmp_path / "empty.txt"
    script.write_text("")
    assert run_cli(["run", str(script)], warm_store) == 0


def test_oracle_table(warm_store, capsys):
    code = run_cli(["oracle-table", "a105774", "10"], warm_store)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0\t0"
    assert lines[9] == "9\t12"


def test_oracle_table_unknown(warm_store, capsys):
    code = run_cli(["oracle-table", "nosuch", "5"], warm_store)
    assert code == 2


def test_oracle_table_negative_count_is_a_usage_error(warm_store, capsys):
    assert run_cli(["oracle-table", "a105774", "--", "-5"], warm_store) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: count must be at least 0, got -5\n"


def test_store_file_with_a_huge_states_line_is_unreadable(tmp_path, capsys):
    """A states line the trans lines cannot fill is an error naming the file,
    raised before the transition table is allocated."""
    store = cli.Store(tmp_path / "s")
    store.root.mkdir()
    store.path("big").write_text(
        "fibaut 1\narity 1\nstates 1000000000000\ntrans 0 [0] 0\ntrans 0 [1] 0\n")
    with pytest.raises(au.AutomatonError, match="need 2000000000000 trans lines, found 2"):
        store.load("big")
    assert run_cli(["export-dot", "big", str(tmp_path / "big.dot")], store.root) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {store.path('big')}: ") and "--rebuild" in err
    assert len(err.splitlines()) == 1


def test_export_dot(tmp_path, warm_store, capsys):
    out = tmp_path / "eq.dot"
    code = run_cli(["export-dot", "eq", str(out)], warm_store)
    assert code == 0
    assert "digraph" in out.read_text()
    assert run_cli(["export-dot", "missing", str(out)], warm_store) == 2
    assert capsys.readouterr().err == f"error: no automaton named 'missing' in {warm_store}\n"


@pytest.mark.parametrize("schedule", ["abc", "", "0,-5", "4096,"])
def test_bad_schedule_is_a_usage_error(tmp_path, capsys, schedule):
    store = tmp_path / "s"
    code = cli.main(["--store", str(store), "--schedule", schedule, "reproduce-paper"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: --schedule needs positive sample counts separated by commas,"
        f" got {schedule!r}\n"
    )
    assert not store.exists()


def test_failed_certification_is_one_error_line(tmp_path, catalog, capsys, monkeypatch):
    """A relation that exhausts its schedule is a failed check (exit 1), not a traceback."""
    store = cli.Store(tmp_path / "s")
    store.save_catalog(catalog)
    exhausted = lambda oracle, certs, **kw: synth.SynthesisReport(
        oracle.name, None, 16, "EXHAUSTED", [("fn_total", False)], "failed: fn_total"
    )
    monkeypatch.setattr(synth, "synthesize_certified", exhausted)
    assert run_cli(["--schedule", "16", "reproduce-paper"], store.root) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: a105774 failed certification: failed: fn_total\n"


def test_engine_limit_in_a_catalog_certificate_is_a_failed_check(tmp_path, capsys, monkeypatch):
    """A certificate query past SUBSET_LIMIT while the catalog is built fails
    the certification: exit 1 and one error: line, not a usage error."""
    # an empty cache, so that add's certificate runs under the lowered limit
    monkeypatch.setattr(arith, "add", functools.lru_cache(arith.add.__wrapped__))
    monkeypatch.setattr(au, "SUBSET_LIMIT", 40)
    script = tmp_path / "ok.txt"
    script.write_text('eval t "?msd_fib Ax x=x":\n')
    assert run_cli(["run", str(script)], tmp_path / "s") == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: add certificate fails engine_limit\n"


def test_repl_basic(warm_store, capsys, monkeypatch):
    feed = io.StringIO(
        'def t "n<5"\n:list\n:show t\neval good "?msd_fib Ex $t(x)"\n:quit\n'
    )
    monkeypatch.setattr("builtins.input", lambda prompt="": feed.readline().rstrip("\n") or (_ for _ in ()).throw(EOFError))
    code = run_cli(["repl"], warm_store)
    out = capsys.readouterr().out
    assert code == 0
    assert "good: TRUE" in out
    assert "fibaut 1" in out  # :show output
    assert " t" in out or "t " in out


def test_repl_error_goes_to_stderr_and_sets_exit_two(warm_store, capsys, monkeypatch):
    """A failed line is one error: line on stderr; the REPL reads on and
    exits 2 at :quit."""
    feed = io.StringIO('eval x "?msd_fib Ax $nosuch(x)"\neval y "?msd_fib Ax x=x"\n:quit\n')
    monkeypatch.setattr("builtins.input", lambda prompt="": feed.readline().rstrip("\n") or (_ for _ in ()).throw(EOFError))
    assert run_cli(["repl"], warm_store) == 2
    out = capsys.readouterr()
    assert "error:" not in out.out and "y: TRUE" in out.out
    assert out.err == "error: unknown automaton $nosuch\n"


def test_repl_malformed_command_prints_its_usage(warm_store, capsys, monkeypatch):
    """A REPL command with the wrong number of arguments prints its usage;
    a word that only starts with a command name is not that command."""
    feed = io.StringIO(":show\n:dot x\n:show a b\n:showfoo valid\n:quit\n")
    monkeypatch.setattr("builtins.input", lambda prompt="": feed.readline().rstrip("\n") or (_ for _ in ()).throw(EOFError))
    assert run_cli(["repl"], warm_store) == 2
    out = capsys.readouterr()
    assert "fibaut" not in out.out
    assert out.err.splitlines() == [
        "error: usage: :show NAME",
        "error: usage: :dot NAME FILE",
        "error: usage: :show NAME",
        "error: unknown command 'showfoo' (line 1)",
    ]


def test_read_only_command_creates_no_store(tmp_path, capsys):
    store = tmp_path / "missing"
    assert cli.main(["--store", str(store), "export-dot", "x", str(tmp_path / "y.dot")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not store.exists()


def test_usage_error_exit_two():
    assert cli.main(["bogus-subcommand"]) == 2
