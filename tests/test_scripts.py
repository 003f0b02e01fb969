import importlib.util
import os

import pytest

from soficapprox.cli import main

from conftest import data_path

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProfileSweep:
    def test_table(self, capsys):
        assert load_script("profile_sweep").main([data_path("z3.chunk"), "--rs", "2/1,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["chunk", "r=2", "r=3", "time"]
        assert lines[2].split()[1:3] == ["3", "3"]

    def test_zero_denominator_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load_script("profile_sweep").main([data_path("z2.chunk"), "--rs", "2/1,1/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(": error: --rs: zero denominator in '1/0'")
        assert "Traceback" not in err


class TestRealizationReport:
    def test_report_and_emitted_file(self, tmp_path, capsys):
        emitted = tmp_path / "report.json"
        code = load_script("realization_report").main(
            [data_path("z3.chunk"), "--depth", "4", "--emit", str(emitted)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [f"certificate r = {r}: degree 3, defect 0/1, expansiveness 1/1"
                             for r in (2, 3, 4)]
        assert "supp restrictions reproduce every stage: yes" in lines
        realized = tmp_path / "realize.json"
        assert main(["realize", "--chunk", data_path("z3.chunk"), "--depth", "4",
                     "--emit", str(realized)]) == 0
        assert emitted.read_bytes() == realized.read_bytes()

    def test_exhausted_stage(self, capsys):
        code = load_script("realization_report").main(
            [data_path("z3.chunk"), "--depth", "4", "--n-max", "2"])
        assert code == 2
        assert capsys.readouterr().out == "profile search exhausted at r = 2 (n_max = 2)\n"

    def test_restriction_mismatch_exits_one(self, capsys):
        script = load_script("realization_report")
        script.supp_morphism = lambda gc, n: {}  # restrictions that reproduce no stage
        assert script.main([data_path("z3.chunk"), "--depth", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "supp restrictions reproduce every stage: NO"


BAD_INPUTS = [
    ("profile_sweep", ["missing.chunk"]),
    ("profile_sweep", [data_path("three.gchunk")]),
    ("profile_sweep", [data_path("z2.chunk"), "--rs", "0"]),
    ("profile_sweep", [data_path("z2.chunk"), "--n-max", "0"]),
    ("realization_report", ["missing.chunk"]),
    ("realization_report", [data_path("z2.chunk"), "--depth", "1"]),
]


@pytest.mark.parametrize("script,argv", BAD_INPUTS,
                         ids=[f"{s}-{i}" for i, (s, _) in enumerate(BAD_INPUTS)])
def test_bad_input_fails_in_one_line(script, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where no missing.chunk exists
    assert load_script(script).main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("script", ["profile_sweep", "realization_report"])
def test_out_of_memory_fails_in_one_line(script, capsys):
    module = load_script(script)

    def exhausted(*args, **kwargs):
        raise MemoryError

    module.profile_table = exhausted
    assert module.main([data_path("z3.chunk")]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
