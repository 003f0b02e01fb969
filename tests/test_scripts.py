import importlib.util
import os

import pytest

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
