import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficapprox import cli
from soficapprox.chunk import format_chunk
from soficapprox.cli import (
    emit_certificate,
    emit_realization,
    load_certificate,
    load_realization,
    main,
    parse_gchunk_file,
    parse_rational,
    supp_horizon,
)
from soficapprox.growth import Affine, BlockStep, Compose
from soficapprox.lazyperm import MAX_HORIZON, realize, supp_morphism
from soficapprox.profile import sofic_profile

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChunkValidate:
    def test_valid_file(self, capsys):
        code, out, _ = run(capsys, "chunk", "validate", data_path("z2.chunk"))
        assert code == 0
        assert out.strip() == "valid"

    def test_violations_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.chunk"
        bad.write_text("unit 1\nelem a\n1 * 1 = 1\n1 * a = 1\na * 1 = a\n")
        code, out, _ = run(capsys, "chunk", "validate", str(bad))
        assert code == 1
        assert "violation" in out

    def test_parse_error_has_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.chunk"
        bad.write_text("unit 1\nwhat is this\n")
        code, _, err = run(capsys, "chunk", "validate", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "chunk", "validate", "/nonexistent.chunk")
        assert code == 1
        assert "error" in err


class TestProfileCommand:
    def test_z2_at_two(self, capsys):
        code, out, _ = run(capsys, "profile", "--chunk", data_path("z2.chunk"),
                           "--r", "2/1")
        assert code == 0
        assert "prof = 2" in out
        assert "a -> [1 0]" in out

    def test_exhausted_exit_code(self, capsys):
        code, out, _ = run(capsys, "profile", "--chunk", data_path("z3.chunk"),
                           "--r", "2/1", "--n-max", "2")
        assert code == 2
        assert "exhausted" in out

    def test_all_r_table(self, capsys):
        code, out, _ = run(capsys, "profile", "--chunk", data_path("z2.chunk"),
                           "--all-r", "2/1,3/1")
        assert code == 0
        assert "r = 2/1 prof = 2" in out
        assert "r = 3/1 prof = 2" in out

    def test_witness_file(self, capsys, tmp_path):
        witness = tmp_path / "w.txt"
        code, _, _ = run(capsys, "profile", "--chunk", data_path("z2.chunk"),
                         "--r", "2/1", "--emit-witness", str(witness))
        assert code == 0
        assert witness.read_text() == "1 -> [0 1]\na -> [1 0]\n"

    def test_no_element_count_warning(self, capsys, tmp_path):
        big = tmp_path / "five.chunk"
        lines = ["unit 1"] + [f"elem x{i}" for i in range(4)]
        elems = ["1"] + [f"x{i}" for i in range(4)]
        lines += [f"1 * {e} = {e}" for e in elems]
        lines += [f"{e} * 1 = {e}" for e in elems if e != "1"]
        big.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "profile", "--chunk", str(big),
                             "--r", "2/1", "--n-max", "5")
        assert code == 0
        assert out == ("prof = 3\n1 -> [0 1 2]\nx0 -> [1 0 2]\nx1 -> [0 2 1]\n"
                       "x2 -> [1 2 0]\nx3 -> [2 0 1]\ndefect = 0/1\nexpansiveness = 2/3\n")
        assert err == ""

    def test_unknown_flag_rejected(self, capsys):
        code = main(["profile", "--chunk", data_path("z2.chunk"), "--bogus"])
        capsys.readouterr()
        assert code == 1

    def test_byte_identical_across_workers(self, capsys):
        _, out1, _ = run(capsys, "profile", "--chunk", data_path("z3.chunk"), "--r", "2/1")
        _, out2, _ = run(capsys, "--workers", "2", "profile",
                         "--chunk", data_path("z3.chunk"), "--r", "2/1")
        assert out1 == out2

    @pytest.mark.parametrize("all_r, bad", [("3,,4", ""), (",", ""), ("3,x", "x"),
                                            ("2,3/0", "3/0")])
    def test_all_r_names_the_bad_token(self, capsys, all_r, bad):
        code, out, err = run(capsys, "profile", "--chunk", data_path("z2.chunk"),
                             "--all-r", all_r)
        assert (code, out) == (1, "")
        assert err == f"error: --all-r takes P/Q values separated by commas, got {bad!r}\n"

    @pytest.mark.parametrize("flag", ["--emit-cert", "--emit-witness"])
    def test_missing_emit_directory_fails_before_searching(self, capsys, monkeypatch,
                                                           tmp_path, flag):
        monkeypatch.setattr(cli, "sofic_profile", lambda *args, **kwargs: pytest.fail("searched"))
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "profile", "--chunk", data_path("z2.chunk"), "--r", "2/1",
                             flag, str(missing / "x.cert"))
        assert (code, out) == (1, "")
        assert err == f"error: {flag} directory {str(missing)!r} does not exist\n"
        assert not missing.exists()

    def test_zero_workers_rejected(self, capsys):
        code, out, err = run(capsys, "--workers", "0", "profile",
                             "--chunk", data_path("z3.chunk"), "--r", "2/1")
        assert code == 1
        assert out == ""
        assert err == "error: --workers must be positive\n"


class TestGrowthCommand:
    def test_prof_successor(self, capsys):
        code, out, _ = run(capsys, "growth", "prof", "--g", "affine:1", "--r", "2/1")
        assert code == 0
        assert out.strip() == "3"

    def test_prof_infinity(self, capsys):
        code, out, _ = run(capsys, "growth", "prof", "--g", "infinity",
                           "--r", "2/1", "--n-max", "50")
        assert code == 2
        assert "exhausted" in out

    def test_prof_linear_note(self, capsys):
        code, out, _ = run(capsys, "growth", "prof", "--g", "linear:2",
                           "--r", "3/1", "--n-max", "50")
        assert code == 2
        assert "impossible" in out

    def test_cmp_prec(self, capsys):
        code, out, _ = run(capsys, "growth", "cmp", "--f", "affine:2",
                           "--g", "linear:2", "--rel", "prec")
        assert code == 0
        assert "true from n0 = 3" in out

    def test_cmp_ll(self, capsys):
        code, out, _ = run(capsys, "growth", "cmp", "--f", "affine:1",
                           "--g", "linear:2", "--rel", "ll")
        assert code == 0
        assert "true for every power" in out

    def test_cmp_sim(self, capsys):
        code, out, _ = run(capsys, "growth", "cmp", "--f", "affine:1",
                           "--g", "affine:2", "--rel", "sim")
        assert code == 0
        assert "true with k = 3" in out

    @pytest.mark.parametrize("rel, line", [
        ("prec", "prec: true from n0 = 0"),
        ("ll", "ll: false at power k = 100"),
        ("sim", "sim: true with k = 101"),
    ])
    def test_cmp_decides_large_powers(self, capsys, rel, line):
        code, out, _ = run(capsys, "growth", "cmp", "--f", "affine:1",
                           "--g", "affine:100", "--rel", rel)
        assert (code, out) == (0, line + "\n")

    @pytest.mark.parametrize("flag", ["--horizon", "--k-max"])
    def test_cmp_has_no_search_bounds(self, capsys, flag):
        code, _, err = run(capsys, "growth", "cmp", "--f", "affine:1",
                           "--g", "affine:2", "--rel", "sim", flag, "5")
        assert code == 1 and "unrecognized arguments" in err

    def test_cmp_reads_back_a_nested_spec(self, capsys):
        spec = Compose(BlockStep((1, 2), (1, 1)), Affine(1)).spec()
        code, out, _ = run(capsys, "growth", "cmp", "--f", spec, "--g", "affine:5",
                           "--rel", "prec")
        assert (code, out) == (0, "prec: true from n0 = 0\n")

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "growth", "prof", "--g", "quadratic:2", "--r", "2/1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("outer, inner", [("power(", ",2)"), ("compose(", ",affine:1)")])
    def test_deep_nesting_rejected(self, capsys, tmp_path, outer, inner):
        spec = outer * 1200 + "affine:1" + inner * 1200
        expected = "error: growth spec nests compose/power deeper than 64 levels\n"
        code, _, err = run(capsys, "growth", "prof", "--g", spec, "--r", "2/1")
        assert (code, err) == (1, expected)
        gchunk = tmp_path / "deep.gchunk"
        gchunk.write_text(f"chunk {data_path('z2.chunk')}\nbound = {spec}\n")
        code, _, err = run(capsys, "supp", "--gchunk", str(gchunk), "--n", "4", "--r", "2/1")
        assert (code, err) == (1, expected)

    def test_nested_powers_finish_at_once(self, capsys):
        spec = "power(" * 30 + "affine:1" + ",2)" * 30
        start = time.perf_counter()
        code, out, _ = run(capsys, "growth", "prof", "--g", spec, "--r", "2/1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "exhausted at n_max = 10000\n")

    def test_huge_slope_one_power_finishes_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "growth", "prof", "--g", "power(affine:1,100000000)",
                           "--r", "2", "--n-max", "10")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "exhausted at n_max = 10\n")

    def test_huge_slope_power_rejected_in_one_line(self, capsys):
        code, out, err = run(capsys, "growth", "prof", "--g", "power(linear:2,100000000)",
                             "--r", "2", "--n-max", "10")
        assert (code, out) == (1, "")
        assert err.startswith("error: power of a slope-2 spec") and err.count("\n") == 1

    @given(st.sampled_from(["affine:3", "linear:2", "blockstep:5,2;9,4", "table:2,4,5+2",
                            "compose(affine:1,linear:3)"]),
           st.integers(2, 6), st.sampled_from(["1", "2", "5/2", "7"]), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_power_prints_as_its_iterated_form(self, base, k, r, n_max):
        iterated = base
        for _ in range(k - 1):
            iterated = f"compose(({base}),{iterated})"
        outputs = []
        for spec in (f"power(({base}),{k})", iterated):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["growth", "prof", "--g", spec, "--r", r, "--n-max", str(n_max)])
            outputs.append((code, out.getvalue()))
        assert outputs[0] == outputs[1]

    def test_nesting_at_the_limit_accepted(self, capsys):
        spec = "compose(" * 64 + "affine:1" + ",affine:1)" * 64
        code, out, _ = run(capsys, "growth", "prof", "--g", spec, "--r", "2/1")
        assert (code, out) == (0, "131\n")


class TestSuppCommand:
    def test_three_cycle_report(self, capsys):
        code, out, _ = run(capsys, "supp", "--gchunk", data_path("three.gchunk"),
                           "--n", "99", "--r", "2/1", "--horizon", "300")
        assert code == 0
        assert "m_star = 68" in out
        assert "defect_bound_holds = true" in out


    def test_reports_pinned(self, capsys):
        # three.supp holds the reports as printed before the restriction tables
        got = []
        for n in (5, 40, 99, 150, 300):
            for r in ("2", "3/2", "7"):
                code, out, _ = run(capsys, "supp", "--gchunk", data_path("three.gchunk"),
                                   "--n", str(n), "--r", r)
                assert code == 0
                got.append(f"== sofic supp --n {n} --r {r}\n{out}")
        with open(data_path("three.supp"), encoding="utf-8") as fh:
            assert "".join(got) == fh.read()

    def test_invalid_chunk_rejected_in_one_line(self, capsys, tmp_path):
        with open(data_path("z3.chunk"), encoding="utf-8") as fh:
            text = fh.read()
        (tmp_path / "bad.chunk").write_text(text.replace("h * 1 = h\n", ""))
        spec = tmp_path / "bad.gchunk"
        spec.write_text("chunk bad.chunk\ncarrier h = gadget:threecycle\n"
                        "carrier h2 = gadget:threecycle2\nbound = affine:31\n")
        code, out, err = run(capsys, "supp", "--gchunk", str(spec), "--n", "99", "--r", "2/1")
        assert (code, out) == (1, "")
        assert err == "error: chunk fails validation: h * 1 = undef (expected h)\n"

    @pytest.mark.parametrize("extra, message", [
        ("chunk z3.chunk", "line 6: chunk already given on line 2"),
        ("carrier h = gadget:threecycle2", "line 6: carrier of 'h' already given on line 3"),
        ("bound = affine:1", "line 6: bound already given on line 5"),
        ("boundary = affine:31", "line 6: cannot parse statement 'boundary = affine:31'"),
    ], ids=["chunk", "carrier", "bound", "boundary"])
    def test_repeated_statement_rejected_in_one_line(self, capsys, tmp_path, extra, message):
        with open(data_path("three.gchunk"), encoding="utf-8") as fh:
            text = fh.read()
        spec = tmp_path / "repeated.gchunk"
        spec.write_text(text.replace("chunk z3.chunk", f"chunk {data_path('z3.chunk')}")
                        + extra + "\n")
        code, out, err = run(capsys, "supp", "--gchunk", str(spec), "--n", "9", "--r", "2")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("n, horizon, code", [(22, 20, 1), (99, 98, 1), (99, 99, 0)])
    def test_degree_past_the_horizon_rejected_in_one_line(self, capsys, n, horizon, code):
        got, out, err = run(capsys, "supp", "--gchunk", data_path("three.gchunk"),
                            "--n", str(n), "--r", "2/1", "--horizon", str(horizon))
        assert got == code
        if code:
            assert out == ""
            assert err == f"error: degree {n} lies past the audited horizon {horizon}\n"
        else:
            assert out.startswith(f"n = {n}\n") and err == ""

    @pytest.mark.parametrize("n, horizon, want", [
        (5, None, 1000), (500, None, 1000), (501, None, 1002), (600_000, None, MAX_HORIZON),
        (MAX_HORIZON, None, MAX_HORIZON), (5, 99, 99), (99, 98, 98),
        (MAX_HORIZON + 1, MAX_HORIZON + 1, MAX_HORIZON + 1)])
    def test_default_horizon_is_capped(self, n, horizon, want):
        # a given --horizon is passed on as it is, for build_gchunk to check
        assert supp_horizon(n, horizon) == want

    def test_degree_past_the_cap_rejected_before_evaluation(self, capsys, monkeypatch):
        def unread(path, horizon):
            raise AssertionError(f"{path} read at horizon {horizon}")

        monkeypatch.setattr(cli, "parse_gchunk_file", unread)
        code, out, err = run(capsys, "supp", "--gchunk", data_path("three.gchunk"),
                             "--n", "1000001", "--r", "2/1")
        assert (code, out) == (1, "")
        assert err == "error: --n 1000001 exceeds the largest audited prefix, 1000000\n"

    @pytest.mark.parametrize("r", ["0", "-1", "1/2"])
    def test_r_below_one_rejected(self, capsys, r):
        code, out, err = run(capsys, "supp", "--gchunk", data_path("three.gchunk"),
                             "--n", "99", f"--r={r}", "--horizon", "300")
        assert (code, out) == (1, "")
        assert err.startswith("error: r must be at least 1") and err.count("\n") == 1


class TestRealizeCommand:
    def test_z2_depth_four(self, capsys, tmp_path):
        emitted = tmp_path / "real.json"
        code, out, _ = run(capsys, "realize", "--chunk", data_path("z2.chunk"),
                           "--depth", "4", "--emit", str(emitted))
        assert code == 0
        assert "slow = slow" in out
        payload = json.loads(emitted.read_text())
        assert payload["depth"] == 4
        assert payload["m"] == [2, 2, 2]

    def test_blocksum_carrier_round_trip(self, capsys, tmp_path):
        emitted = tmp_path / "real_z3.json"
        code, _, _ = run(capsys, "realize", "--chunk", data_path("z3.chunk"),
                         "--depth", "4", "--emit", str(emitted))
        assert code == 0
        spec_file = tmp_path / "fromfile.gchunk"
        spec_file.write_text(
            f"chunk {data_path('z3.chunk')}\n"
            f"carrier h = blocksum:{emitted}\n"
            f"carrier h2 = blocksum:{emitted}\n"
            "bound = " + json.loads(emitted.read_text())["g"] + "\n")
        gc = parse_gchunk_file(str(spec_file), horizon=200)
        real = load_realization(str(emitted))
        assert supp_morphism(gc, real.layout[-1]) == real.block_sum_assignment(real.depth)

    def test_blocksum_file_loaded_once_per_gchunk(self, capsys, tmp_path, monkeypatch):
        emitted = tmp_path / "klein.json"
        code, _, _ = run(capsys, "realize", "--chunk", data_path("klein.chunk"),
                         "--depth", "4", "--emit", str(emitted))
        assert code == 0
        bound = json.loads(emitted.read_text())["g"]
        degree = json.loads(emitted.read_text())["layout"][-1]
        copies = []
        for e in "abc":  # one file per carrier: three loads without any sharing
            copy = tmp_path / f"klein_{e}.json"
            copy.write_text(emitted.read_text())
            copies.append(copy)
        shared = tmp_path / "shared.gchunk"
        shared.write_text(f"chunk {data_path('klein.chunk')}\n"
                          + "".join(f"carrier {e} = blocksum:klein.json\n" for e in "abc")
                          + f"bound = {bound}\n")
        separate = tmp_path / "separate.gchunk"
        separate.write_text(f"chunk {data_path('klein.chunk')}\n"
                            + "".join(f"carrier {e} = blocksum:{copy.name}\n"
                                      for e, copy in zip("abc", copies))
                            + f"bound = {bound}\n")
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_realization(path)

        monkeypatch.setattr(cli, "load_realization", counting_load)
        reports = []
        for spec in (shared, separate):
            loads.clear()
            code, out, _ = run(capsys, "supp", "--gchunk", str(spec), "--n", str(degree),
                               "--r", "2")
            assert code == 0
            reports.append((len(loads), out))
        assert [count for count, _ in reports] == [1, 3]
        assert reports[0][1] == reports[1][1]
        assert reports[0][1].startswith(f"n = {degree}\n")

    def test_tampered_realization_rejected(self, capsys, tmp_path):
        emitted = tmp_path / "real.json"
        run(capsys, "realize", "--chunk", data_path("z2.chunk"),
            "--depth", "3", "--emit", str(emitted))
        payload = json.loads(emitted.read_text())
        payload["f"][0] += 1
        emitted.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_realization(str(emitted))

    def test_realization_stage_below_thresholds_rejected(self, capsys, tmp_path):
        emitted = tmp_path / "real.json"
        run(capsys, "realize", "--chunk", data_path("z2.chunk"),
            "--depth", "3", "--emit", str(emitted))
        payload = json.loads(emitted.read_text())
        payload["sigma"][1]["a"] = payload["sigma"][1]["1"]
        emitted.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="r = 3 does not meet its thresholds"):
            load_realization(str(emitted))

    @pytest.mark.parametrize("key, edit", [
        ("stages", lambda payload: payload["stages"][0].update(defect="9/1")),
        ("depth", lambda payload: payload.update(depth=payload["depth"] + 1)),
        ("m", lambda payload: payload["m"].__setitem__(0, payload["m"][0] + 1)),
    ], ids=["stage-defect", "depth", "m"])
    def test_every_stored_field_checked(self, capsys, tmp_path, key, edit):
        emitted = tmp_path / "real.json"
        run(capsys, "realize", "--chunk", data_path("z3.chunk"),
            "--depth", "4", "--emit", str(emitted))
        payload = json.loads(emitted.read_text())
        edit(payload)
        emitted.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"differ from the recomputed ones: {key}$"):
            load_realization(str(emitted))

    def test_genuine_realization_re_emits_identically(self, capsys, tmp_path):
        emitted, again = tmp_path / "real.json", tmp_path / "again.json"
        run(capsys, "realize", "--chunk", data_path("z3.chunk"),
            "--depth", "4", "--emit", str(emitted))
        emit_realization(str(again), load_realization(str(emitted)))
        assert again.read_bytes() == emitted.read_bytes()


    @pytest.mark.parametrize("edit, message", [
        (lambda payload: {**payload, "m": "xx"}, "differ from the recomputed ones: m"),
        (lambda payload: {**payload, "sigma": 5}, "needs a chunk text"),
        (lambda payload: [payload], "unrecognized realization file"),
        (lambda payload: {**payload, "m": [0], "sigma": [{"1": [], "h": [], "h2": []}]},
         "has degree 0, below 1"),
        (lambda payload: "[" * 200_000, "nests too deeply to parse"),
        (lambda payload: "not json", "real.json' is not JSON: Expecting value"),
        (lambda payload: {**payload, "sigma": [{e: [v if v > 1 else bool(v) for v in images]
                                                for e, images in stage.items()}
                                               for stage in payload["sigma"]]},
         "not a permutation of 0..2"),
    ], ids=["m-text", "sigma-number", "top-level-list", "degree-zero", "deep-nesting",
            "not-json", "sigma-booleans"])
    def test_hostile_realization_file_one_line(self, capsys, tmp_path, edit, message):
        emitted = tmp_path / "real.json"
        run(capsys, "realize", "--chunk", data_path("z3.chunk"),
            "--depth", "4", "--emit", str(emitted))
        payload = json.loads(emitted.read_text())
        edited = edit(payload)
        emitted.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        spec_file = tmp_path / "hostile.gchunk"
        spec_file.write_text(f"chunk {data_path('z3.chunk')}\n"
                             f"carrier h = blocksum:{emitted}\n"
                             f"bound = {payload['g']}\n")
        code, out, err = run(capsys, "supp", "--gchunk", str(spec_file), "--n", "10",
                             "--r", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def limited_memory():
    """Cap the child's address space, so that a size that would exhaust the
    memory fails in it at once."""
    limit = 600 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


HUGE_SIZES = {
    "supp-horizon": ("supp", "--gchunk", "z3table.gchunk", "--n", "2", "--r", "2",
                     "--horizon", "99999999999999999999"),
    "supp-degree": ("supp", "--gchunk", data_path("three.gchunk"), "--n", "100000000",
                    "--r", "2"),
    "example-1e8": ("gadget", "example", "--n", "100000000"),
    "example-1e11": ("gadget", "example", "--n", "100000000000"),
    "stages": ("gadget", "stages", "--trace", "1,0,1", "--horizon", "99999999999"),
    "encode-n": ("gadget", "encode", "--rho", "(0 1)", "--k", "1", "--n", "99999999999",
                 "--horizon", "5"),
    "encode-k": ("gadget", "encode", "--rho", "(0 1)", "--k", "99999999999", "--n", "1",
                 "--horizon", "5"),
}


@pytest.mark.parametrize("argv", HUGE_SIZES.values(), ids=HUGE_SIZES.keys())
def test_huge_sizes_fail_in_one_line(argv, tmp_path):
    (tmp_path / "z3table.gchunk").write_text(
        f"chunk {data_path('z3.chunk')}\ncarrier h = table:[1 2 0]\n"
        "carrier h2 = table:[2 0 1]\nbound = affine:2\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "soficapprox.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limited_memory, check=False)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    if argv[0] == "supp":
        assert "exceeds the largest audited prefix, 1000000" in done.stderr
    elif argv[1] == "encode":
        # the markers through a point are found in closed form, not stepped to
        assert done.stderr == "error: horizon 5 too small, need points up to 100000000003\n"
    else:
        # the size is the last argument; refused before anything is allocated
        assert done.stderr.endswith(f" {argv[-1]} exceeds the largest gadget size, 1000000\n")


class TestGadgetCommands:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "gadget", "example", "--n", "99")
        assert code == 0
        assert "m_star = 68" in out
        assert "holds = true" in out

    def test_encode_true_and_false(self, capsys):
        code, out, _ = run(capsys, "gadget", "encode", "--rho", "(0 1)",
                           "--k", "0", "--n", "1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "gadget", "encode", "--rho", "(0 1)",
                           "--k", "0", "--n", "0")
        assert code == 0 and out.strip() == "false"

    def test_stages(self, capsys):
        code, out, _ = run(capsys, "gadget", "stages", "--trace", "1,0,1,1,0,1",
                           "--horizon", "30")
        assert code == 0
        assert "fired = 4" in out
        assert "prefix_end = 12" in out
        assert "involution_on_prefix = true" in out

    @pytest.mark.parametrize("trace, bad", [("1,x,2", "x"), ("1,,0", ""), ("", ""),
                                            ("1,true", "true")])
    def test_stages_refuses_a_flag_other_than_0_or_1(self, capsys, trace, bad):
        code, out, err = run(capsys, "gadget", "stages", "--trace", trace, "--horizon", "30")
        assert (code, out) == (1, "")
        assert err == f"error: --trace flags must be 0 or 1, got {bad!r}\n"


class TestCertificatePersistence:
    def test_round_trip(self, z2, tmp_path):
        cert = sofic_profile(z2, 2, 5)
        path = tmp_path / "z2.cert"
        emit_certificate(str(path), cert, z2)
        loaded, chunk = load_certificate(str(path))
        assert loaded.r == cert.r
        assert loaded.n == cert.n
        assert loaded.assignment == cert.assignment
        assert loaded.quality == cert.quality
        assert loaded.infeasible == cert.infeasible
        assert chunk == z2
        # emitted form is stable under a save/load cycle
        path2 = tmp_path / "again.cert"
        emit_certificate(str(path2), loaded, chunk)
        assert path.read_text() == path2.read_text()

    def test_cli_verify(self, capsys, z2, tmp_path):
        path = tmp_path / "z2.cert"
        emit_certificate(str(path), sofic_profile(z2, 2, 5), z2)
        code, out, _ = run(capsys, "cert", "verify", str(path))
        assert code == 0
        assert "certificate ok" in out

    def test_non_bijection_witness_rejected(self, capsys, z2, tmp_path):
        path = tmp_path / "z2.cert"
        emit_certificate(str(path), sofic_profile(z2, 2, 5), z2)
        tampered = path.read_text().replace("witness a = [1 0]", "witness a = [1 1]")
        path.write_text(tampered)
        code, _, err = run(capsys, "cert", "verify", str(path))
        assert code == 1
        assert "error" in err

    def test_false_quality_claim_rejected(self, capsys, z3, tmp_path):
        cert = sofic_profile(z3, 2, 5)
        path = tmp_path / "z3.cert"
        emit_certificate(str(path), cert, z3)
        # claim a wrong witness whose true defect is 1, keeping the claimed 0
        tampered = path.read_text().replace("witness h2 = [2 0 1]",
                                            "witness h2 = [0 1 2]")
        path.write_text(tampered)
        code, _, err = run(capsys, "cert", "verify", str(path))
        assert code == 1
        assert "defect" in err

    def test_parse_rational(self):
        from fractions import Fraction
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("4") == Fraction(4)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")


@pytest.fixture
def cert_path(z3, tmp_path):
    path = tmp_path / "z3.cert"
    emit_certificate(str(path), sofic_profile(z3, 2, 5), z3)
    return path


class TestCertificateParseErrors:
    """Hostile certificate edits: exit 1 with one line on stderr, no traceback."""

    def verify_edited(self, capsys, path, old, new, *flags):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "cert", "verify", *flags, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_missing_header_key(self, capsys, cert_path):
        err = self.verify_edited(capsys, cert_path, "defect = 0/1\n", "")
        assert "lacks the 'defect' line" in err

    def test_malformed_record(self, capsys, cert_path):
        err = self.verify_edited(capsys, cert_path, "infeasible 2 nodes 4", "infeasible 2")
        assert "malformed record" in err

    def test_duplicate_witness(self, capsys, cert_path):
        err = self.verify_edited(capsys, cert_path, "witness h = [1 2 0]\n",
                                 "witness h = [1 2 0]\nwitness h = [2 0 1]\n")
        assert "two witness lines for 'h'" in err

    def test_huge_degree_rejected_before_listing_its_degrees(self, capsys, cert_path):
        err = self.verify_edited(capsys, cert_path, "n = 3\n", "n = 4000000000\n")
        assert "expected 1..3999999999, once each and in order" in err

    @pytest.mark.parametrize("old,new", [
        ("infeasible 1 nodes 1\n", ""),  # dropped record
        ("infeasible 2 nodes 4\n", "infeasible 2 nodes 4\ninfeasible 7 nodes 4\n"),
        ("infeasible 2 nodes 4\n", "infeasible 2 nodes 4\ninfeasible 2 nodes 4\n"),
        ("infeasible 1 nodes 1\ninfeasible 2 nodes 4\n",
         "infeasible 2 nodes 4\ninfeasible 1 nodes 1\n"),
    ], ids=["dropped", "beyond-n", "repeated", "out-of-order"])
    def test_records_must_be_degrees_below_n(self, capsys, cert_path, old, new):
        err = self.verify_edited(capsys, cert_path, old, new)
        assert "expected 1..2, once each and in order" in err

    @pytest.mark.parametrize("old,new,message", [
        ("r = 2/1", "r = 0/1", "r = 0/1 is below 1"),
        ("n = 3\n", "n = 0\n", "n = 0 is not positive"),
        ("n = 3\n", "n = 3\nn = 4\n", "two 'n' lines"),
        ("n = 3\n", "n = 3\nmood = calm\n", "cannot parse certificate line"),
    ], ids=["r-below-one", "n-zero", "duplicate-header", "unknown-line"])
    def test_bad_header(self, capsys, cert_path, old, new, message):
        assert message in self.verify_edited(capsys, cert_path, old, new)

    @pytest.mark.parametrize("flags", [(), ("--replay",)], ids=["plain", "replay"])
    def test_embedded_chunk_must_validate(self, capsys, cert_path, flags):
        err = self.verify_edited(capsys, cert_path, "h * 1 = h\n", "", *flags)
        assert "chunk fails validation: h * 1 = undef" in err


def replays_and_reemits(capsys, tmp_path, name, r):
    """The checked-in certificate ``name`` replays, and profiling its chunk
    at ``r`` emits it again byte for byte."""
    path = data_path(name)
    code, out, _ = run(capsys, "cert", "verify", "--replay", path)
    assert code == 0
    assert out.endswith("replay ok: every recorded degree exhausts in its recorded node count\n")
    _, c = load_certificate(path)
    chunk = tmp_path / "replayed.chunk"
    chunk.write_text(format_chunk(c))
    again = tmp_path / name
    assert main(["profile", "--chunk", str(chunk), "--r", r, "--emit-cert", str(again)]) == 0
    capsys.readouterr()
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()


class TestCertificateReplay:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_replay_accepts_genuine_records(self, capsys, cert_path, workers):
        code, plain, _ = run(capsys, "cert", "verify", str(cert_path))
        code2, out, _ = run(capsys, "--workers", workers, "cert", "verify", "--replay",
                            str(cert_path))
        assert code == code2 == 0
        assert out == plain + "replay ok: every recorded degree exhausts in its recorded node count\n"

    def test_z7_certificate_replays_and_reemits(self, capsys, tmp_path):
        # Emitted by the search that drew every ball of radius 0 or 1 as a
        # one-member pool: at r = 7 every ball depth of degrees 1..7 has
        # radius at most 1, so this pins its forced depths to those records.
        replays_and_reemits(capsys, tmp_path, "z7.cert", "7")

    def test_z16_trace_certificate_replays_through_orbit_counts(self, capsys, tmp_path,
                                                                orbit_sizes):
        # {0,2,4,7,9,14} in Z16 at r = 3, declared as 2, 7, 4, 9, 14 so that
        # the second element has no ball triple and draws a bitset pool at
        # every degree: emitted by the search that explored every subtree of
        # the second depth, its records must replay when failed subtrees
        # count for their conjugates.
        replays_and_reemits(capsys, tmp_path, "z16trace.cert", "3")
        assert max(orbit_sizes) > 1

    def test_z12_trace_certificate_replays_through_forced_depths(self, capsys, tmp_path):
        # {0,1,6,8,9} in Z12 at r = 4, least degree 8: the last depth is
        # forced at degree 7, which exhausts in 5,875,168,335 nodes.  Emitted
        # by the search that drew forced centres apart from its other pools.
        replays_and_reemits(capsys, tmp_path, "z12r4trace.cert", "4")

    def test_plain_verify_does_not_check_node_counts(self, capsys, cert_path):
        cert_path.write_text(cert_path.read_text().replace("infeasible 1 nodes 1",
                                                           "infeasible 1 nodes 999"))
        code, _, _ = run(capsys, "cert", "verify", str(cert_path))
        assert code == 0

    def test_replay_rejects_edited_node_count(self, capsys, cert_path):
        cert_path.write_text(cert_path.read_text().replace("infeasible 1 nodes 1",
                                                           "infeasible 1 nodes 999"))
        code, out, err = run(capsys, "cert", "verify", "--replay", str(cert_path))
        assert code == 1
        assert out == ""
        assert err == "error: degree 1 exhausts in 1 nodes, but is recorded with 999\n"

    def test_replay_rejects_feasible_degree(self, capsys, z3, tmp_path):
        # A genuine r = 2 witness at degree 4, claiming degree 3 infeasible.
        cert = sofic_profile(z3, 2, 5)
        path = tmp_path / "z3.cert"
        emit_certificate(str(path), cert, z3)
        text = path.read_text()
        for e, p in cert.assignment.items():
            wide = "[" + " ".join(map(str, p.images + (3,))) + "]"
            text = text.replace(f"witness {e} = [{' '.join(map(str, p.images))}]",
                                f"witness {e} = {wide}")
        text = text.replace("n = 3", "n = 4").replace(
            "expansiveness = 1/1", "expansiveness = 3/4").replace(
            "infeasible 2 nodes 4\n", "infeasible 2 nodes 4\ninfeasible 3 nodes 5\n")
        path.write_text(text)
        code, _, err = run(capsys, "cert", "verify", "--replay", str(path))
        assert code == 1
        assert err == "error: degree 3 is feasible, but is recorded as infeasible\n"


class TestGChunkSpecFormat:
    def test_table_carrier(self, capsys, tmp_path):
        spec = tmp_path / "pairswap.gchunk"
        spec.write_text(
            f"chunk {data_path('z2.chunk')}\n"
            "carrier a = table:[1 0 3 2]\n"
            "bound = affine:1\n")
        gc = parse_gchunk_file(str(spec), horizon=50)
        assert gc.carriers["a"](0) == 1
        assert gc.carriers["a"](4) == 4  # identity beyond the prefix

    def test_table_carrier_descriptor_form(self, tmp_path):
        spec = tmp_path / "pairswap.gchunk"
        spec.write_text(
            f"chunk {data_path('z2.chunk')}\n"
            "carrier a = table:[1 0]+id\n"
            "bound = affine:1\n")
        gc = parse_gchunk_file(str(spec), horizon=50)
        assert gc.carriers["a"].descriptor == "table:[1 0]+id"

    def test_unknown_gadget_rejected(self, tmp_path):
        spec = tmp_path / "bad.gchunk"
        spec.write_text(
            f"chunk {data_path('z2.chunk')}\n"
            "carrier a = gadget:nonsense\n"
            "bound = affine:1\n")
        with pytest.raises(ValueError):
            parse_gchunk_file(str(spec), horizon=50)

    def test_missing_bound_rejected(self, tmp_path):
        spec = tmp_path / "bad.gchunk"
        spec.write_text(f"chunk {data_path('z2.chunk')}\n"
                        "carrier a = table:[1 0]\n")
        with pytest.raises(ValueError):
            parse_gchunk_file(str(spec), horizon=50)


def argparse_namespace(argv):
    """``vars`` of what the argparse tree makes of argv, or None when it
    prints help or a usage error."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


# True one time in ten, drawn as hypothesis prefers small integers
rarely = st.integers(0, 9).map(lambda k: k == 9)


def flag_texts(flag):
    """Values for a flag, one in ten of them one that it rejects or that
    starts with '-'."""
    if flag.choices is not None:
        good, bad = st.sampled_from(flag.choices), st.just("bad")
    elif flag.type is int:
        good, bad = st.integers(0, 40).map(str), st.sampled_from(("-3", "x"))
    elif flag.type is cli.parse_rational:
        good = st.one_of(st.integers(1, 9).map(str),
                         st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 5)))
        bad = st.sampled_from(("-2", "1/0", "1/x"))
    else:
        good = st.sampled_from(("tests/data/z2.chunk", "affine:1", "1,0,1", "(0 1)", "a=b", ""))
        bad = st.just("-x")
    return rarely.flatmap(lambda odd: bad if odd else good)


@st.composite
def spelled(draw, flag):
    """The tokens that give ``flag``: ``--flag value`` or ``--flag=value``,
    now and then with the name abbreviated."""
    text = draw(flag_texts(flag))
    if not flag.name.startswith("-"):
        return [text]
    name = flag.name
    if len(name) > 3 and draw(rarely):
        name = name[:draw(st.integers(3, len(name) - 1))]
    if flag.type is bool:
        return [f"{name}={text}"] if draw(rarely) else [name]
    return [f"{name}={text}"] if draw(st.booleans()) else [name, text]


@st.composite
def command_lines(draw):
    """An argv for one leaf of the command table: its flags in random order,
    now and then one repeated, a required one left out, or -h, an unknown
    flag or a stray positional added."""
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = draw(spelled(cli.GLOBAL_FLAGS[0])) if draw(st.booleans()) else []
    argv += command.words
    given_flags = [flag for flag in command.flags
                   if (not draw(rarely) if flag.required or not flag.name.startswith("-")
                       else draw(st.booleans()))]
    groups = []
    for flag in draw(st.permutations(given_flags)):
        groups.append(draw(spelled(flag)))
        if draw(rarely):
            groups.append(draw(spelled(flag)))
    if draw(rarely):
        extra = draw(st.sampled_from((["-h"], ["--bogus"], ["--bogus", "1"], ["stray"])))
        groups.insert(draw(st.integers(0, len(groups))), extra)
    return argv + [token for group in groups for token in group]


class TestCommandTable:
    """``main`` reads a well-formed command line from the command table and
    builds argparse only for the rest, with the same result."""

    @given(command_lines())
    @settings(max_examples=400, deadline=None)
    def test_table_read_agrees_with_argparse(self, argv):
        args = cli.read_command_line(argv)
        if args is not None:
            assert vars(args) == argparse_namespace(argv)

    def test_table_reads_every_documented_command_line(self):
        with open(data_path("cli_corpus.txt"), encoding="utf-8") as fh:
            corpus = [shlex.split(line) for line in fh if line.strip() and line[0] != "#"]
        for argv in corpus:
            args = cli.read_command_line(argv)
            assert args is not None, argv
            assert vars(args) == argparse_namespace(argv), argv
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            documented = [shlex.split(line, comments=True)[1:] for line in fh
                          if line.startswith("sofic ")]
        assert documented and all(argv in corpus for argv in documented)

    def test_help_abbreviations_and_usage_errors_go_to_argparse(self):
        z2 = data_path("z2.chunk")
        for argv in (["-h"], ["profile", "--r", "2"], ["profile", "--chunk", z2, "--r", "-2"],
                     ["profile", "--ch", z2, "--r", "2"], ["profile", "--chunk", z2, "--bogus"],
                     ["profile", "--chunk", z2, "--chunk", z2, "--r", "2"],
                     ["growth", "cmp", "--f", "affine:1", "--g", "affine:2", "--rel", "bad"],
                     ["profile", "--chunk", z2, "--workers", "2"], ["chunk", "validate", z2, z2],
                     ["nosuch"], ["cert"], []):
            assert cli.read_command_line(argv) is None, argv

    def test_a_well_formed_command_imports_no_argparse(self, tmp_path):
        script = ("import sys\n"
                  "from soficapprox import cli\n"
                  "chunk, cert = sys.argv[1:]\n"
                  "codes = [cli.main(['profile', '--chunk', chunk, '--r', '2/1',\n"
                  "                   '--emit-cert', cert]),\n"
                  "         cli.main(['cert', 'verify', cert])]\n"
                  "print(codes, 'argparse' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, "-c", script, data_path("z2.chunk"),
                               str(tmp_path / "z2.cert")],
                              capture_output=True, text=True, env=env, check=False)
        assert done.stdout.splitlines()[-1] == "[0, 0] False", done.stderr


class TestRepeatedMain:
    """``main`` shares one parser tree across calls in a process."""

    def test_calls_in_one_process_match_fresh_interpreters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps the same in both
        cert = tmp_path / "z2.cert"
        z2 = data_path("z2.chunk")
        calls = [
            ["--workers", "0", "growth", "cmp", "--f", "affine:1", "--g", "affine:2",
             "--rel", "prec"],
            ["profile", "--r", "2"],
            ["-h"],
            ["profile", "--chunk", z2, "--r", "2", "--emit-cert", str(cert)],
            ["profile", "--chunk", z2, "--r", "2"],
            ["cert", "verify", str(cert)],
            ["growth", "cmp", "--f", "affine:1", "--g", "affine:2", "--rel", "prec"],
            ["supp", "--gchunk", data_path("three.gchunk"), "--n", "9", "--r", "2/1"],
        ]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        fresh = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "soficapprox.cli", *argv],
                                  capture_output=True, text=True, env=env, check=False)
            fresh.append((done.returncode, done.stdout, done.stderr))
        cert.unlink()

        cli.build_parser.cache_clear()
        for i, argv in enumerate(calls):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh[i], argv
            if "--emit-cert" in argv:
                os.utime(cert, ns=(0, 0))  # a later write would move the stamp
        assert cert.stat().st_mtime_ns == 0 and os.listdir(tmp_path) == [cert.name]
        assert fresh[0][0] == 1 and fresh[0][2] == "error: --workers must be positive\n"
        assert fresh[1][0] == 1 and fresh[1][2].endswith(
            "error: the following arguments are required: --chunk\n")
        assert fresh[2][0] == 0 and fresh[2][1].startswith("usage: sofic")
        assert all(code == 0 for code, _, _ in fresh[3:])
        assert cli.build_parser.cache_info().misses == 1
