import contextlib
import io
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorperm
from tensorperm import build_delta, cli, index_algebra, tcm_spec
from tensorperm.cli import main
from tensorperm.formats import format_scalar, parse_matrix_market

from oracles import swap_table


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_perm_swap(capsys):
    code, out, err = run_cli(["gen", "--dims", "3,2", "--sigma", "2,1", "--format", "perm"], capsys)
    assert code == 0
    assert out == "6\n1 3 5 2 4 6\n"
    assert err == ""


def test_gen_perm_identity(capsys):
    code, out, _ = run_cli(["gen", "--dims", "4", "--sigma", "1", "--format", "perm"], capsys)
    assert code == 0
    assert out == "4\n1 2 3 4\n"


def test_gen_sigma_defaults_to_reversal(capsys):
    _, explicit, _ = run_cli(["gen", "--dims", "3,2", "--sigma", "2,1"], capsys)
    _, defaulted, _ = run_cli(["gen", "--dims", "3,2"], capsys)
    assert explicit == defaulted


def test_gen_past_64_factors(capsys):
    dims = ",".join(["2", *["1"] * 70, "3"])
    sigma = ",".join(str(s) for s in range(72, 0, -1))
    code, out, err = run_cli(["gen", "--dims", dims, "--sigma", sigma], capsys)
    assert (code, out, err) == (0, "6\n1 4 2 5 3 6\n", "")


def _peak_rss_kib(argv):
    """Peak RSS of a fresh Python process running ``argv``, from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tensorperm.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss


def test_gen_perm_memory_per_entry_is_bounded():
    # the text goes out in pieces, so only the index grows with the order
    n = 2**22
    base = _peak_rss_kib(["-c", "import tensorperm"])
    peak = _peak_rss_kib(["-m", "tensorperm", "gen", "--dims", "2048,2048"])
    assert (peak - base) * 1024 / n < 40


def test_importing_the_cli_loads_no_fractions():
    # only rank_over_rationals uses fractions, and it imports the module itself
    env = dict(os.environ, PYTHONPATH=str(Path(tensorperm.__file__).parents[1]))
    code = "import sys, tensorperm.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_gen_mm_parses_back(capsys):
    code, out, _ = run_cli(["gen", "--dims", "3,5", "--sigma", "2,1", "--format", "mm"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    assert lines[1] == "15 15 15"
    assert len(lines) == 17
    assert np.array_equal(parse_matrix_market(out), build_delta(tcm_spec(3, 5)))


def test_gen_dense_and_blocks(capsys):
    code, out, _ = run_cli(["gen", "--dims", "2,2", "--sigma", "2,1", "--format", "dense"], capsys)
    assert code == 0
    assert out == "1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1\n"
    code, out, _ = run_cli(["gen", "--dims", "2,2", "--sigma", "2,1", "--format", "blocks"], capsys)
    assert code == 0
    assert out == "1 0  0 0\n0 0  1 0\n\n0 1  0 0\n0 0  0 1\n"


def test_gen_output_file(tmp_path, capsys):
    target = tmp_path / "u32.mm"
    code, out, _ = run_cli(
        ["gen", "--dims", "3,2", "--sigma", "2,1", "--format", "mm", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert np.array_equal(parse_matrix_market(target.read_text()), build_delta(tcm_spec(3, 2)))


def test_gen_invalid_sigma_exits_2(capsys):
    code, out, err = run_cli(["gen", "--dims", "3,2", "--sigma", "1,1"], capsys)
    assert code == 2
    assert out == ""
    assert "sigma is not a permutation" in err


def test_gen_capacity_exits_3(capsys):
    code, _, err = run_cli(
        ["gen", "--dims", "3,2", "--sigma", "2,1", "--format", "dense", "--dense-bound", "4"],
        capsys,
    )
    assert code == 3
    assert "dense bound" in err


def test_gen_dense_bound_past_memory_exits_3():
    # an 8 TiB matrix, refused by numpy; the address-space limit makes the
    # refusal certain whatever the host's overcommit policy
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    env = dict(os.environ, PYTHONPATH=str(Path(tensorperm.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "tensorperm", "gen", "--dims", "1024,1024", "--format", "mm",
         "--dense-bound", "1048576"],
        capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


def test_memory_error_without_a_message_exits_3(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_delta", refuse)
    code, out, err = run_cli(["gen", "--dims", "3,2", "--format", "mm"], capsys)
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_gen_perm_format_works_beyond_dense_bound(capsys):
    code, out, _ = run_cli(["gen", "--dims", "70,70", "--format", "perm"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "4900"


def test_verify_passes_for_valid_specs(capsys):
    code, out, _ = run_cli(["verify", "--dims", "3,2", "--sigma", "2,1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)
    names = {line.split()[1] for line in lines}
    assert names == {
        "constructor-agreement",
        "vector-relocation",
        "matrix-conjugation",
        "transpose-duality",
        "permutation-shape",
    }


def test_verify_three_factor_reversal(capsys):
    code, out, _ = run_cli(["verify", "--dims", "2,2,2", "--sigma", "3,2,1"], capsys)
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())


def test_verify_passes_with_many_size_1_factors(capsys):
    dims = ",".join(["2"] + ["1"] * 70 + ["3"])
    sigma = ",".join(str(t) for t in range(72, 0, -1))
    code, out, err = run_cli(["verify", "--dims", dims, "--sigma", sigma], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)


def test_verify_rejects_bad_sigma(capsys):
    code, _, err = run_cli(["verify", "--dims", "3,2", "--sigma", "1,1"], capsys)
    assert code == 2
    assert "sigma is not a permutation" in err


def test_verify_capacity(capsys):
    code, _, err = run_cli(["verify", "--dims", "100,100"], capsys)
    assert code == 3
    assert "dense bound" in err


def test_verify_passes_its_dense_bound_to_the_conjugation_check(monkeypatch, capsys):
    bounds = []

    def check(spec, matrices, dense_bound):
        bounds.append(dense_bound)
        return True

    monkeypatch.setattr(cli, "commutation_conjugation_check", check)
    code, _, _ = run_cli(["verify", "--dims", "3,2", "--dense-bound", "7"], capsys)
    assert code == 0 and bounds and set(bounds) == {7}


def test_classify_order_12(capsys):
    code, out, _ = run_cli(["classify", "--order", "12"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "1x12 identity = 12x1",
        "2x6",
        "3x4",
        "4x3",
        "6x2",
        "12x1 identity = 1x12",
    ]


def test_classify_prime_order(capsys):
    code, out, _ = run_cli(["classify", "--order", "7"], capsys)
    assert code == 0
    assert out.splitlines() == ["1x7 identity = 7x1", "7x1 identity = 1x7"]


def test_classify_order_1(capsys):
    code, out, _ = run_cli(["classify", "--order", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["1x1 identity"]


def test_classify_matches_the_table_of_every_swap_to_400(capsys):
    for order in range(1, 401):
        code, out, err = run_cli(["classify", "--order", str(order)], capsys)
        assert (code, out, err) == (0, swap_table(order), ""), order


def test_classify_validation(capsys):
    code, _, err = run_cli(["classify", "--order", "0"], capsys)
    assert code == 2
    code, _, err = run_cli(["classify", "--order", "5000"], capsys)
    assert code == 3


def test_decompose_n2(capsys):
    code, out, _ = run_cli(["decompose", "--n", "2"], capsys)
    assert code == 0
    assert out == "n 2\nc00 0.5\n1 1 0.5 0\n2 2 0.5 0\n3 3 0.5 0\n"


def test_decompose_n3_and_n4(capsys):
    code, out, _ = run_cli(["decompose", "--n", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "c00 0.3333333333"
    assert len(lines) == 10
    code, out, _ = run_cli(["decompose", "--n", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "c00 0.25"
    assert lines[2:] == [f"{i} {i} 0.5 0" for i in range(1, 16)]


def test_decompose_rejects_n1(capsys):
    code, _, err = run_cli(["decompose", "--n", "1"], capsys)
    assert code == 2
    assert "at least 2" in err


def test_decompose_capacity(capsys):
    code, _, _ = run_cli(["decompose", "--n", "70"], capsys)
    assert code == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-3", "+1e-3", "1_0",
                                   "\u0660.\u0666", " 1", "1e400",
                                   pytest.param("1" + "0" * 400, id="10**400")])
def test_decompose_tolerance_must_be_finite_and_not_negative(value, capsys):
    # the = form, so that argparse does not take "-inf" for a flag
    code, out, err = run_cli(["decompose", "--n", "2", f"--tolerance={value}"], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("tensorperm decompose: error: argument --tolerance: ")


def test_decompose_tolerance_reads_the_writers_spellings(capsys):
    default = run_cli(["decompose", "--n", "3"], capsys)
    assert run_cli(["decompose", "--n", "3", "--tolerance", "1e-10"], capsys) == default
    for value in ("0", "-0", "0.25", "2.5e-07"):
        assert run_cli(["decompose", "--n", "2", "--tolerance", value], capsys) == (
            0, "n 2\nc00 0.5\n1 1 0.5 0\n2 2 0.5 0\n3 3 0.5 0\n", "")
    assert run_cli(["decompose", "--n", "2", "--tolerance", "3"], capsys) == (0, "n 2\nc00 0.5\n", "")
    code, _, err = run_cli(["decompose", "--n", "2", "--tolerance", "abc"], capsys)
    assert code == 2
    assert err.splitlines()[-1].endswith("argument --tolerance: invalid float value: 'abc'")


def test_apply_swap(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("".join(f"{i}\n" for i in range(1, 7)))
    code, out, _ = run_cli(
        ["apply", "--dims", "3,2", "--sigma", "2,1", "--input", str(vec)], capsys
    )
    assert code == 0
    assert out == "1\n3\n5\n2\n4\n6\n"


def test_apply_identity_echoes(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("".join(f"{i}\n" for i in range(1, 7)))
    code, out, _ = run_cli(
        ["apply", "--dims", "3,2", "--sigma", "1,2", "--input", str(vec)], capsys
    )
    assert code == 0
    assert out == "1\n2\n3\n4\n5\n6\n"


def test_apply_three_factor_reversal(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("".join(f"{i}\n" for i in range(1, 9)))
    code, out, _ = run_cli(
        ["apply", "--dims", "2,2,2", "--sigma", "3,2,1", "--input", str(vec)], capsys
    )
    assert code == 0
    assert out == "1\n5\n3\n7\n2\n6\n4\n8\n"


def test_apply_floats_round_trip(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("0.5\n-1.25\n3\n4\n5\n6\n")
    code, out, _ = run_cli(
        ["apply", "--dims", "3,2", "--sigma", "1,2", "--input", str(vec)], capsys
    )
    assert code == 0
    assert out == "0.5\n-1.25\n3\n4\n5\n6\n"


def test_apply_length_mismatch_exits_2(tmp_path, capsys):
    vec = tmp_path / "v.txt"
    vec.write_text("1\n2\n3\n4\n5\n")
    code, _, err = run_cli(
        ["apply", "--dims", "3,2", "--sigma", "2,1", "--input", str(vec)], capsys
    )
    assert code == 2
    assert "length 5" in err


def test_apply_missing_file_exits_2(capsys):
    code, _, err = run_cli(
        ["apply", "--dims", "3,2", "--sigma", "2,1", "--input", "/nonexistent/v.txt"], capsys
    )
    assert code == 2


def test_bench_small(capsys):
    code, out, err = run_cli(["bench", "--dims", "2,2", "--sigma", "2,1", "--reps", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("bench dims=2,2 implicit_ns=")
    assert "dense_ns=" in lines[-1]
    assert "skipped" not in lines[-1]
    assert err == ""


def test_bench_skips_dense_beyond_bound(capsys):
    code, out, err = run_cli(["bench", "--dims", "80,80", "--reps", "1"], capsys)
    assert code == 0
    assert "dense path skipped" in err
    assert out.splitlines()[-1].endswith("dense_ns=skipped")


def test_bench_builds_no_index_permutation(monkeypatch, capsys):
    # 1025 * 1024 entries is past the cached orders and past the dense
    # bound, so an index built by any timed apply would show here
    builds = []
    build = index_algebra._induced_index
    monkeypatch.setattr(index_algebra, "_induced_index",
                        lambda dims, mapping: builds.append(dims) or build(dims, mapping))
    code, out, _ = run_cli(["bench", "--dims", "1025,1024", "--reps", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("implicit apply: ")
    assert builds == []


def test_bench_times_the_matrix_of_build_delta(monkeypatch, capsys):
    calls = []
    build = cli.build_delta
    monkeypatch.setattr(cli, "build_delta",
                        lambda spec, dense_bound: calls.append(spec) or build(spec, dense_bound))
    code, out, _ = run_cli(["bench", "--dims", "3,2", "--reps", "1"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("bench dims=3,2 implicit_ns=")
    assert calls == [tcm_spec(3, 2)]


def test_bench_rejects_zero_reps(capsys):
    code, _, err = run_cli(["bench", "--dims", "2,2", "--reps", "0"], capsys)
    assert code == 2
    assert "reps" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["gen", "--dims", "3,2", "--wat"], capsys)
    assert code == 2


def test_diagnostics_never_pollute_stdout(capsys):
    for args in (
        ["gen", "--dims", "3,2", "--sigma", "1,1"],
        ["classify", "--order", "0"],
        ["decompose", "--n", "1"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err != ""


# integer spellings that Python's int() takes but the writers never emit
_BAD_INT_TOKENS = ["+3", "\u0663", "\uff13", "1_0", " 2", "2 ", "0x3", "3.0", "", "\u00b2", "2e1"]
_INT_LIST = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


@pytest.mark.parametrize("args", [
    ["gen", "--dims", "+3,2"],
    ["gen", "--dims", "\u0663,2"],
    ["gen", "--dims", "3, 2"],
    ["gen", "--dims", "3,2", "--sigma", "2,+1"],
])
def test_number_text_the_writers_never_emit_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_vector_text_the_writers_never_emit_exits_2(tmp_path, monkeypatch, capsys):
    # read as ASCII and split on ASCII whitespace alone, from a file and from
    # stdin alike: str.split would split at U+00A0 and at \x1c-\x1f
    vec = tmp_path / "v.txt"
    for text, error in [("+3 1_0", "cannot parse vector entry"),
                        ("1 2 3 4 5 +6", "cannot parse vector entry"),
                        ("1 2 3 4 5 NaN", "cannot parse vector entry"),
                        ("1 2 3 4 5 Infinity", "cannot parse vector entry"),
                        ("1\x1f2\n3\n4\n5\n6", "cannot parse vector entry '1\\x1f2'"),
                        ("1\u00a02\n3\n4\n5\n6", "'ascii' codec can't decode byte 0xc2")]:
        vec.write_bytes(text.encode())
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        for source in (str(vec), "-"):
            code, out, err = run_cli(["apply", "--dims", "3,2", "--input", source], capsys)
            assert code == 2, (text, source)
            assert out == ""
            assert err.startswith(f"error: {error}") and err.count("\n") == 1, (text, source)


def test_vector_entry_past_the_int_digit_limit_exits_2(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer text of any length")
    vec = tmp_path / "v.txt"
    vec.write_text("9" * (limit + 1))
    code, out, err = run_cli(["apply", "--dims", "1", "--input", str(vec)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_vector_entries_round_trip_the_writers_spellings(tmp_path, capsys):
    entries = ["-0", "12", "-1.5", "2.5e-07", "1e+20", "nan", "inf", "-inf"]
    vec = tmp_path / "v.txt"
    vec.write_text("\n".join(entries))
    code, out, _ = run_cli(["apply", "--dims", "8", "--input", str(vec)], capsys)
    assert code == 0
    assert out.split() == ["0", "12", "-1.5", "2.5e-07", "1e+20", "nan", "inf", "-inf"]


def test_integer_options_keep_argparse_usage_errors(capsys):
    for value in ("+3", "x", "3.0"):
        code, out, err = run_cli(["classify", "--order", value], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"tensorperm classify: error: argument --order: invalid int value: {value!r}"
        )


@st.composite
def _small_dims(draw):
    # at most 4096 entries, so no example allocates more than a few MB
    dims, total = [], 1
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(0, min(64, 4096 // total)))
        dims.append(d)
        total *= max(d, 1)
    return dims


def _csv(values):
    return ",".join(map(str, values))


_bad_list = st.lists(
    st.one_of(st.sampled_from(_BAD_INT_TOKENS), st.integers(-2, 8).map(str)), min_size=1, max_size=4
).map(",".join).filter(lambda text: _INT_LIST.fullmatch(text) is None)
_junk = st.text(max_size=12).filter(lambda text: _INT_LIST.fullmatch(text) is None)
_dims_text = st.one_of(_small_dims().map(_csv), _bad_list, _junk)
_sigma_text = st.one_of(
    st.none(),
    st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1))).map(_csv),
    st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(_csv),
    _bad_list,
    _junk,
)
_vector_token = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(format_scalar),
    st.sampled_from([*_BAD_INT_TOKENS, "NaN", "Infinity", "1.5e", ".5", "5.", "-.5e-3"]),
)


def _run_quiet(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, err):
    # 0, or one diagnostic line; argparse writes its usage block before a
    # usage error, and that text stays as argparse writes it
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        return
    *usage, diagnostic = err.splitlines()
    if usage:
        assert usage[0].startswith("usage: tensorperm ")
        assert all(line.startswith(" ") for line in usage[1:])
        assert diagnostic.startswith("tensorperm ") and ": error: " in diagnostic
    else:
        assert diagnostic.startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(dims=_dims_text, sigma=_sigma_text, tokens=st.lists(_vector_token, max_size=80),
       data=st.data())
def test_fuzz_spec_flags_and_vector_file(tmp_path_factory, dims, sigma, tokens, data):
    flags = [f"--dims={dims}"] + ([] if sigma is None else [f"--sigma={sigma}"])
    code, _, err = _run_quiet(["gen", *flags])
    _assert_clean_exit(code, err)
    if code == 0 and data.draw(st.booleans()):
        # a vector of the right length, so the apply itself runs; drawn from
        # a seed, since a few thousand drawn tokens would overrun Hypothesis
        size = int(np.prod([int(d) for d in dims.split(",")]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(-99, 100, size) if data.draw(st.booleans()) else rng.standard_normal(size)
        tokens = [format_scalar(x) for x in values.tolist()]
    vec = tmp_path_factory.mktemp("fuzz") / "v.txt"
    vec.write_text(data.draw(st.sampled_from(["\n", " ", "\t"])).join(tokens), encoding="utf-8")
    code, _, err = _run_quiet(["apply", *flags, f"--input={vec}"])
    _assert_clean_exit(code, err)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-5, 5000).map(str), st.sampled_from(_BAD_INT_TOKENS), st.text(max_size=8)))
def test_fuzz_classify_order(order):
    code, _, err = _run_quiet(["classify", f"--order={order}"])
    _assert_clean_exit(code, err)
