import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hopforders.cli import (MAX_INPUT_CHARS, ParseError, main, parse_element,
                            parse_field_spec, parse_matrix)
from hopforders.families import MAX_RECORDS, Family
from hopforders.matrix import Mat
from hopforders.parse import MAX_DEGREE, MAX_NESTING
from hopforders.ratfunc import Poly, RatFunc

from helpers import F2, F3, F4, F5, pi, rand_mat, rand_ratfunc


# -- field specs --

def test_parse_field_spec():
    assert parse_field_spec("p=2") == F2
    assert parse_field_spec("p=2;k=2;mod=a^2+a+1") == F4
    assert parse_field_spec(" p=3 ") == F3
    assert parse_field_spec("p=3;k=2;mod=a^2+1").q == 9
    for spec in (F2, F3, F4):
        assert parse_field_spec(spec.spec_text()) == spec


def test_parse_field_spec_errors():
    for bad in ["", "p=4", "q=2", "p=2;k=2", "p=2;k=2;mod=a^2+1",
                "p=2;p=3", "p=x", "p=2;k=2;mod=a^2+a+1;extra=1",
                "p=0;k=2;mod=a^2+a+1", "p=2;k=2;mod=T^2+T+1"]:
        with pytest.raises(ParseError):
            parse_field_spec(bad)


def test_parse_field_spec_modulus_messages():
    with pytest.raises(ParseError, match="p must be a prime"):
        parse_field_spec("p=0;k=2;mod=a^2+a+1")
    with pytest.raises(ParseError, match="symbol 'T'"):
        parse_field_spec("p=2;k=2;mod=T^2+T+1")
    with pytest.raises(ParseError, match="polynomial in a"):
        parse_field_spec("p=2;k=2;mod=a^2+a+1/a")
    with pytest.raises(ParseError, match="bad field-spec fragment 'k'"):
        parse_field_spec("p=2;k")
    # the modulus goes through the element grammar over F_p
    assert parse_field_spec("p=2;k=2;mod=(a+1)*a+1") == F4
    assert parse_field_spec("p=2;k=2;mod=a^2+a+1+a^3-a^3") == F4


# -- elements --

def test_parse_element_examples():
    x = parse_element("T^3/(1+T)", F2)
    assert x.val == 3
    assert x == RatFunc(Poly.from_ints(F2, [0, 0, 0, 1]), Poly.from_ints(F2, [1, 1]))

    y = parse_element("(T^2-1)/(T-1)", F3)
    assert y == RatFunc.from_poly(Poly.from_ints(F3, [1, 1]))

    z = parse_element("T^-2", F5)
    assert z == pi(F5, -2) and z.val == -2


def test_parse_element_arithmetic():
    assert parse_element("2*T + T*2", F3) == pi(F3)      # 4T = T mod 3
    assert parse_element("T + T", F3) == parse_element("2*T", F3)
    assert parse_element("-T", F3) == -pi(F3)
    assert parse_element("(1+T)^2", F2) == parse_element("1+T^2", F2)
    assert parse_element("7", F5) == RatFunc.constant(F5, 2)
    assert parse_element("a*a", F4) == RatFunc.constant(F4, F4.element((1, 1)))
    assert parse_element("(a+1)*T^2", F4).num.coeffs[2] == F4.element((1, 1))


def test_parse_element_errors():
    with pytest.raises(ParseError):
        parse_element("a", F2)          # unknown symbol in a prime field
    with pytest.raises(ParseError):
        parse_element("T+", F2)
    with pytest.raises(ParseError):
        parse_element("T^x", F2)
    with pytest.raises(ParseError, match="expected an integer exponent"):
        parse_element("T^-a", F4)
    with pytest.raises(ParseError):
        parse_element("1/(T-T)", F2)    # division by zero
    with pytest.raises(ParseError):
        parse_element("T 1", F2)        # trailing input
    with pytest.raises(ParseError):
        parse_element("%", F2)
    with pytest.raises(ParseError):
        parse_element("0^-1", F3)


def test_digits_int_cannot_read_are_parse_errors(capsys):
    """A number is a run of decimal digits (category Nd), what int() reads:
    superscripts and circled digits are stray characters, with a position."""
    for src, char in (("T\u00b2", "\u00b2"), ("2\u2075", "\u2075"), ("\u2460", "\u2460")):
        with pytest.raises(ParseError, match=f"^unexpected character '{char}' at position "
                                             f"{src.index(char)}$"):
            parse_element(src, F2)
    assert parse_element("\uff11", F3) == 1                    # fullwidth 1
    assert parse_element("T^\uff11\u0662", F2) == pi(F2, 12)    # fullwidth 1, Arabic-Indic 2
    assert main(["check", "--field", "p=2", "--B", "[T\u00b2]", "--theta", "[1]"]) == 2
    assert capsys.readouterr().err == ("error: entry (1,1): unexpected character "
                                       "'\u00b2' at position 1\n")



def test_digit_run_past_int_limit_is_a_parse_error():
    """int() refuses a run of more than sys.get_int_max_str_digits() digits;
    the grammar reports it with the run's position."""
    with pytest.raises(ParseError, match="^integer of 5000 digits is too long at position 2$"):
        parse_element("T+" + "1" * 5000, F2)
    with pytest.raises(ParseError, match="^field spec: integer of 5000 digits is too long$"):
        parse_field_spec("p=" + "1" * 5000)

def test_parser_limits():
    deep = "(" * 300 + "T" + ")" * 300
    with pytest.raises(ParseError, match="MAX_NESTING"):
        parse_element(deep, F2)
    ok = "(" * MAX_NESTING + "T" + ")" * MAX_NESTING
    assert parse_element(ok, F2) == pi(F2)
    assert parse_element("-" * 1000 + "T", F3) == pi(F3)     # unary minus does not nest
    with pytest.raises(ParseError, match="MAX_DEGREE"):
        parse_element("T^100000000", F2)
    with pytest.raises(ParseError, match="MAX_DEGREE"):
        parse_element(f"T^-{MAX_DEGREE + 1}", F2)
    with pytest.raises(ParseError, match="MAX_DEGREE"):
        parse_element(f"T^{MAX_DEGREE} * T", F2)
    assert parse_element(f"T^{MAX_DEGREE}", F2).val == MAX_DEGREE


def test_parser_limits_exit_2(capsys):
    deep = "(" * 300 + "T" + ")" * 300
    for argv in (
        ["check", "--field", "p=2", "--B", "[0,1;0,0]", "--theta", f"[{deep},0;0,1]"],
        ["fibre", "--field", "p=2;k=2;mod=" + "(" * 300 + "a^2+a+1" + ")" * 300,
         "--A", "[1]"],
        ["rank1", "--field", "p=2", "--b", "T^100000000", "--i", "0"],
        ["fibre", "--field", "p=2;k=2;mod=a^2+a+1+a^100000000-a^100000000",
         "--A", "[1]"],
    ):
        assert main(argv) == 2
        assert "MAX_" in capsys.readouterr().err


def test_element_roundtrip_random():
    rng = random.Random(41)
    for spec in (F2, F3, F4):
        for _ in range(200):
            x = rand_ratfunc(rng, spec)
            assert parse_element(str(x), spec) == x


# -- matrices --

def test_parse_matrix_examples():
    m = parse_matrix("[0,1;0,0]", F2)
    assert m == Mat.from_ints(F2, [[0, 1], [0, 0]])
    theta = parse_matrix("[T,0,0;1,1,0;1,0,T]", F3)
    assert theta[0, 0] == pi(F3) and theta[2, 2] == pi(F3)
    assert parse_matrix(" [ T , 0 ; 1+T , T^2 ] ", F2)[1, 0] == RatFunc.one(F2) + pi(F2)


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("[1,0;0]", F2)         # ragged
    with pytest.raises(ParseError):
        parse_matrix("[1,0,0;0,1,0]", F2)   # non-square
    with pytest.raises(ParseError):
        parse_matrix("1,0;0,1", F2)         # missing brackets
    with pytest.raises(ParseError):
        parse_matrix("[]", F2)
    with pytest.raises(ParseError) as exc:
        parse_matrix("[T,%;0,1]", F2)
    assert "(1,2)" in str(exc.value)


def test_matrix_roundtrip_random():
    rng = random.Random(43)
    for spec in (F2, F3):
        for _ in range(50):
            m = rand_mat(rng, spec, 2)
            assert parse_matrix(str(m), spec) == m


# -- commands --

WORKED_B = "[0,T^2,0;T^3,0,0;0,0,T^4]"
WORKED_THETA = "[T,0,0;1,1,0;1,0,T]"


def test_check_worked_example(capsys):
    code = main(["check", "--field", "p=2", "--B", WORKED_B, "--theta", WORKED_THETA])
    out = capsys.readouterr().out
    assert code == 0
    assert "A = [T,T,0;T + T^5,T,0;1 + T^3,1,T^5]" in out
    assert "integral: yes" in out
    assert "u1 = T*t1 + t2 + t3; u2 = t2; u3 = T*t3" in out
    assert "ranks=[1, 0, 0]" in out and "classification=connected" in out


def test_check_json_reparses(capsys):
    code = main(["check", "--field", "p=2", "--B", WORKED_B,
                 "--theta", WORKED_THETA, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["integral"] is True
    A = Mat([[parse_element(e, F2) for e in row] for row in payload["A"]])
    direct = parse_matrix(WORKED_THETA, F2).inv() @ parse_matrix(WORKED_B, F2) \
        @ parse_matrix(WORKED_THETA, F2).twist()
    assert A == direct
    assert payload["fibre"]["fpower_ranks"] == [1, 0, 0]
    assert payload["presentation"]["gens"] == ["u1", "u2", "u3"]


def test_check_not_integral(capsys):
    code = main(["check", "--field", "p=2", "--B", "[0,1;0,0]",
                 "--theta", "[1,0;1,T]"])
    out = capsys.readouterr().out
    assert code == 1
    assert "not integral" in out and "(2,1)" in out


def test_check_json_not_integral_is_pinned(capsys):
    code = main(["check", "--field", "p=2", "--B", "[0,1;0,0]",
                 "--theta", "[1,0;1/T,T]", "--json"])
    assert code == 1
    assert capsys.readouterr().out == (
        '{"field": "p=2", "integral": false, "witness": {"row": 1, "col": 1, '
        '"valuation": -2, "entry": "1/T^2"}}\n')


def test_check_singular_theta_exit_2(capsys):
    code = main(["check", "--field", "p=2", "--B", "[0,1;0,0]",
                 "--theta", "[1,1;1,1]"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_command(capsys):
    code = main(["verify", "--field", "p=3", "--theta", "[T,0;0,1]",
                 "--A", "[T^2,0;0,1]", "--B", "[1,0;0,1]"])
    assert code == 0
    assert "yes" in capsys.readouterr().out
    code = main(["verify", "--field", "p=3", "--theta", "[T,0;0,1]",
                 "--A", "[T,0;0,1]", "--B", "[1,0;0,1]"])
    assert code == 1
    capsys.readouterr()
    assert main(["verify", "--field", "p=2", "--theta", "[1]", "--A", "[1,0;0,1]",
                 "--B", "[1]"]) == 2
    assert capsys.readouterr().err == "error: dimension mismatch\n"


def test_normalize_command(capsys):
    code = main(["normalize", "--field", "p=3", "--theta", "[0,T;1,0]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "is_ddl: yes" in out
    assert "same_order: yes" in out


def test_same_order_command(capsys):
    code = main(["same-order", "--field", "p=2", "--theta", "[T,0;T^2,T^2]",
                 "--theta2", "[T,0;0,T^2]"])
    assert code == 0
    assert "same order: yes" in capsys.readouterr().out
    code = main(["same-order", "--field", "p=2", "--theta", "[T,0;0,1]",
                 "--theta2", "[1,0;0,T]"])
    assert code == 1


def test_fibre_and_present_commands(capsys):
    assert main(["fibre", "--field", "p=2", "--A", "[1,0;0,0]"]) == 0
    out = capsys.readouterr().out
    assert "classification=mixed" in out
    assert main(["present", "--field", "p=3", "--A", "[1,0;0,1]"]) == 0
    assert "R[u1,u2]/(u1^3 - u1, u2^3 - u2)" in capsys.readouterr().out
    assert main(["present", "--field", "p=2", "--A", "[T^-1]"]) == 2


def test_enumerate_command(capsys):
    code = main(["enumerate", "--family", "zp_x_ap", "--field", "p=2",
                 "--i", "0..0", "--j", "0..0", "--depth", "4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1
    assert "family=zp_x_ap" in lines[0] and "theta=1" in lines[0]


def test_enumerate_json_reparses(capsys):
    code = main(["enumerate", "--family", "alpha_p2", "--field", "p=2",
                 "--i", "0..2", "--j", "0..1", "--depth", "3", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload
    for item in payload:
        assert item["family"] == "alpha_p2"
        parse_element(item["theta"], F2)    # grammar string round-trips
        assert set(item["fibre"]) >= {"fpower_ranks", "connected", "etale"}


def test_oracle_check_command(capsys):
    code = main(["oracle-check", "--family", "mono_p2", "--field", "p=2",
                 "--i", "0..2", "--j=-1..2", "--depth", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "disagreements=0" in out


def test_oracle_check_prints_disagreements(capsys, monkeypatch):
    """A closed form that always says yes disagrees with the oracle on every
    non-order: exit 1, one line per disagreement, each with its witness."""
    from hopforders import families
    monkeypatch.setattr(families, "_closed_form", lambda *args: True)
    code = main(["oracle-check", "--family", "alpha_p2", "--field", "p=2",
                 "--i", "0..1", "--j", "0..1", "--depth", "2"])
    lines = capsys.readouterr().out.splitlines()
    disagreements = [line for line in lines if line.startswith("disagreement:")]
    assert code == 1
    assert disagreements and all(" oracle=False witness=entry (" in line
                                 for line in disagreements)


def test_oracle_check_json_is_pinned(capsys):
    code = main(["oracle-check", "--family", "alpha_p2", "--field", "p=2",
                 "--i", "0..1", "--j", "0..1", "--depth", "2", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"family": "alpha_p2", "p": 2, "depth": 2, "i_values": [0, 1], '
        '"j_values": [0, 1], "total": 16, "agreements": 16, "disagreements": []}\n')


# SHA-256 of the --json stdout of the five presets, in Family order,
# at i, j in -1..2 and depth 2, or the depth in SWEEP_DEPTHS
SWEEP_DIGESTS = {
    ("enumerate", "p=2"): "32301774026d5e2b5d9d67de5d1ca91048518a26e284c11aae925310a40c2047",
    ("enumerate", "p=3"): "9dbf817f497c22877e3238365f1d7fb7c7d4afb8024cdd8861fa6bce8e3a02e4",
    ("enumerate", "p=2;k=2;mod=a^2+a+1"):
        "292fc016bf59a5b06917b35fd63804d7249006f692659901c95fd02a2d541601",
    ("enumerate", "p=3;k=2;mod=a^2+1"):
        "0ee786c4a971ea6f5aa5c226e286886e901dcc0e996dacd8367316d1363e0751",
    ("enumerate", "p=5;k=2;mod=a^2+a+2"):
        "3679a817cebd92766f7376dedd6c56014689e68b84ff7bd9d22eec4e73bf22b2",
    ("oracle-check", "p=2"): "fa63d123881a2e7501afb0c12147cdb170027af575f8ea3586f1a4ee724831f2",
    ("oracle-check", "p=3"): "43022b8ad1cdb6624713a989243b1fbc79fd2c68ee3bfd7c0209642673e31c39",
    ("oracle-check", "p=2;k=2;mod=a^2+a+1"):
        "acaa1e6d0b1da6c66fe42b38358bfc85df61a09c0131b9604dabe16f8fd634a9",
    ("oracle-check", "p=3;k=2;mod=a^2+1"):
        "c5f835d4b202ae294726407be71b44cc6ba622526cf99c20e7a49ba5fa7d034e",
    ("oracle-check", "p=5;k=2;mod=a^2+a+2"):
        "042664961cd7b6ea8eb82ac1543eb3b2b091313f37421a4072de291fc753aefc",
}
SWEEP_DEPTHS = {"p=5;k=2;mod=a^2+a+2": 1}


@pytest.mark.parametrize("command, field", sorted(SWEEP_DIGESTS))
def test_sweep_json_bytes_are_pinned(command, field, capsys):
    import hashlib
    digest = hashlib.sha256()
    depth = SWEEP_DEPTHS.get(field, 2)
    for family in Family:
        assert main([command, "--family", family.value, "--field", field,
                     "--i=-1..2", "--j=-1..2", "--depth", str(depth), "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SWEEP_DIGESTS[command, field]


def test_rank1_command(capsys):
    assert main(["rank1", "--field", "p=3", "--b", "0", "--i", "-5"]) == 0
    assert main(["rank1", "--field", "p=3", "--b", "1", "--i", "-1"]) == 1
    capsys.readouterr()
    assert main(["rank1", "--field", "p=3", "--b", "T", "--i", "0"]) == 0
    assert "order: yes" in capsys.readouterr().out


def test_at_file_indirection(tmp_path, capsys):
    f = tmp_path / "theta.txt"
    f.write_text(WORKED_THETA, encoding="utf-8")
    code = main(["check", "--field", "p=2", "--B", WORKED_B, "--theta", f"@{f}"])
    assert code == 0
    assert main(["check", "--field", "p=2", "--B", WORKED_B,
                 "--theta", "@/nonexistent/file"]) == 2
    capsys.readouterr()
    # MAX_INPUT_CHARS characters are read, blanks included; one more is refused
    f.write_text("[1" + " " * (MAX_INPUT_CHARS - 3) + "]", encoding="utf-8")
    assert main(["present", "--field", "p=2", "--A", f"@{f}"]) == 0
    f.write_text("[1" + " " * (MAX_INPUT_CHARS - 2) + "]", encoding="utf-8")
    assert main(["present", "--field", "p=2", "--A", f"@{f}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {str(f)!r} holds more than MAX_INPUT_CHARS = "
                            f"{MAX_INPUT_CHARS} characters\n")


def test_usage_errors_exit_2(capsys):
    assert main(["check", "--field", "p=2"]) == 2          # missing required flags
    assert main(["bogus"]) == 2
    assert main(["enumerate", "--family", "nope", "--field", "p=2",
                 "--i", "0..1", "--j", "0..1"]) == 2
    assert main(["enumerate", "--family", "alpha_p2", "--field", "p=2",
                 "--i", "3..1", "--j", "0..1"]) == 2       # empty range
    capsys.readouterr()


def test_rank1_tags_are_not_presets(capsys):
    """The rank-p tags are no family: one stderr line lists the five presets."""
    for tag in ("rank1_local", "rank1_separable"):
        assert main(["enumerate", "--family", tag, "--field", "p=2",
                     "--i", "0", "--j", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str([f.value for f in Family]) in err, err


def test_parse_failures_never_exit_0_or_1(capsys):
    for argv in (
        ["check", "--field", "p=2", "--B", "[1,0;0]", "--theta", "[1,0;0,1]"],
        ["fibre", "--field", "p=4", "--A", "[1]"],
        ["rank1", "--field", "p=2", "--b", "T+", "--i", "0"],
    ):
        assert main(argv) == 2
    capsys.readouterr()


def test_module_entry_point_is_quiet():
    # README example through `python -m hopforders.cli`: no runpy warning
    import hopforders
    env = {"PYTHONPATH": str(Path(hopforders.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run(
        [sys.executable, "-m", "hopforders.cli", "check", "--field", "p=2",
         "--B", WORKED_B, "--theta", WORKED_THETA],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "integral: yes" in proc.stdout


@pytest.mark.parametrize("module", ["hopforders", "hopforders.cli"])
def test_closed_stdout_exits_2_without_a_traceback(module):
    """`enumerate ... | head -1`: the reader closes stdout after one line, and
    the entry point exits 2 with nothing on stderr."""
    import hopforders
    env = {"PYTHONPATH": str(Path(hopforders.__file__).parents[1]), "PATH": ""}
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "enumerate", "--family", "alpha_p_n", "--field", "p=2",
         "--i", "0..3", "--j", "0..3", "--depth", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"family=alpha_p_n p=2 i=0 j=0 ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


def test_non_sweep_commands_never_load_numpy():
    """The sweep code loads with the first sweep, and nothing loads numpy: the
    README examples of every other command, and two over F_4 and F_9, whose
    code arithmetic the sweeps share, run in a fresh interpreter without
    importing either."""
    import hopforders
    script = (
        "import sys\n"
        "from hopforders.cli import main\n"
        "for argv in ARGVS:\n"
        "    main(argv)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert 'hopforders._walk' not in sys.modules, 'the sweep code was imported'\n"
    ).replace("ARGVS", repr([
        ["check", "--field", "p=2", "--B", WORKED_B, "--theta", WORKED_THETA],
        ["verify", "--field", "p=2", "--theta", "[T,0;1,T]", "--A", "[0,0;0,0]",
         "--B", "[0,0;0,0]"],
        ["normalize", "--field", "p=3", "--theta", "[0,T;1,0]"],
        ["same-order", "--field", "p=2", "--theta", "[T,0;T^2,T^2]",
         "--theta2", "[T,0;0,T^2]"],
        ["fibre", "--field", "p=2", "--A", "[1,0;0,0]"],
        ["present", "--field", "p=3", "--A", "[1,0;0,1]"],
        ["rank1", "--field", "p=3", "--b", "T", "--i", "0"],
        ["normalize", "--field", "p=2;k=2;mod=a^2+a+1", "--theta", "[a,T;1,a*T]"],
        ["same-order", "--field", "p=3;k=2;mod=a^2+1", "--theta", "[T,0;a*T^2,T^2]",
         "--theta2", "[a*T,0;(1+a)/(1+T),2*T^2]"],
    ]))
    env = {"PYTHONPATH": str(Path(hopforders.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_resource_limits_exit_2(capsys):
    for argv, limit in (
        (["check", "--field", "p=1000000000000000003", "--B", "[0]", "--theta", "[1]"], "MAX_Q"),
        (["fibre", "--field", "p=2;k=40;mod=a^40+a^5+a^4+a^3+1", "--A", "[1]"], "MAX_Q"),
        (["enumerate", "--family", "alpha_p2", "--field", "p=5", "--i", "0", "--j", "0"],
         "MAX_SWEEP_POINTS = 16777216; pass a smaller depth or ranges (--depth, --i, --j)"),
        (["oracle-check", "--family", "mono_p2", "--field", "p=2", "--i", "0", "--j", "0",
          "--depth", "25"],
         "MAX_SWEEP_POINTS = 16777216; pass a smaller depth or ranges (--depth, --i, --j)"),
        (["enumerate", "--family", "alpha_p2", "--field", "p=2", "--i", "0..1000000000",
          "--j", "0..0", "--depth", "1"], "MAX_SWEEP_POINTS"),
        (["enumerate", "--family", "alpha_p2", "--field", "p=2", "--i", "1000000000",
          "--j", "0", "--depth", "1"], "MAX_DEGREE"),
        (["enumerate", "--family", "alpha_p2", "--field", "p=2", "--i=-170..170",
          "--j=-170..170", "--depth", "1"], "MAX_SWEEP_CELLS"),
        (["check", "--field", "p=65521", "--B", "[1+T,0;0,1]",
          "--theta", "[1+T^512,0;1,T^512]"], "MAX_TWIST_DEGREE"),
        (["check", "--field", "p=65521", "--B", "[1]", "--theta", "[T^512]"],
         "MAX_TWIST_DEGREE"),
        (["check", "--field", "p=2", "--B", "[1]", "--theta", "@/dev/zero"],
         "'/dev/zero' holds more than MAX_INPUT_CHARS = 1048576 characters"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert limit in captured.err


def test_record_limit_exits_2(capsys):
    """Four F_4 cells of 65536 orders each: the sweep stops at the second
    cell, before the command builds an order or a fibre per record."""
    assert MAX_RECORDS == 2 ** 16
    assert main(["enumerate", "--json", "--family", "alpha_p_n",
                 "--field", "p=2;k=2;mod=a^2+a+1", "--i", "0..1", "--j", "0..1",
                 "--depth", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_RECORDS = 65536" in captured.err



def test_sweeps_run_without_numpy():
    """Both sweeps succeed in a fresh interpreter where numpy cannot be imported."""
    import hopforders
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from hopforders.cli import main\n"
        "for command in (['enumerate', '--json'], ['oracle-check', '--json'], ['oracle-check']):\n"
        "    assert main(command + ['--family', 'mono_p2', '--field', 'p=3;k=2;mod=a^2+1',\n"
        "                           '--i', '0..1', '--j', '0..1', '--depth', '3']) == 0\n"
    )
    env = {"PYTHONPATH": str(Path(hopforders.__file__).parents[1]), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


SWEEP_ARGV = ["enumerate", "--family", "mono_p2", "--field", "p=2", "--i", "0", "--j", "0"]


@pytest.mark.parametrize("argv, message", [
    (["rank1", "--field", "p=3", "--b", "T", "--i", "1_0"], "argument --i: bad integer '1_0'"),
    (SWEEP_ARGV[:6] + ["0..1_0"] + SWEEP_ARGV[7:], "bad range '0..1_0' (use lo..hi)"),
    (SWEEP_ARGV + ["--depth", " 2"], "argument --depth: bad integer ' 2'"),
    (SWEEP_ARGV[:4] + ["p=1_1"] + SWEEP_ARGV[5:], "field spec: bad integer '1_1'"),
    (SWEEP_ARGV[:4] + ["p=3;k=+2;mod=a^2+1"] + SWEEP_ARGV[5:], "field spec: bad integer '+2'"),
    (["present", "--field", "p=2", "--A", f"[{'1' * 5000}]"],
     "entry (1,1): integer of 5000 digits is too long at position 0"),
    (["present", "--field", f"p={'1' * 5000}", "--A", "[1]"],
     "field spec: integer of 5000 digits is too long"),
])
def test_integers_outside_the_grammar_exit_2(capsys, argv, message):
    """Every integer on the command line is read by the element grammar's
    number rule: no '_', '+' or blanks, and a digit run too long for int() is
    a parse error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err

def test_rank1_exponent_limit_exit_2(capsys):
    assert main(["rank1", "--field", "p=2", "--b", "T", "--i", str(MAX_DEGREE + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DEGREE" in captured.err


@pytest.mark.parametrize("command", ["oracle-check", "enumerate"])
@pytest.mark.parametrize("row", [1, 0])
def test_batch_mismatch_exits_3(capsys, monkeypatch, command, row):
    """A walk verdict that the object-level oracle contradicts is an
    internal error: one line on stderr, exit 3, no traceback.  Row 0 is the
    T^j record, which every cell cross-checks."""
    from hopforders import _walk
    walk = _walk.cylinders

    def flipped(B, *args):
        # flip the oracle verdict of the cylinder that holds the row
        return [(k, base, orc != (row % B.spec.q ** k == base), prd)
                for k, base, orc, prd in walk(B, *args)]

    monkeypatch.setattr(_walk, "cylinders", flipped)
    code = main([command, "--family", "alpha_p2", "--field", "p=2",
                 "--i", "0", "--j", "0", "--depth", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: batch/object mismatch")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_enumerate_of_an_unsampled_walk_fault_exits_3(capsys, monkeypatch):
    """enumerate re-runs order_from_theta on every listed record, so a row
    the walk wrongly accepts but no spot check re-decided ends in the same
    internal error, exit 3, not in a traceback."""
    from hopforders import _walk
    from hopforders.families import ENUM_SPOT_CHECKS, _sample_rows, family_matrix
    walk = _walk.cylinders
    depth, q = 6, 2
    n = q ** depth
    verdict = {}
    for k, base, orc, _ in walk(family_matrix(Family.ALPHA_P2, F2), 0, 0, depth, None):
        verdict.update(dict.fromkeys(range(base, n, q ** k), orc))
    sampled = {0, *_sample_rows(n, ENUM_SPOT_CHECKS, ("alpha_p2", 2, 0, 0, depth, "enum"))}
    row = next(r for r in range(n) if r not in sampled and not verdict[r])

    def flipped(B, *args):
        # one cylinder per row, the chosen row's oracle verdict flipped
        return [(depth, r, orc != (r == row), prd) for k, base, orc, prd in walk(B, *args)
                for r in range(base, n, q ** k)]

    monkeypatch.setattr(_walk, "cylinders", flipped)
    code = main(["enumerate", "--family", "alpha_p2", "--field", "p=2",
                 "--i", "0", "--j", "0", "--depth", str(depth), "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: batch/object mismatch")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


HELP = {
    "same-order": """\
usage: hopforders same-order [-h] --field FIELD --theta THETA --theta2 THETA2

options:
  -h, --help       show this help message and exit
  --field FIELD
  --theta THETA
  --theta2 THETA2
""",
    "oracle-check": """\
usage: hopforders oracle-check [-h] --family FAMILY --field FIELD --i I --j J
                               [--depth DEPTH] [--json]

options:
  -h, --help       show this help message and exit
  --family FAMILY
  --field FIELD
  --i I
  --j J
  --depth DEPTH
  --json
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_subcommand_help_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == HELP[command]
