"""End-to-end tests of the `sperner` command line front end.

Plain-text outputs are frozen as exact strings; --csv outputs are compared
against the library values they must reproduce digit for digit.
"""

import pytest

from spernerlib.bigcomb import fixed_ratio
from spernerlib.cli import main
from spernerlib.poset_core import chain_poset
from spernerlib.sperner import sp_bounded
from spernerlib.sperner_estimates import lower_w, upper_w


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- point queries ---------------------------------------------------------

def test_sp_plain_outputs(capsys):
    cases = {
        ("sp", "v", "6"): "7 (route: V-bracket, collapsed)\n",
        ("sp", "w", "10"): "66..70 (route: W-bracket)\n",
        ("sp", "chain:4", "17"): "1 716 (route: bounded-formula)\n",
        ("sp", "chain:4", "18"): "3 432 (route: bounded-formula)\n",
    }
    for argv, expected in cases.items():
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == expected, argv


def test_sp_csv(capsys):
    code, out, _ = run(capsys, "sp", "w", "10", "--csv")
    assert code == 0 and out == "66,70,W-bracket\n"
    code, out, _ = run(capsys, "sp", "antichain:2", "5", "--csv")
    assert code == 0 and out == "3,10,general-bracket\n"
    code, out, _ = run(capsys, "sp", "v", "6", "--csv")
    assert code == 0 and out == "7,7,V-bracket,collapsed\n"


def test_asp_outputs(capsys):
    code, out, _ = run(capsys, "asp", "w", "2")
    assert code == 0 and out == "4..5 (route: W-bracket)\n"
    code, out, _ = run(capsys, "asp", "v", "3e606")
    assert code == 0 and out == "2 023 (route: V-bracket, collapsed)\n"
    code, out, _ = run(capsys, "asp", "chain:4", "2022")
    assert code == 0 and out == "18 (route: bounded-formula)\n"
    code, out, _ = run(capsys, "asp", "v", "3e606", "--csv")
    assert out == "2023,2023,V-bracket,collapsed\n"


def test_dim_outputs(capsys):
    code, out, _ = run(capsys, "dim", "w")
    assert code == 0 and out == "3\nembedding: {};{1};{2};{3}\n"
    code, out, _ = run(capsys, "dim", "v")
    assert code == 0 and out == "2\nembedding: {};{1};{2}\n"


# --- gmin ------------------------------------------------------------------

def test_gmin_power_outputs(capsys):
    cases = {
        ("gmin", "w", "2"): "5 (route: W-bracket+oracle)\n",
        ("gmin", "dnw", "2"): "5 (route: W-bracket+oracle)\n",
        ("gmin", "chain:4", "2023"): "18 (route: bounded-formula)\n",
        ("gmin", "power:dnv:2023"): "15 (route: V-bracket, collapsed)\n",
    }
    for argv, expected in cases.items():
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == expected, argv


def test_gmin_bruteforce_outputs(capsys):
    code, out, _ = run(capsys, "gmin", "v")
    assert code == 0 and out == "3 (generators: {};{1,2};{1,3})\n"
    code, out, _ = run(capsys, "gmin", "chain:2")
    assert code == 0 and out == "4 (generators: {};{1};{1,2};{1,2,3})\n"


def test_gmin_power_spec_conflicts(capsys):
    code, _, err = run(capsys, "gmin", "power:dnv:2023", "7")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "gmin", "power:dnv")
    assert code == 2 and "power" in err


def test_gmin_bruteforce_cap_flag(capsys):
    code, _, err = run(capsys, "gmin", "dnw", "--cap", "5")
    assert code == 3 and err.startswith("error:")


# --- witness and oracle ------------------------------------------------------

def test_witness_output_and_dump(capsys, tmp_path):
    code, out, _ = run(capsys, "witness", "w", "8")
    assert code == 0
    assert out == "copies: 17\ncertified: true (full)\n"
    path = tmp_path / "fam.txt"
    code, out, _ = run(capsys, "witness", "v", "2", "--dump", str(path))
    assert code == 0
    assert out == f"copies: 1\ndump written: {path}\ncertified: true (full)\n"
    assert path.read_text() == "{};{1};{2}\n"


def test_witness_bounded_route(capsys):
    # not V or W shaped, so the generic constructor runs
    code, out, _ = run(capsys, "witness", "chain:2", "6")
    assert code == 0
    assert out.startswith("copies: 6\n")
    assert "certified: true (full)" in out


def test_oracle_sp_output(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "sp", "w", "5")
    assert code == 0 and out == "2\n"
    path = tmp_path / "oracle.txt"
    code, out, _ = run(capsys, "oracle", "sp", "w", "5", "--dump", str(path))
    assert code == 0
    assert out == f"2\ndump written: {path} (certified, 2 copies)\n"
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(len(line.split(";")) == 4 for line in lines)


def test_oracle_perm_check(capsys):
    code, out, _ = run(capsys, "oracle", "perm-check", "5")
    assert code == 0
    assert out == "ok: 32 subsets checked (both enumerations match the closed form)\n"
    code, _, err = run(capsys, "oracle", "perm-check", "8")
    assert code == 2 and err.startswith("error:")


def test_oracle_load_check(capsys):
    code, out, _ = run(capsys, "oracle", "load-check", "12")
    assert code == 0
    assert out == ("ok: minimum load 1900800 at bottom size 5; "
                   "floor(n!/load) = 252 matches the upper estimate\n")
    code, _, err = run(capsys, "oracle", "load-check", "2")
    assert code == 2 and err.startswith("error:")


# --- tables -------------------------------------------------------------------

def test_table_t1_csv_matches_library(capsys):
    code, out, _ = run(capsys, "table", "t1", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lower,upper"
    assert len(lines) == 1 + 28
    for line in lines[1:]:
        n, lo, hi = line.split(",")
        assert lo == str(lower_w(int(n))) and hi == str(upper_w(int(n)))
    assert lines[1] == "3,1,1"
    assert lines[14].startswith("16,3265,")


def test_table_adjoints_csv(capsys):
    code, out, _ = run(capsys, "table", "adjoints", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,lo,hi"
    los = [int(line.split(",")[1]) for line in lines[1:]]
    his = [int(line.split(",")[2]) for line in lines[1:]]
    assert los == [3, 4, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8]
    assert his == [3, 5, 6, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 8]


def test_table_chain4_plain_and_csv(capsys):
    code, out, _ = run(capsys, "table", "chain4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].lstrip().startswith("17") and lines[1].endswith("1 716")
    assert lines[2].endswith("3 432")
    assert lines[3].lstrip().startswith("2 024") and lines[3].endswith("2.136987e606")
    assert lines[4].endswith("4.271860e606")
    assert lines[5].endswith("8.543720e606")
    code, out, _ = run(capsys, "table", "chain4", "--csv")
    lines = out.splitlines()
    pattern = chain_poset(4)
    for line, n in zip(lines[1:], (17, 18, 2024, 2025, 2026)):
        assert line == f"{n},{sp_bounded(pattern, n).value}"


def test_table_w_big_csv_exact_digits(capsys):
    code, out, _ = run(capsys, "table", "w-big", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lower,upper,ratio"
    for line, n in zip(lines[1:], (2022, 2023, 2024)):
        lo, hi = lower_w(n), upper_w(n)
        assert line == f"{n},{lo},{hi},{fixed_ratio(hi, lo, 9)}"
    assert lines[1].startswith("2022,2136194194")
    assert lines[1].endswith(",1.000371103")


def test_table_v_tables(capsys):
    code, out, _ = run(capsys, "table", "v-small", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "2,1,1"
    assert lines[-1] == "13,610,632"
    code, out, _ = run(capsys, "table", "v-big", "--csv")
    lines = out.splitlines()
    assert lines[1] == f"14,1163,1201,{fixed_ratio(1201, 1163, 9)}"
    assert lines[2] == f"15,2269,2340,{fixed_ratio(2340, 2269, 9)}"
    assert lines[3].endswith(",1.000219853")
    assert lines[4].endswith(",1.000219780")


def test_table_gmin(capsys):
    code, out, _ = run(capsys, "table", "gmin", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lattice,k,gmin"
    values = [line.split(",") for line in lines[1:]]
    assert values == [
        ["chain4", "2022", "18"], ["chain4", "2023", "18"],
        ["chain4", "3e606", "2025"], ["chain4", "5e606", "2026"],
        ["dn-v", "2022", "15"], ["dn-v", "2023", "15"],
        ["dn-v", "3e606", "2023"], ["dn-v", "5e606", "2023"],
        ["dn-w", "2022", "16"], ["dn-w", "2023", "16"],
        ["dn-w", "3e606", "2023"], ["dn-w", "5e606", "2024"],
    ]


def test_table_unknown_id(capsys):
    code, _, err = run(capsys, "table", "nosuch")
    assert code == 2 and "unknown table" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "table", "w-big")
    second = run(capsys, "table", "w-big")
    assert first == second


# --- inputs and exit codes -----------------------------------------------------

def test_pattern_from_file(capsys, tmp_path):
    path = tmp_path / "vee.poset"
    path.write_text("poset 3\ncover 0 1\ncover 0 2\n")
    code, out, _ = run(capsys, "sp", str(path), "6")
    assert code == 0 and out == "7 (route: V-bracket, collapsed)\n"


def test_malformed_poset_file(capsys, tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text("poset 3\ncover 0 9\n")
    code, _, err = run(capsys, "sp", str(path), "6")
    assert code == 2 and err.startswith("error:")


def test_unknown_pattern_exit_code(capsys):
    code, _, err = run(capsys, "sp", "nosuchpattern", "5")
    assert code == 2 and "unknown pattern" in err


def test_resource_limit_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "sp", "w", "11")
    assert code == 3 and err.startswith("error:")


def test_estimate_cap_exit_code(capsys):
    # the V/W estimates stop at n = 2^16 instead of running for minutes
    for argv in (("sp", "w", "10000000"), ("asp", "w", "1e20000"),
                 ("gmin", "dnv", "1e20000")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "estimate cap" in err, argv


def test_hypothesis_exit_code(capsys):
    code, _, err = run(capsys, "gmin", "v", "1")
    assert code == 4 and err.startswith("error:")


def test_bad_count_exit_code(capsys):
    # 2.5e3 is fine (exactly 2500); 2.5e0 is not an integer
    code, _, err = run(capsys, "sp", "w", "2.5e0")
    assert code == 2 and err.startswith("error:")


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sp"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
