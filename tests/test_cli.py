import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from finform import (
    FormationLawViolated,
    Group,
    GroupFileError,
    OrderCapExceeded,
    dihedral,
    elem_abelian,
    from_cayley_table,
    from_permutation_gens,
    is_isomorphic,
    parse_group_text,
    symmetric,
)
from finform import verify
from finform.cli import main, parse_selector
from finform.files import dump_group_table, load_group_file, parse_cycles
from finform.groups import DEFAULT_ORDER_CAP

import oracles
import references

GROUPS = Path(__file__).resolve().parent.parent / "groups"
FROB20 = str(GROUPS / "frobenius20.grp")

A4_IN_S4 = [0, 3, 4, 5, 11, 12, 13, 14, 15, 21, 22, 23]

SECTION3_CLAIMS = [
    "section3-supersoluble-kegel-chains",
    "section3-supersoluble-formation-chains",
    "section3-sigma-chains",
    "section3-sigma-kegel-chains",
    "section3-sigma-chain-agreement",
]


class TestSelectors:
    def test_families(self):
        assert parse_selector("cyclic:6").order == 6
        assert parse_selector("dihedral:4").order == 8
        assert parse_selector("sym:4").order == 24
        assert parse_selector("alt:4").order == 12
        assert parse_selector("quaternion:8").order == 8
        assert parse_selector("elab:2^3").order == 8
        assert parse_selector("trivial").order == 1

    def test_product(self):
        g = parse_selector("prod(cyclic:2,prod(cyclic:3,cyclic:5))")
        assert g.order == 30

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            parse_selector("frobnicate:9")


class TestGroupFiles:
    def test_cycle_notation(self):
        assert parse_cycles("(0 1 2)(3 4)", 5) == {0: 1, 1: 2, 2: 0, 3: 4, 4: 3}
        assert parse_cycles("()", 3) == {}
        assert parse_cycles("(5)(0 7)", 10**9) == {5: 5, 0: 7, 7: 0}
        with pytest.raises(ValueError):
            parse_cycles("(0 1)(1 2)", 3)

    def test_perm_file(self):
        g = parse_group_text("# comment\nperm 3\n(0 1)\n(0 1 2)\n")
        assert g.order == 6

    def test_table_file_round_trip(self):
        s3 = symmetric(3)
        text = dump_group_table(s3)
        back = parse_group_text(text)
        assert is_isomorphic(back, s3) is not None

    @pytest.mark.parametrize("text", [
        "perm 3\n(0 1)\n(0 1 2)\n",
        "perm 9\n(2 7)(4)\n(7 5 2)\n()\n",
        "perm 12\n(11 0 3)(6 8)\n(3 8)\n",
        "perm 40\n(30 31 32 33)\n(30 32)\n(10 20)\n",
        "perm 5\n",
        "perm 4\n()\n",
    ], ids=["s3", "fixed-points", "unordered-points", "gaps", "no-generators", "identity"])
    def test_perm_file_table_over_every_point(self, text):
        # closing over the written points gives the table that closing the
        # full-degree permutations gives
        head, *lines = text.splitlines()
        degree = int(head.split()[1])
        gens = []
        for ln in lines:
            images = parse_cycles(ln, degree)
            gens.append(tuple(images.get(p, p) for p in range(degree)))
        full = from_permutation_gens(degree, gens)
        assert np.array_equal(parse_group_text(text).table, full.table)

    def test_perm_degree_costs_no_memory(self, tmp_path):
        # C2 on 10^8 declared points loads in a process limited to 1 GiB of
        # address space: only the points the cycles name are stored
        path = tmp_path / "c2.grp"
        path.write_text("perm 100000000\n(0 1)\n")
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from finform.files import load_group_file; print(load_group_file(sys.argv[1]).order)")
        env = dict(os.environ, PYTHONPATH=str(GROUPS.parent / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout.strip()) == (0, "2"), proc.stderr[-500:]

    def test_long_orbit_exceeds_order_cap_before_closure(self, tmp_path, capsys):
        n = 20000
        cycle = tuple(range(1, n)) + (0,)
        flips = [tuple(-i % n for i in range(n)), tuple((1 - i) % n for i in range(n))]
        for gens in ([cycle], flips):  # C_20000, and a dihedral group of order 40000
            with pytest.raises(OrderCapExceeded, match="orbit of length 20000 exceeds order cap 512"):
                from_permutation_gens(n, gens)
        # |G| is at least its longest orbit, so a group at the cap still loads
        assert from_permutation_gens(8, [cycle[:7] + (0,)], order_cap=8).order == 8
        path = tmp_path / "long.grp"
        path.write_text(f"perm {n}\n(" + " ".join(map(str, range(n))) + ")\n")
        assert main(["group", "show", f"file:{path}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "orbit of length 20000" in err and path.name in err

    @pytest.mark.parametrize("G", [dihedral(256), elem_abelian(2, 9)], ids=lambda G: G.label)
    def test_table_file_at_the_order_cap_reloads(self, G, tmp_path):
        assert G.order == DEFAULT_ORDER_CAP
        path = tmp_path / "cap.grp"
        path.write_text(dump_group_table(G))
        assert np.array_equal(load_group_file(path).table, G.table)

    def test_non_associative_table_of_order_500_names_its_witness(self, tmp_path, capsys):
        # the 5-element loop x D100: the first failing triple sits in row 100
        table = references.pair_product_table(oracles.LOOP5, dihedral(50).table).tolist()
        a, b, c = oracles.first_associativity_failure(table)
        path = tmp_path / "loop-x-d100.grp"
        path.write_text("table 500\n" + "".join(" ".join(map(str, row)) + "\n" for row in table))
        assert main(["group", "show", f"file:{path}"]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})\n")

    def test_error_carries_line(self):
        from finform import GroupFileError

        with pytest.raises(GroupFileError) as err:
            parse_group_text("perm 3\n(0 9)\n")
        assert err.value.line == 2


_INT = st.one_of(
    st.integers(0, 6), st.integers(-(2**70), -1), st.integers(2**63, 2**70)
).map(str)
_TOKEN = st.one_of(
    _INT,
    st.sampled_from(["x", "1.5", "#", "--", "0x1"]),
    st.lists(st.integers(-2, 7), max_size=4).map(lambda ps: "(" + " ".join(map(str, ps)) + ")"),
)


@st.composite
def group_file_text(draw):
    """A header of size 0-6, then rows that are square (size x size) half the time."""
    size = draw(st.integers(0, 6))
    token = draw(st.sampled_from([_INT, _TOKEN]))
    square = draw(st.booleans())
    row = st.lists(token, min_size=size, max_size=size) if square else st.lists(token, max_size=7)
    rows = draw(st.lists(row, min_size=size, max_size=size) if square else st.lists(row, max_size=7))
    head = f"{draw(st.sampled_from(['table', 'perm']))} {size}"
    return "\n".join([head, *map(" ".join, rows)]) + "\n"


@settings(max_examples=200, deadline=None)
@given(group_file_text())
def test_group_file_is_group_or_file_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.grp"
    path.write_text(text)
    try:
        assert isinstance(load_group_file(path), Group)
    except GroupFileError as e:
        assert str(path) in str(e)


class TestCommands:
    def test_group_show_trivial(self, capsys):
        assert main(["group", "show", "trivial"]) == 0
        out = capsys.readouterr().out
        assert "order: 1" in out
        assert "nilpotent: True" in out

    @pytest.mark.parametrize("selector, nilpotent, supersoluble, soluble", [
        ("sym:3", False, True, True),
        ("sym:4", False, False, True),
    ])
    def test_group_show_builtin_formation_flags(self, selector, nilpotent, supersoluble,
                                                soluble, capsys):
        assert main(["group", "show", selector, "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        flags = (data["nilpotent"], data["supersoluble"], data["soluble"])
        assert flags == (nilpotent, supersoluble, soluble)

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(GROUPS.parent / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "finform", "group", "show", "cyclic:2"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert "order: 2" in proc.stdout

    def test_group_show_structured_round_trip(self, capsys):
        assert main(["group", "show", "sym:3", "--cayley", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 6
        assert data["chief_series_orders"] == [1, 3, 6]
        back = from_cayley_table(data["cayley"])
        assert is_isomorphic(back, symmetric(3)) is not None

    def test_group_show_sym4_series(self, capsys):
        assert main(["group", "show", "sym:4", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["chief_series_orders"] == [1, 4, 12, 24]

    def test_residual_command(self, capsys):
        assert main(["residual", "sym:3", "--formation", "nilpotent"]) == 0
        out = capsys.readouterr().out
        assert "residual_order: 3" in out

    def test_hypercentre_command(self, capsys):
        assert main(["hypercentre", "sym:3", "--formation", "supersoluble"]) == 0
        out = capsys.readouterr().out
        assert "hypercentre_order: 6" in out

    @pytest.mark.parametrize("extra, name, residual, hypercentre", [
        (["nilpotent"], "nilpotent", A4_IN_S4, [0]),
        (["supersoluble"], "supersoluble", [0, 5, 12, 23], [0]),
        (["soluble"], "soluble", [0], list(range(24))),
        (["sigma-nilpotent", "--sigma", "[[2,3]]"], "sigma-nilpotent[[2,3]]",
         [0], list(range(24))),
        (["sigma-nilpotent", "--sigma", "[[2],[3]]"], "sigma-nilpotent[[2],[3]]",
         A4_IN_S4, [0]),
    ], ids=["nilpotent", "supersoluble", "soluble", "sigma-one-block", "sigma-singletons"])
    def test_residual_and_hypercentre_of_s4_are_pinned(self, extra, name, residual,
                                                        hypercentre, capsys):
        for command, members in (("residual", residual), ("hypercentre", hypercentre)):
            argv = [command, "sym:4", "--formation", *extra, "--format", "structured"]
            assert main(argv) == 0
            want = {"formation": name, "group": "S4", f"{command}_order": len(members),
                    f"{command}_members": members}
            assert capsys.readouterr().out == (
                json.dumps(want, sort_keys=True, separators=(",", ":")) + "\n")

    @pytest.mark.parametrize("extra, order", [
        (["--formation", "nilpotent"], 1),
        (["--formation", "supersoluble"], 1),
        (["--formation", "soluble"], 1),
        (["--formation", "sigma-nilpotent", "--sigma", "[[2,3,5]]"], 120),
    ], ids=["nilpotent", "supersoluble", "soluble", "sigma-nilpotent"])
    def test_hypercentre_of_s5_file(self, extra, order, tmp_path, capsys):
        # S5's chief factor A5 has a section product of order 7200, over the
        # section-product cap; the hypercentre walk never builds it
        path = tmp_path / "s5.grp"
        path.write_text("perm 5\n(0 1 2 3 4)\n(0 1)\n")
        assert main(["hypercentre", f"file:{path}", *extra]) == 0
        assert f"hypercentre_order: {order}\n" in capsys.readouterr().out

    def test_subnormal_command_with_sylow(self, capsys):
        # generator pair for an order-8 Sylow subgroup of sym:4 in the
        # printed element indexing
        from finform import generated_subgroup

        s4 = parse_selector("sym:4")
        a, b = next(
            (a, b)
            for a in range(24)
            for b in range(24)
            if generated_subgroup(s4, [a, b]).order == 8
        )
        code = main(
            [
                "subnormal",
                "sym:4",
                "--gens",
                f"{a},{b}",
                "--formation",
                "supersoluble",
                "--kind",
                "kf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "POSITIVE" in out
        assert "8 --f-step--> 24" in out

    def test_subnormal_negative(self, capsys):
        assert (
            main(["subnormal", "sym:3", "--gens", "1", "--formation", "nilpotent"])
            == 0
        )
        assert "NEGATIVE" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, want", [
        (["--gens", "5", "--kind", "plain"],
         {"kind": "plain", "verdict": "POSITIVE", "chain_orders": [2, 4, 24],
          "step_kinds": ["normal-step", "normal-step"]}),
        (["--gens", "1", "--kind", "plain"], {"kind": "plain", "verdict": "NEGATIVE"}),
        (["--gens", "1", "--kind", "sigma", "--sigma", "[[2,3]]"],
         {"kind": "sigma", "verdict": "POSITIVE", "chain_orders": [2, 24],
          "step_kinds": ["f-step"]}),
    ])
    def test_subnormal_plain_and_sigma_kinds(self, extra, want, capsys):
        assert main(["subnormal", "sym:4", *extra, "--format", "structured"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["group"], got["subgroup_order"]) == ("S4", 2)
        assert {key: got.get(key) for key in want} == want
        assert ("chain" in got) == (want["verdict"] == "POSITIVE")

    def test_subnormal_sigma_kind_needs_sigma(self, capsys):
        assert main(["subnormal", "sym:4", "--gens", "1", "--kind", "sigma"]) == 3
        assert capsys.readouterr().err == "error: --kind sigma requires --sigma\n"

    def test_gens_out_of_range_is_config_error(self, capsys):
        assert main(["subnormal", "sym:3", "--gens", "99"]) == 3

    def test_verify_trivial_catalog(self, capsys):
        assert main(["verify", "all", "--max-order", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_verify_theorem_b(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "theorem-b",
                    "--formation",
                    "nilpotent",
                    "--max-order",
                    "12",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_sigma_requires_partition(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "theorem-b",
                    "--formation",
                    "sigma-nilpotent",
                    "--max-order",
                    "6",
                ]
            )
            == 3
        )

    def test_verify_report_names_its_sigma(self, capsys):
        args = ["verify", "theorem-b", "--formation", "sigma-nilpotent", "--sigma", "[[2,3]]",
                "--max-order", "8", "--format", "structured"]
        assert main(args) == 0
        assert '"sigma":"[[2,3]]"' in capsys.readouterr().out

    @pytest.mark.parametrize("formation", ["bogus", "Sigma-Nilpotent"])
    def test_verify_resolves_formation_before_the_catalog(self, formation, monkeypatch,
                                                          capsys):
        import finform.cli

        def no_catalog(*args, **kwargs):
            raise AssertionError("catalog built before the formation was resolved")

        monkeypatch.setattr(finform.cli, "catalog_generate", no_catalog)
        assert main(["verify", "theorem-b", "--formation", formation]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_section3_with_sigma(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "section3",
                    "--sigma",
                    "[[2,3]]",
                    "--max-order",
                    "8",
                ]
            )
            == 0
        )

    def test_structured_verify_deterministic(self, capsys):
        args = [
            "verify",
            "theorem-b",
            "--formation",
            "supersoluble",
            "--max-order",
            "8",
            "--format",
            "structured",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_theorem_b_report_at_order_48_is_pinned(self, capsys):
        # reports stay byte-identical: a closure, or a walk built on the
        # closures, that alters a member set changes this digest
        assert main(["verify", "theorem-b", "--max-order", "48", "--format", "structured"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "7b331bc36f85809a646f98140330fa5ad5e4cc74dc28613243adf229e5848ff7"

    def test_lemma_report_at_order_24_is_pinned(self, capsys):
        # the lemma laws read per-group verdict tables; any item, verdict or
        # failure record they change moves this digest
        args = ["verify", "lemmas", "--max-order", "24", "--sigma", "[[2,3]]",
                "--format", "structured"]
        assert main(args) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "554e33cab2b17c9617d756ff16e405ac3d334445d7d39e3494265425ac741172"

    def test_verify_all_report_at_order_24_is_pinned(self, capsys):
        # the one pinned report that covers theorem-a, section3 and
        # schenkman: a chain search or hypercentre that alters a verdict,
        # or a report that names its formation or sigma otherwise, moves
        # this digest
        args = ["verify", "all", "--max-order", "24", "--sigma", "[[2,3]]",
                "--format", "structured"]
        assert main(args) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "e14751d745a7c938339e82cdc1a01571f7012b58dce53e4ec36c48c983341834"

    def test_verify_with_input_file(self, tmp_path, capsys):
        path = tmp_path / "extra.grp"
        path.write_text("perm 3\n(0 1 2)\n")
        code = main(
            [
                "verify",
                "theorem-b",
                "--formation",
                "nilpotent",
                "--max-order",
                "6",
                "--input",
                str(path),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["residual", "file:{missing}", "--formation", "nilpotent"],
            ["verify", "theorem-b", "--max-order", "6", "--input", "{missing}"],
            ["verify", "theorem-b", "--max-order", "6", "--input", "{not_latin}"],
            ["verify", "theorem-b", "--max-order", "6", "--order-cap", "8",
             "--input", "{frobenius20}"],
            ["group", "show", "file:{not_latin}"],
            ["verify", "theorem-b", "--max-order", "4", "--input", "{bad_header}"],
            ["group", "show", "file:{big_entry}"],
            ["verify", "theorem-b", "--max-order", "4", "--input", "{big_entry}"],
            ["group", "show", "file:{empty}"],
            ["verify", "theorem-b", "--max-order", "4", "--input", "{empty}"],
            ["group", "show", "file:{bad_size}"],
        ],
    )
    def test_missing_input_file_is_input_error(self, argv, tmp_path, capsys):
        files = {
            "missing": tmp_path / "absent.grp",
            "not_latin": tmp_path / "not-latin.grp",
            "frobenius20": GROUPS / "frobenius20.grp",
            "bad_header": tmp_path / "hdr.grp",
            "big_entry": tmp_path / "big.grp",
            "empty": tmp_path / "empty.grp",
            "bad_size": tmp_path / "size.grp",
        }
        files["not_latin"].write_text("table 3\n0 1 2\n1 2 0\n2 2 1\n")
        files["bad_header"].write_text("tabel 2\n0 1\n1 0\n")
        files["big_entry"].write_text("table 2\n0 1\n1 99999999999999999999\n")
        files["empty"].write_text("")
        files["bad_size"].write_text("table x\n")
        messages = {"empty": "empty group file", "bad_size": "line 1: bad size 'x'"}
        assert main([a.format(**files) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        named = [key for key in files if f"{{{key}}}" in " ".join(argv)]
        assert named and all(files[key].name in err for key in named)
        assert all(f"{files[key]}: {messages[key]}" in err
                   for key in named if key in messages)

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["group", "show", "cyclic:1000"], 3, "order 1000 exceeds cap 512"),
            (["residual", "cyclic:600", "--formation", "nilpotent"], 3,
             "order 600 exceeds cap 512"),
            (["group", "show", "sym:5", "--lattice-budget", "10"], 2,
             "lattice enumeration limited to order 10, group has 120"),
            (["subnormal", "sym:4", "--gens", "1", "--lattice-budget", "10"], 2,
             "lattice enumeration limited to order 10, group has 24"),
            (["hypercentre", "cyclic:6", "--formation", "sigma-nilpotent",
              "--sigma", "[[3.9,2]]"], 3, "sigma entry 3.9 is not an integer"),
            (["group", "show", "sym:3", "--lattice-budget", "0"], 3,
             "--lattice-budget must be positive"),
            (["subnormal", "sym:3", "--gens", "1", "--lattice-budget", "-5"], 3,
             "--lattice-budget must be positive"),
            (["subnormal", "sym:3", "--gens", "1", "--kind", "plain",
              "--formation", "bogus"], 3, "unknown formation 'bogus'"),
            (["subnormal", "sym:3", "--gens", "1", "--kind", "sigma", "--sigma", "[[2,3]]",
              "--formation", "bogus"], 3, "unknown formation 'bogus'"),
            (["verify", "theorem-b", "--lattice-budget", "0"], 3,
             "--lattice-budget must be positive"),
            (["verify", "theorem-b", "--budget", "0"], 3, "--budget must be positive"),
            (["verify", "theorem-b", "--max-order", "0"], 3, "--max-order must be positive"),
            (["verify", "theorem-b", "--max-order", "10", "--order-cap", "8"], 3,
             "max-order cannot exceed order-cap"),
            (["group", "show", "sym:3", "--order-cap", "0"], 3, "--order-cap must be positive"),
            (["group", "show", "cyclic:abc"], 3, "family argument 'abc' is not an integer"),
            (["group", "show", "elab:2^x"], 3, "family argument 'x' is not an integer"),
            (["group", "show", "prod(sym:3,sym:3,sym:3)"], 3, "bad product selector"),
            (["group", "show", "prod(cyclic:2,"], 3, "bad product selector"),
            (["group", "show", "prod(cyclic:2))(cyclic:3"], 3, "bad product selector"),
            (["group", "show", "cyclic:0"], 3, "cyclic:0: cyclic group order must be >= 1"),
            (["group", "show", "quaternion:12"], 3,
             "quaternion:12: quaternion order must be a power of two >= 8"),
            (["group", "show", "elab:2^0"], 3,
             "elab:2^0: need a prime p >= 2 and exponent k >= 1"),
            (["verify", "lemmas", "--max-order", "6", "--sigma", "[[],[2,3]]"], 3,
             "sigma class is empty"),
            (["group", "show", "sym3"], 3, "sym3: bad selector 'sym3'"),
            (["group", "show", "elab:2"], 3, "elab selector looks like elab:p^k"),
            (["subnormal", "sym:3", "--gens", "1,x"], 3, "bad generator list '1,x'"),
            (["hypercentre", "cyclic:6", "--formation", "sigma-nilpotent",
              "--sigma", "[[2,3]"], 3, "bad sigma partition '[[2,3]'"),
        ],
    )
    def test_caps_budgets_and_sigma_entries_exit_codes(self, argv, code, message, capsys):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert message in err
        # an error in the group selector itself names the selector
        bad = {"cyclic:1000", "cyclic:600", "cyclic:abc", "elab:2^x",
               "prod(sym:3,sym:3,sym:3)", "prod(cyclic:2,", "prod(cyclic:2))(cyclic:3",
               "cyclic:0", "quaternion:12", "elab:2^0", "sym3", "elab:2"}
        assert all(err.startswith(f"error: {sel}: ") for sel in bad.intersection(argv))

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("table 600\n", ["group", "show", "file:{path}"], "order 600 exceeds cap 512"),
            ("table 600\nx\n", ["group", "show", "file:{path}"], "order 600 exceeds cap 512"),
            ("table 600\n", ["verify", "theorem-b", "--max-order", "4", "--input", "{path}"],
             "order 600 exceeds cap 512"),
            ("table 200\n", ["group", "show", "file:{path}", "--order-cap", "100"],
             "order 200 exceeds cap 100"),
            ("table 600\n", ["group", "show", "file:{path}", "--order-cap", "600"],
             "line 1: expected 600 table rows, got 0"),
        ],
        ids=["header-only", "rows-unread", "verify-input", "cap-100", "cap-600"],
    )
    def test_table_header_over_the_order_cap_exits_before_the_rows(
            self, text, argv, message, tmp_path, capsys):
        path = tmp_path / "big.grp"
        path.write_text(text)
        assert main([arg.format(path=path) for arg in argv]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "nonsense"],
            ["verify", "theorem-b", "--max-order", "abc"],
            ["group", "show", "sym:3", "--no-such-flag"],
            ["residual", "sym:3"],
            ["residual", "sym:3", "--formation", "nilpotent", "--lattice-budget", "-5"],
            ["hypercentre", "sym:3", "--formation", "nilpotent", "--lattice-budget", "0"],
            ["group", "show", "--input", FROB20],
            ["residual", "--input", FROB20, "--formation", "nilpotent"],
            ["hypercentre", "--input", FROB20, "--formation", "nilpotent"],
            ["subnormal", "--input", FROB20, "--gens", "1"],
        ],
    )
    def test_usage_error_is_config_error(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: finform") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["verify", "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: finform verify")

    def test_lemmas_over_lattice_budget_is_budget_exit(self, capsys):
        argv = ["verify", "lemmas", "--max-order", "6", "--lattice-budget", "4",
                "--format", "structured"]
        assert main(argv) == 2
        data = json.loads(capsys.readouterr().out)
        for report in data["reports"]:
            assert report["verdict"] == "PASS"
            assert {s["group"] for s in report["skipped"]
                    if s["reason"] == "budget-exceeded"} == {"C5", "C6", "S3"}

    def test_internal_error_is_a_failure_exit_with_the_full_report(self, monkeypatch,
                                                                   capsys):
        argv = ["verify", "theorem-a", "--max-order", "6", "--format", "structured"]
        assert main(argv) == 0
        clean = json.loads(capsys.readouterr().out)["reports"]
        real = verify.residual

        def broken_on_s3(G, F):
            if G.order == 6 and not G.is_abelian():
                raise FormationLawViolated("planted on S3")
            return real(G, F)

        monkeypatch.setattr(verify, "residual", broken_on_s3)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert (data["verdict"], err) == ("FAIL", "")
        nilpotent, *others = data["reports"]
        [record] = nilpotent["failures"]
        assert (record["group"], record["reason"], record["detail"]) == (
            "S3", "internal-error", "FormationLawViolated: planted on S3"
        )
        assert record["cayley"] == symmetric(3).table.tolist()
        assert all(r["failures"] == [] for r in others)
        for got, want in zip(data["reports"], clean, strict=True):
            assert (got["checked"], got["asserted"], got["skipped"]) == (
                want["checked"], want["asserted"], want["skipped"]
            )

    @pytest.mark.parametrize(
        "claim, report_claims",
        [
            ("theorem-a", ["theorem-a"] * 3),
            ("theorem-b", ["theorem-b"] * 3),
            ("schenkman", ["schenkman"]),
            ("holomorph-bound", ["holomorph-bound"] * 3),
            ("section3", SECTION3_CLAIMS),
            ("lemmas", ["lemmas"] * 3),
            (
                "all",
                ["theorem-b"] * 3 + ["theorem-a"] * 3 + ["schenkman"]
                + ["holomorph-bound"] * 3 + SECTION3_CLAIMS + ["lemmas"] * 3,
            ),
        ],
    )
    def test_verify_every_claim(self, claim, report_claims, capsys):
        assert main(["verify", claim, "--max-order", "6", "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["claim"] for r in data["reports"]] == report_claims

    def test_shipped_sample_groups(self):
        from finform import center, load_group_file

        frob20 = load_group_file(GROUPS / "frobenius20.grp")
        frob21 = load_group_file(GROUPS / "frobenius21.grp")
        assert frob20.order == 20 and center(frob20).order == 1
        assert frob21.order == 21 and center(frob21).order == 1
