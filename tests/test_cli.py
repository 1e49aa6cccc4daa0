import hashlib
import json
import subprocess
import sys

import mpmath
import pytest

BASE = [sys.executable, "-m", "charcore"]
BIG_P = "100000000000000003"  # a prime past divisibility.PRIME_CAP


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, timeout=300
    )


class TestBasicCommands:
    def test_chi(self):
        res = run_cli("chi", "--lambda", "[2,2]", "--mu", "[4]")
        assert res.returncode == 0
        assert res.stdout == "0\n"

    def test_reduce(self):
        res = run_cli("reduce", "--mu", "[1,1,1,1,1,1,1,1]", "--p", "2", "--r", "2")
        assert res.returncode == 0
        assert res.stdout == "[4,4]\n"

    def test_core(self):
        res = run_cli("core", "--lambda", "[6,5,3,1,1,1]", "--t", "5")
        assert res.returncode == 0
        assert res.stdout == "[6,2,1,1,1,1]\n"

    def test_core_json(self):
        res = run_cli(
            "core", "--lambda", "[2,2]", "--t", "4", "--format", "json"
        )
        data = json.loads(res.stdout)
        assert data["is_core"] is True and data["core"] == "[2,2]"

    def test_core_past_the_largest_hook_returns_at_once(self, capsys):
        # no hook of [5,3,1] is longer than 7, so t = 10**12 needs no work
        from time import process_time

        from charcore import cli

        t = str(10**12)
        start = process_time()
        assert cli.main(["core", "--lambda", "[5,3,1]", "--t", t]) == 0
        assert capsys.readouterr().out == "[5,3,1]\n"
        argv = ["core", "--lambda", "[5,3,1]", "--t", t, "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "lambda": "[5,3,1]", "t": 10**12, "core": "[5,3,1]", "is_core": True
        }
        assert process_time() - start < 1

    def test_sample_deterministic(self):
        a = run_cli("sample", "--n", "30", "--seed", "11", "--count", "5")
        b = run_cli("sample", "--n", "30", "--seed", "11", "--count", "5")
        assert a.returncode == 0 and a.stdout == b.stdout
        lines = a.stdout.strip().split("\n")
        assert len(lines) == 5

    def test_table_csv_golden(self):
        res = run_cli("table", "3", "--format", "csv")
        assert res.stdout == (
            "partition,[3],[2,1],[1,1,1]\n"
            "[3],1,1,1\n"
            "[2,1],-1,0,2\n"
            "[1,1,1],1,-1,1\n"
        )

    def test_table_out_file(self, tmp_path):
        target = tmp_path / "table.json"
        res = run_cli("table", "4", "--format", "json", "--out", str(target))
        assert res.returncode == 0 and res.stdout == ""
        data = json.loads(target.read_text())
        assert len(data["rows"]) == 5


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        assert run_cli("chi", "--bogus", "x").returncode == 2

    def test_usage_error_bad_partition(self):
        res = run_cli("chi", "--lambda", "[1,2]", "--mu", "[3]")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "charcore: error: parts must be weakly decreasing, got (1, 2)\n"
        )

    def test_usage_error_nonprime(self):
        res = run_cli("reduce", "--mu", "[1,1,1,1]", "--p", "4", "--r", "1")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_usage_error_missing_seed(self):
        assert run_cli("sample", "--n", "5").returncode == 2

    def test_usage_error_missing_m(self):
        res = run_cli("verify", "lemma62", "--n", "6", "--p", "2", "--r", "2")
        assert res.returncode == 2

    def test_cap_is_usage_error(self):
        assert run_cli("table", "40").returncode == 2

    def test_chi_size_cap_is_usage_error(self):
        big = "[" + ",".join(["1"] * 1200) + "]"
        res = run_cli("chi", "--lambda", big, "--mu", big)
        assert res.returncode == 2
        assert "capped" in res.stderr and "Traceback" not in res.stderr

    def test_chi_state_budget_is_one_line_usage_error(self):
        # the staircase of 16 on (3^45, 1) reaches about 2.3M bead-mask states
        lam = "[" + ",".join(str(k) for k in range(16, 0, -1)) + "]"
        mu = "[" + ",".join(["3"] * 45 + ["1"]) + "]"
        res = run_cli("chi", "--lambda", lam, "--mu", mu)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "charcore: error: chi capped at 500000 bead-mask states, "
            "exceeded on part 14 of mu\n"
        )

    @pytest.mark.parametrize(
        "box,p,r", [("65", "2", "1"), ("12", "2", "4"), ("27", "7", "1")]
    )
    def test_lemma81_cap_is_one_line_usage_error(self, box, p, r):
        res = run_cli("verify", "lemma81", "--n", box, "--p", p, "--r", r)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("charcore: error: lemma81")
        assert "capped" in res.stderr and res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args,message",
        [
            (("stats", "ppower", "--p", BIG_P, "--k", "5"), "prime capped"),
            (("stats", "ppower", "--p", BIG_P, "--k", "5", "--r", "1", "--s", "1"),
             "prime capped"),
            (("stats", "fp", "--p", BIG_P, "--t", "2"), "prime capped"),
            (("verify", "theorem3", "--n", "10", "--p", BIG_P, "--r", "1"),
             "prime capped"),
            (("verify", "theorem3", "--n", "10", "--p", "3", "--r", "100000000"),
             "4300 decimal digits"),
            (("stats", "ppower", "--p", "3", "--k", "5", "--r", "10000000", "--s", "1"),
             "4300 decimal digits"),
            (("stats", "pdiff", "--p", "3", "--r", "5", "--s", "100000000", "--k", "5"),
             "4300 decimal digits"),
        ],
    )
    def test_prime_and_power_caps_are_one_line_usage_errors(self, args, message):
        res = run_cli(*args)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("charcore: error: ") and message in res.stderr
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("table", "4", "--threads", "-3"),
            ("table", "4", "--threads", "0"),
            ("stats", "density", "--n", "4", "--mod", "2", "--threads", "-3"),
            ("sample", "--n", "5", "--seed", "1", "--count", "-2"),
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert "must be at least" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "lemma62", "--n", "4", "--m", "3", "--p", "2", "--r", "2"),
            ("verify", "lemma61", "--n", "2", "--m", "5"),
            ("verify", "lemma81", "--n", "2", "--p", "2", "--r", "3"),
        ],
    )
    def test_verify_that_checks_nothing_is_usage_error(self, args):
        res = run_cli(*args)
        assert res.returncode == 2 and res.stdout == ""
        assert "checked=0" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("m", ["0", "-3"])
    @pytest.mark.parametrize(
        "lemma", ["lemma61", "lemma62", "factorization", "prop-pm1"]
    )
    def test_verify_rejects_m_below_one(self, lemma, m):
        res = run_cli("verify", lemma, "--n", "8", "--m", m, "--p", "2", "--r", "2")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"charcore: error: --m must be at least 1, got {m}\n"

    @pytest.mark.parametrize(
        "lemma, option",
        [
            ("combine", "p"),
            ("combine", "r"),
            ("lemma61", "m"),
            ("lemma62", "p"),
            ("lemma62", "r"),
            ("lemma62", "m"),
            ("factorization", "m"),
            ("prop-pm1", "p"),
            ("prop-pm1", "r"),
            ("prop-pm1", "m"),
            ("theorem3", "p"),
            ("theorem3", "r"),
            ("lemma81", "p"),
            ("lemma81", "r"),
        ],
    )
    def test_verify_names_each_missing_option(self, lemma, option):
        given = {"p": "2", "r": "2", "m": "2"}
        args = [a for k, v in given.items() if k != option for a in (f"--{k}", v)]
        res = run_cli("verify", lemma, "--n", "6", *args)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            f"charcore: error: --{option} is required for this subcommand\n"
        )

    @pytest.mark.parametrize("t", ["1e400", "inf", "nan", "0", "-1"])
    def test_fp_rejects_non_finite_or_non_positive_t(self, t):
        res = run_cli("stats", "fp", "--p", "2", "--t", t)
        assert res.returncode == 2 and res.stdout == ""
        assert "t must be positive and finite" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("tail", ["0", "-1", "nan", "inf"])
    def test_delta_rejects_non_finite_or_non_positive_tail(self, tail):
        res = run_cli(
            "stats", "delta", "--n", "1000000", "--p", "2", "--r", "2",
            "--L", "200", "--tail", tail,
        )
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            f"charcore: error: tail must be positive and finite, got {float(tail)}\n"
        )

    def test_delta_refuses_too_many_series_terms(self):
        res = run_cli(
            "stats", "delta", "--n", "9631347665285", "--p", "11", "--r", "3",
            "--L", "9999.94",
        )
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "charcore: error: delta capped at 20000000 series terms, "
            "got 18180 values of l times k_truncation 32768\n"
        )

    @pytest.mark.parametrize("dps", ["-5", "0"])
    def test_fp_rejects_dps_below_one(self, dps):
        res = run_cli("stats", "fp", "--p", "2", "--t", "5", "--dps", dps)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            f"charcore: error: --dps must be at least 1, got {dps}\n"
        )

    def test_fp_keeps_every_digit_for_large_t(self):
        from oracles import fp_expm1_product

        res = run_cli("stats", "fp", "--p", "2", "--t", "1e40")
        assert res.returncode == 0
        with mpmath.workdps(30):
            want = mpmath.nstr(+fp_expm1_product(2, 1e40), 30)
        assert json.loads(res.stdout)["value"] == want
        res = run_cli("stats", "fp", "--p", "2", "--t", "1e300")
        assert res.returncode == 0 and res.stderr == ""

    def test_fp_refuses_too_much_work_before_any(self, capsys):
        from time import process_time

        from charcore import cli

        start = process_time()
        argv = ["stats", "fp", "--p", "2", "--t", "10", "--dps", "1000000"]
        assert cli.main(argv) == 2
        assert process_time() - start < 1
        assert capsys.readouterr() == (
            "",
            "charcore: error: fp capped at 10000000000 factors times working "
            "digits squared, got 11 times 1000015**2\n",
        )

    @pytest.mark.parametrize("n", ["0", "-5"])
    @pytest.mark.parametrize(
        "stat, args",
        [
            ("delta", ["--p", "2", "--r", "1", "--L", "1"]),
            ("prop4", ["--p", "2", "--r", "1", "--samples", "3", "--seed", "1"]),
        ],
    )
    def test_delta_and_prop4_reject_n_below_one(self, stat, args, n):
        res = run_cli("stats", stat, "--n", n, *args)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"charcore: error: n must be at least 1, got {n}\n"

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_delta_says_its_window_is_empty_below_three(self, n):
        res = run_cli("stats", "delta", "--n", n, "--p", "2", "--r", "1", "--L", "0.1")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("charcore: error: the L window [")
        assert res.stderr.endswith(f"] is empty at n={n}\n")
        assert res.stderr.count("\n") == 1

    def test_internal_error_exits_two_and_keeps_out(
        self, tmp_path, monkeypatch, capsys
    ):
        from charcore import cli

        def boom(args, out):
            out.write("partial\n")
            raise RuntimeError("cannot separate 7 from the threshold")

        monkeypatch.setitem(cli._COMMANDS, "table", boom)
        target = tmp_path / "t.csv"
        target.write_text("keep\n")
        assert cli.main(["table", "3", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "charcore: internal error: RuntimeError: "
            "cannot separate 7 from the threshold\n"
        )
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_core_names_t_in_its_error(self):
        res = run_cli("core", "--lambda", "[3,1]", "--t", "0")
        assert res.returncode == 2 and res.stdout == ""
        assert "t must be positive" in res.stderr

    def test_zero_samples_print_nothing(self):
        res = run_cli("sample", "--n", "5", "--seed", "1", "--count", "0")
        assert res.returncode == 0 and res.stdout == ""

    def test_closed_stdout_is_quiet(self):
        proc = subprocess.Popen(
            BASE + ["table", "16"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().startswith("partition,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 0
        assert err == ""

    def test_failed_run_keeps_existing_out(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("keep\n")
        res = run_cli("table", "30", "--out", str(target))
        assert res.returncode == 2
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["table", "27"], "table size capped at n <= 26, got 27"),
            (["stats", "density", "--n", "27", "--mod", "2"],
             "table size capped at n <= 26, got 27"),
            (["table", "0"], "n must be positive"),
            (["stats", "density", "--n", "0", "--mod", "2"], "n must be positive"),
        ],
    )
    def test_table_size_is_refused_before_any_column(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        from charcore import characters, cli

        columns = []
        monkeypatch.setattr(characters, "chi_column", columns.append)
        target = tmp_path / "t.out"
        target.write_text("keep\n")
        assert cli.main(argv) == 2
        assert cli.main(argv + ["--out", str(target)]) == 2
        err = f"charcore: error: {message}\n"
        assert capsys.readouterr() == ("", err + err)
        assert columns == []
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.out"]

    def test_combine_size_is_refused_before_any_column(self, monkeypatch, capsys):
        # verify combine reads the table's columns, so it shares TABLE_CAP
        from charcore import cli, divisibility

        columns = []
        monkeypatch.setattr(divisibility, "chi_column", columns.append)
        argv = ["verify", "combine", "--n", "27", "--p", "2", "--r", "1"]
        assert cli.main(argv) == 2
        err = "charcore: error: congruence sweep capped at n <= 26, got 27\n"
        assert capsys.readouterr() == ("", err)
        assert columns == []

    def test_theorem3_size_is_refused_before_any_column(self, monkeypatch, capsys):
        # verify theorem3 reads the table's columns, so it shares TABLE_CAP,
        # and refuses before it enumerates a class
        from charcore import cli, divisibility

        columns = []
        monkeypatch.setattr(divisibility, "chi_column", columns.append)
        monkeypatch.setattr(divisibility, "partitions_of", columns.append)
        argv = ["verify", "theorem3", "--n", "27", "--p", "2", "--r", "1"]
        assert cli.main(argv) == 2
        err = "charcore: error: theorem3 sweep capped at n <= 26, got 27\n"
        assert capsys.readouterr() == ("", err)
        assert columns == []

    @pytest.mark.parametrize(
        "n,message",
        [
            ("61", "charcore: error: enumeration capped at n <= 60, got 61\n"),
            ("-1", "charcore: error: n must be nonnegative\n"),
        ],
    )
    def test_tcores_size_errors_are_one_line_usage_errors(self, n, message):
        res = run_cli("stats", "tcores", "--n", n, "--t", "5")
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == message

    def test_prop4_samples_cap_writes_nothing(self, tmp_path):
        # prop4 has no --out; its stdout goes to a file that must stay as it was
        target = tmp_path / "p.json"
        target.write_text("keep\n")
        argv = ["stats", "prop4", "--n", "5000", "--p", "2", "--r", "2",
                "--samples", "100000000", "--seed", "1"]
        with open(target, "a") as out:
            res = subprocess.run(
                BASE + argv, stdout=out, stderr=subprocess.PIPE, text=True, timeout=300
            )
        assert res.returncode == 2
        assert res.stderr == (
            "charcore: error: prop4 capped at samples <= 100000, got 100000000\n"
        )
        assert target.read_text() == "keep\n"

    def test_prop4_samples_cap_acts_before_any_work(self, monkeypatch, capsys):
        from charcore import cli, stats

        def refuse(*args):
            raise AssertionError("work started")

        for name in ("prop4_threshold", "sample_uniform"):
            monkeypatch.setattr(stats, name, refuse)
        argv = ["stats", "prop4", "--n", "5000", "--p", "2", "--r", "2",
                "--samples", "100001", "--seed", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "charcore: error: prop4 capped at samples <= 100000, got 100001\n"
        )

    def test_out_replaces_existing_file(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        assert run_cli("table", "3", "--out", str(target)).returncode == 0
        assert target.read_text() == run_cli("table", "3").stdout
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_unwritable_out_is_usage_error(self, tmp_path):
        res = run_cli("table", "3", "--out", str(tmp_path / "missing" / "t.csv"))
        assert res.returncode == 2 and "Traceback" not in res.stderr

    def test_verify_success_exit_zero(self):
        res = run_cli("verify", "combine", "--n", "6", "--p", "2", "--r", "2")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["violated"] == 0
        assert set(report) == {
            "lemma",
            "params",
            "checked",
            "skipped",
            "violated",
            "witness",
        }


class TestFormats:
    def test_verify_csv_json_same_numbers(self):
        js = json.loads(
            run_cli("verify", "lemma61", "--n", "6", "--m", "2").stdout
        )
        csv = run_cli(
            "verify", "lemma61", "--n", "6", "--m", "2", "--format", "csv"
        ).stdout.strip().split("\n")
        header, row = csv[0].split(","), csv[1].split(",")
        got = dict(zip(header, row))
        assert int(got["checked"]) == js["checked"]
        assert int(got["skipped"]) == js["skipped"]
        assert int(got["violated"]) == js["violated"]

    def test_density_csv_json_same_numbers(self):
        js = json.loads(run_cli("stats", "density", "--n", "5", "--mod", "2").stdout)
        csv = run_cli(
            "stats", "density", "--n", "5", "--mod", "2", "--format", "csv"
        ).stdout.strip().split("\n")
        got = dict(zip(csv[0].split(","), csv[1].split(",")))
        for key in ("total", "divisible", "zero"):
            assert int(got[key]) == js[key]

    def test_stats_subcommands_run(self):
        assert run_cli("stats", "tcores", "--n", "8", "--t", "3").returncode == 0
        assert run_cli("stats", "fp", "--p", "2", "--t", "5").returncode == 0
        assert (
            run_cli("stats", "ppower", "--p", "2", "--k", "12").returncode == 0
        )
        res = run_cli(
            "stats", "pdiff", "--p", "2", "--r", "2", "--s", "2", "--k", "24"
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["satisfied"] is True

    def test_prop4_requires_seed(self):
        assert (
            run_cli(
                "stats", "prop4", "--n", "60", "--p", "2", "--r", "2",
                "--samples", "5",
            ).returncode
            == 2
        )

    def test_prop4_runs(self):
        res = run_cli(
            "stats", "prop4", "--n", "60", "--p", "2", "--r", "2",
            "--samples", "5", "--seed", "3",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["samples"] == 5


FROZEN_OUTPUTS = [
    (
        ("core", "--lambda", "[6,5,3,1,1,1]", "--t", "5", "--format", "json"),
        "75adda385be54da47ef8ce0d12a202ca0c3e332519adbc2aceccb7cd00d3b9d1",
    ),
    (
        (
            "core", "--lambda", "[40,35,30,25,20,15,12,10,8,5]", "--t", "7",
            "--format", "json",
        ),
        "d4ab9789f394dfb678a49eba5ae80668b07045faec29134b84faecb286544f1e",
    ),
    (
        ("verify", "lemma61", "--n", "12", "--m", "2", "--hooks", "3"),
        "63fe5ceb643c007d6d9f205d90ece4d315c95c9da11a2e922359daef22897a2e",
    ),
    (
        ("verify", "factorization", "--n", "12", "--m", "3", "--hooks", "3"),
        "5ba9b802f8addc07460eae6001a45e8fb8a0bf17eec86ec749a8a77f2b68325e",
    ),
    (
        ("verify", "lemma81", "--n", "6", "--p", "2", "--r", "2"),
        "dbed36d3042c44a7114a12b8aa161f23ce3e94efe61eb306ad613483101a3b28",
    ),
    (
        ("table", "20", "--format", "csv"),
        "9b2f8603f38071bd0da7edf7bce23d08b16375ec8daa0a7f342d2a15116949a1",
    ),
    (
        ("verify", "prop-pm1", "--n", "20", "--m", "3", "--p", "2", "--r", "2"),
        "fb61cd4d552bf4f9a481063a68933073a84c47f196d05a70978829dec3ecc94f",
    ),
    (
        ("verify", "prop-pm1", "--n", "16", "--m", "2", "--p", "2", "--r", "3"),
        "b9cedc32b6e82f6ff6f850b8ad1ccbfba55459533554a55602fd6e6f44c6a73c",
    ),
    (
        ("verify", "theorem3", "--n", "20", "--p", "2", "--r", "2"),
        "03be791ff337673631df6b131824c24e4ec66e0152e9988259e43ff6faa2c000",
    ),
    (
        ("verify", "lemma62", "--n", "20", "--m", "2", "--p", "2", "--r", "2"),
        "74bb4c1fa356cdd19cd4d077df5bcd19b36ae653f01a03987d2535b87d84f7d9",
    ),
    (
        ("verify", "combine", "--n", "12", "--p", "2", "--r", "2"),
        "16388f31e852ddd7f1fbca8dfb63e34c249f3e3a01999e53cb1c54293a25408d",
    ),
    (
        ("stats", "tcores", "--n", "40", "--t", "5"),
        "1a3a01f62edb3eb90a199d5cd3809fe09df9772790f2eabefe4c2c25a58a186e",
    ),
    (
        ("stats", "tcores", "--n", "50", "--t", "7"),
        "58731dec0dd5fdc28a516e9e52862edb7029209e8b5c3d9dc613bf85a2bcc12d",
    ),
    (
        ("verify", "lemma62", "--n", "24", "--m", "2", "--p", "2", "--r", "3"),
        "b733a149a74b072f61d05f50a1822584c7c2ee429df80edaa27766bc4362bfcf",
    ),
    (
        ("verify", "factorization", "--n", "14", "--m", "1", "--hooks", "4"),
        "e7d10df9b32b5249dede98fa92d34ba990c9af8e2000a24354285072efc54b70",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "2", "--r", "3",
            "--format", "json",
        ),
        "0f7782a253856b4b04b375a60d77f242b2265f29c21e0f6dd4355c503156b316",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "2", "--r", "3",
            "--format", "text",
        ),
        "4e115ebf1d5c90a3f616f8f0c8bf53fd9d99636f17d99b877b2766f526a6d234",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "2", "--r", "3",
            "--format", "csv",
        ),
        "0358424a84325c7daad24955362065c9b387a4e84c0ee2b274fc151c29ec86e9",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "3", "--r", "2",
            "--format", "json",
        ),
        "6392cf61b550ed30b5673e9d19087dbd9b6d80b8f3d20aef5e04af06fb458417",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "3", "--r", "2",
            "--format", "text",
        ),
        "aab003d92aaf0389c6b71fbed7db9dafd164df28456dc8430905c1f542697ceb",
    ),
    (
        (
            "verify", "lemma81", "--n", "8", "--p", "3", "--r", "2",
            "--format", "csv",
        ),
        "652091c332fe6c6db33b08dcd8fb7ed7e2de9e9ee5ab0ebb69fc3c1a72e83d6e",
    ),
    (
        (
            "verify", "lemma81", "--n", "12", "--p", "2", "--r", "3",
            "--format", "json",
        ),
        "daec44b23f9d2d180cb47c3eea5345109d98fa5dba085b27d3d1daffb20bbab6",
    ),
    (
        ("verify", "combine", "--n", "16", "--p", "2", "--r", "1"),
        "c90655ff3839aa68e3b3449348602e8b011c0cdae807857f7464aae89588c058",
    ),
    (
        ("verify", "theorem3", "--n", "14", "--p", "3", "--r", "1"),
        "11d096c9aa6fafcbcdb348c349f6894cd7667b84162e6815cbb63dc7b85b2f41",
    ),
    (
        ("verify", "prop-pm1", "--n", "18", "--m", "2", "--p", "3", "--r", "2"),
        "d5c53f25a247210ff931a098d15f16e50d1fa8da7c24a1db7a0d525ad874adaf",
    ),
]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("table", "8", "--format", "csv"),
            ("table", "8", "--format", "json"),
            ("verify", "combine", "--n", "8", "--p", "2", "--r", "2"),
            ("stats", "density", "--n", "6", "--mod", "2"),
            ("sample", "--n", "25", "--seed", "9", "--count", "4"),
        ],
    )
    def test_reruns_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ("sample", "--n", "2000", "--seed", "7", "--count", "3"),
                "dc80b634ef93b2eae3df9bde5edb1f44fe506c381db90f6fb843b8122209a23e",
            ),
            (
                (
                    "stats", "prop4", "--n", "2000", "--p", "2", "--r", "2",
                    "--samples", "200", "--seed", "1",
                ),
                "ad097ffe636ea9e7bc95ca368bace45c38d4e9bf8106b5b0eb466aa5f2645524",
            ),
        ],
    )
    def test_seeded_output_is_frozen(self, args, digest):
        # a change to the draw stream of the sampler changes these digests
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ("--n", "1000000", "--p", "2", "--r", "2", "--L", "196"),
                "23d2daf8695acba89bd91b9b46b792d95b86c215986db2b20c687b65c31f1a4f",
            ),
            (
                ("--n", "1000000", "--p", "3", "--r", "1", "--L", "400"),
                "182202a4283fc65097271102200813142e330f4a158fbaa04348739fa1867833",
            ),
            (
                ("--n", "1000000", "--p", "2", "--r", "3", "--L", "100"),
                "f84dfbc565403a0f0d07d935e5ae6ab773b2de05468a0867229d6518faa16a4d",
            ),
            (
                ("--n", "100000", "--p", "3", "--r", "2", "--L", "50", "--tail", "1e-9"),
                "2da7ca41b97717795ca3d1649e867b43269f2aa73c847ac2b97e4b74f1d560ad",
            ),
            (
                (
                    "--n", "1000000", "--p", "2", "--r", "1", "--L", "200",
                    "--tail", "0.001",
                ),
                "0d6a548435ae8deb33bcd97393111cdd56a9dbdd4d9cad1a05779acec46bccf4",
            ),
        ],
    )
    def test_delta_output_is_frozen(self, args, digest):
        # the README example, p = 3, r = 3, and two non-default tails, the last
        # with s = 1; every digit of Delta and of its detail is compared
        res = run_cli("stats", "delta", *args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", FROZEN_OUTPUTS)
    def test_core_and_residue_output_is_frozen(self, args, digest):
        # cores, residue skews, epsilon and border-strip checks feed the first
        # five, the conjugate-row fill and the shared prop-pm1 columns the next
        # three, theorem 3's core test and the core-row walk the next four, the
        # hook-sequence counts of four removals per row the next two, and the
        # lemma81 sweep on canonical row spans the next seven, the last of them
        # a box where most classes split into components; then combine at
        # n = 16 and theorem3 and prop-pm1 at p = 3
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    def test_each_verify_lemma_output_is_pinned(self):
        from charcore import cli

        pinned = {args[1] for args, _ in FROZEN_OUTPUTS if args[0] == "verify"}
        assert pinned == set(cli._VERIFIERS)

    @pytest.mark.parametrize(
        "n,fmt,digest",
        [
            (
                "16",
                "csv",
                "cec761eb5b803bc51ad7c9e9c79c86448bbbe42fe1f5d2109dd7ed2ffa5c9e40",
            ),
            (
                "16",
                "json",
                "f141f9a480850b3c2ac0864d18c38bcd83a9ad78eac60683e92e556c29cc8afa",
            ),
            (
                "20",
                "csv",
                "9b2f8603f38071bd0da7edf7bce23d08b16375ec8daa0a7f342d2a15116949a1",
            ),
            (
                "20",
                "json",
                "414c6ae605923e0a2a48ee80303c8e26f748d510edb74dea174f46d4614a309a",
            ),
            (
                "24",
                "csv",
                "64c17613cf9df21f6c66e73bb89ac78fef2a5cfaba9db71249a83769d93a78c8",
            ),
            (
                "24",
                "json",
                "7a120aa3b3975f10dc656bc6250e19934e16e359303907cefe981f7b676f6fad",
            ),
        ],
    )
    def test_table_output_is_frozen(self, n, fmt, digest):
        # orthogonality is checked only up to n = 14, so whole tables past it
        # are pinned here
        res = run_cli("table", n, "--format", fmt, "--threads", "1")
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "mod, digest",
        [
            ("2", "5ff1f54136fb8207459a949343b79de9350c0223ca67dceddb937684f81fd50b"),
            ("3", "47c7a754aa75e885a4c63bac9d2cb20460cbc83e04116310279670b56538df13"),
        ],
    )
    def test_density_output_is_frozen(self, mod, digest):
        # --threads is accepted on stats density and changes no byte
        res = run_cli("stats", "density", "--n", "22", "--mod", mod, "--threads", "2")
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    def test_thread_count_invariant(self):
        outputs = {
            run_cli("table", "9", "--format", "csv", "--threads", str(t)).stdout
            for t in (1, 2, 4, 17, 100000000)
        }
        assert len(outputs) == 1


def test_import_loads_no_process_pool():
    # a process pool's modules (multiprocessing, pickle, socket, ...) would
    # slow every CLI call's start-up, and no path of the package needs them
    code = (
        "import sys, charcore, charcore.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
