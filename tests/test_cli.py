import argparse
import csv
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twophase
from twophase import cli, fileio, forking, fpca, imputation, kernels, models, raking, simulate
from twophase import records as rec
from twophase.cli import dispatch


def run(argv):
    return dispatch([str(a) for a in argv])


def package_env():
    """The environment of a child interpreter that imports this twophase."""
    src = str(Path(twophase.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def without_asthma(table):
    """``table`` without the asthma pair, as a table written before it existed."""
    return rec.DyadTable(table.ids, {name: values for name, values in table.columns.items()
                                     if name not in rec.ASTHMA})


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    config = {"n": 1500, "seed": 12}
    (out / "sim.json").write_text(json.dumps(config))
    code = run(["simulate", "--config", out / "sim.json", "--out", out,
                "--seed", 12, "--with-series"])
    assert code == 0
    return out


class TestSimulateCli:
    def test_generates_expected_files(self, sim_dir):
        assert (sim_dir / "dyads.csv").exists()
        assert (sim_dir / "truth.csv").exists()
        assert (sim_dir / "measurements.csv").exists()
        assert len(fileio.read_dyads(sim_dir / "dyads.csv")) == 1500

    def test_idempotent_given_seed(self, sim_dir, tmp_path):
        code = run(["simulate", "--config", sim_dir / "sim.json", "--out",
                    tmp_path, "--seed", 12, "--with-series"])
        assert code == 0
        for name in ("dyads.csv", "truth.csv", "measurements.csv"):
            assert (tmp_path / name).read_bytes() == (sim_dir / name).read_bytes(), name

    def test_unknown_config_key_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"n": 10, "bogus": 1}')
        code = run(["simulate", "--config", tmp_path / "bad.json",
                    "--out", tmp_path])
        assert code == 4

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--nope", "x", "--out", tmp_path])
        assert exc.value.code == 2


class TestDesignCli:
    def test_corrupt_dyads_row_gives_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "dyads.csv"
        bad.write_text("id,y_star,delta_star,x_star\nr1,2.0,0,0.3\nr2,xx,1,0.2\n")
        (tmp_path / "strata.json").write_text('[{"id": "all", "bounds": {}}]')
        code = run(["design", "init", "--frame", "obesity", "--dyads", bad,
                    "--strata", tmp_path / "strata.json",
                    "--out", tmp_path / "ledger.json"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and "row 3" in err

    @pytest.mark.parametrize("dyads, strata, culprit", [
        (b"id,y_star,delta_star,x_star\nr1,2.0,0,0.3\nr\xff2,2.0,1,0.2\n",
         b'[{"id": "all", "bounds": {}}]', "dyads.csv is not UTF-8 text"),
        (b"id,y_star,delta_star,x_star\nr1,2.0,0,0.3\n",
         b'[{"id": "all", "bounds": {', "strata.json is not valid JSON"),
    ])
    def test_undecodable_or_truncated_input_gives_parse_exit(self, tmp_path, capsys,
                                                             dyads, strata, culprit):
        # Both used to end in a UnicodeDecodeError or JSONDecodeError traceback.
        (tmp_path / "dyads.csv").write_bytes(dyads)
        (tmp_path / "strata.json").write_bytes(strata)
        code = run(["design", "init", "--frame", "obesity", "--dyads", tmp_path / "dyads.csv",
                    "--strata", tmp_path / "strata.json", "--out", tmp_path / "ledger.json"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and culprit in err

    def test_allocation_budget_identity(self, sim_dir, tmp_path):
        xs = np.sort(fileio.read_dyads(sim_dir / "dyads.csv").columns["x_star"])
        cut = float(xs[len(xs) // 2])
        strata = [
            {"id": "ev", "bounds": {"delta_star": [0.5, None]}},
            {"id": "lo", "bounds": {"delta_star": [None, 0.5],
                                    "x_star": [None, cut]}},
            {"id": "hi", "bounds": {"delta_star": [None, 0.5],
                                    "x_star": [cut, None]}},
        ]
        (tmp_path / "strata.json").write_text(json.dumps(strata))
        assert run(["design", "init", "--frame", "obesity",
                    "--dyads", sim_dir / "dyads.csv",
                    "--strata", tmp_path / "strata.json",
                    "--out", tmp_path / "ledger.json", "--seed", 4]) == 0
        # Wave-1 influence from the phase-1 fit.
        assert run(["estimate", "--dyads", sim_dir / "dyads.csv",
                    "--model", "cox", "--method", "phase1",
                    "--out", tmp_path / "est_p1.csv",
                    "--emit-influence", tmp_path / "h.csv"]) == 0
        assert run(["design", "allocate", "--ledger", tmp_path / "ledger.json",
                    "--dyads", sim_dir / "dyads.csv",
                    "--influence", tmp_path / "h.csv",
                    "--target", 250, "--wave", 1,
                    "--out", tmp_path / "alloc.json"]) == 0
        alloc = fileio.read_allocation(tmp_path / "alloc.json")
        assert alloc["total"] == 250
        assert sum(alloc["draws"].values()) == 250

    def test_draw_then_reveal_then_ipw(self, sim_dir, tmp_path):
        self.test_allocation_budget_identity(sim_dir, tmp_path)
        assert run(["design", "draw", "--ledger", tmp_path / "ledger.json",
                    "--dyads", sim_dir / "dyads.csv",
                    "--allocation", tmp_path / "alloc.json",
                    "--seed", 99, "--out", tmp_path / "draw.json",
                    "--update-ledger", tmp_path / "ledger2.json"]) == 0
        assert run(["simulate", "reveal", "--dyads", sim_dir / "dyads.csv",
                    "--truth", sim_dir / "truth.csv",
                    "--draw", tmp_path / "draw.json",
                    "--out", tmp_path / "dyads2.csv"]) == 0
        assert run(["estimate", "--dyads", tmp_path / "dyads2.csv",
                    "--model", "cox", "--method", "ipw",
                    "--ledger", tmp_path / "ledger2.json",
                    "--out", tmp_path / "est_ipw.csv"]) == 0
        rows = fileio.read_estimates(tmp_path / "est_ipw.csv")
        assert rows[0]["estimator"] == "ipw_single"
        assert np.isfinite(rows[0]["beta"]) and rows[0]["se"] > 0

    def test_raking_influence_file_missing_a_member_gives_parse_exit(
            self, sim_dir, tmp_path, capsys):
        self.test_draw_then_reveal_then_ipw(sim_dir, tmp_path)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        (tmp_path / "h_short.csv").write_text("\n".join(lines[:-5]) + "\n")
        first_missing = lines[-5].split(",")[0]
        code = run(["estimate", "--dyads", tmp_path / "dyads2.csv",
                    "--model", "cox", "--method", "raking", "--aux", "naive",
                    "--influence", tmp_path / "h_short.csv",
                    "--ledger", tmp_path / "ledger2.json",
                    "--out", tmp_path / "est_rk.csv"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and repr(first_missing) in err

    def test_wave1_skips_a_leaf_closed_before_it(self, sim_dir, tmp_path):
        self.test_allocation_budget_identity(sim_dir, tmp_path)
        assert run(["design", "close", "--ledger", tmp_path / "ledger.json",
                    "--stratum", "lo", "--out", tmp_path / "closed.json"]) == 0
        assert run(["design", "allocate", "--ledger", tmp_path / "closed.json",
                    "--dyads", sim_dir / "dyads.csv",
                    "--influence", tmp_path / "h.csv",
                    "--target", 250, "--wave", 1,
                    "--out", tmp_path / "alloc.json"]) == 0
        alloc = fileio.read_allocation(tmp_path / "alloc.json")
        assert alloc["draws"]["lo"] == 0
        assert sum(alloc["draws"].values()) == 250
        assert run(["design", "draw", "--ledger", tmp_path / "closed.json",
                    "--dyads", sim_dir / "dyads.csv",
                    "--allocation", tmp_path / "alloc.json",
                    "--seed", 99, "--out", tmp_path / "draw.json"]) == 0

    def test_infeasible_allocation_exit_code(self, sim_dir, tmp_path):
        self.test_allocation_budget_identity(sim_dir, tmp_path)
        code = run(["design", "allocate", "--ledger", tmp_path / "ledger.json",
                    "--dyads", sim_dir / "dyads.csv",
                    "--influence", tmp_path / "h.csv",
                    "--target", 10 ** 6, "--wave", 1,
                    "--out", tmp_path / "nope.json"])
        assert code == 5


class TestEstimateCli:
    def test_logistic_fits_the_asthma_model(self, sim_dir, tmp_path):
        assert run(["estimate", "--dyads", sim_dir / "dyads.csv",
                    "--model", "logistic", "--method", "phase1",
                    "--out", tmp_path / "est.csv"]) == 0
        rows = fileio.read_estimates(tmp_path / "est.csv")
        assert [r["term"] for r in rows] == ["intercept", "x", "z_0", "delta"]
        assert all(np.isfinite(r["beta"]) and r["se"] > 0 for r in rows)

    def test_logistic_without_the_asthma_pair_gives_parse_exit(self, sim_dir, tmp_path,
                                                                capsys):
        fileio.write_dyads(tmp_path / "d.csv",
                           without_asthma(fileio.read_dyads(sim_dir / "dyads.csv")))
        code = run(["estimate", "--dyads", tmp_path / "d.csv", "--model", "logistic",
                    "--method", "phase1", "--out", tmp_path / "est.csv"])
        assert code == 4
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"error: parse: {tmp_path / 'd.csv'} has no column 'asthma_star', which "
            "--model logistic reads")
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("column, value", [("y_star", "nan"), ("z_star_1", "")])
    def test_bad_first_row_cell_gives_parse_exit(self, sim_dir, tmp_path, capsys,
                                                 column, value):
        # A nan y_star passed the y_star > 0 check and ended in exit 7; an empty
        # z_star_1 on the first row dropped that covariate for every record.
        header, first, *rest = (sim_dir / "dyads.csv").read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        (tmp_path / "d.csv").write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        code = run(["estimate", "--dyads", tmp_path / "d.csv", "--model", "cox",
                    "--method", "phase1", "--out", tmp_path / "est.csv"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse: row 2:" in err and column in err


# Pinned outputs of the chain below: allocations per wave, drawn id numbers
# (``d%06d``) per stratum, and the (beta, se) of each term.  They move only
# when the design or the estimators change, not with how dyads are held.
CHAIN_ALLOCATIONS = {
    "O1": {"evhi": 12, "evlo": 9, "nohi": 18, "nolo": 11},
    "O2": {"evhi": 11, "evlo": 10, "nohi": 19, "nolo": 10},
    "A1": {"A:ev": 19, "A:no": 21},
}
CHAIN_DRAWS = {
    "O1": {"evhi": [59, 156, 213, 247, 447, 484, 533, 616, 621, 717, 965, 994],
           "evlo": [105, 146, 203, 274, 656, 716, 759, 823, 951],
           "nohi": [19, 50, 87, 136, 252, 280, 302, 337, 339, 420, 490, 633, 665, 747, 791,
                    793, 826, 976],
           "nolo": [22, 122, 293, 391, 406, 556, 578, 605, 678, 735, 842]},
    "O2": {"evhi": [54, 92, 187, 190, 233, 312, 317, 372, 790, 863, 895],
           "evlo": [83, 128, 248, 450, 481, 498, 804, 883, 906, 995],
           "nohi": [11, 66, 171, 216, 255, 296, 439, 453, 473, 589, 625, 628, 704, 761, 812,
                    847, 861, 964, 997],
           "nolo": [62, 97, 231, 307, 405, 472, 680, 820, 886, 961]},
    "A1": {"A:ev": [45, 54, 125, 180, 194, 213, 268, 312, 397, 401, 449, 462, 463, 533, 541,
                    656, 677, 804, 904],
           "A:no": [15, 43, 95, 153, 216, 272, 296, 322, 362, 366, 439, 504, 630, 650, 684,
                    762, 793, 794, 811, 968, 980]},
}
CHAIN_ESTIMATES = {
    "ipw_single": [(0.16538149033947244, 1.2124071913548093),
                   (0.054774393202972796, 0.2140073131916931),
                   (-0.5724314826576647, 0.5442629963052388)],
    "raking_naive": [(-0.11623449250211323, 0.912862771669717),
                     (0.060572913130862875, 0.2355259495340661),
                     (-0.5636434270860455, 0.5910279276685081)],
    "ipw_multi": [(-0.6647785512777701, 1.2122624847128858),
                  (0.03319154967885962, 0.18260670537562823),
                  (-0.6576489516123251, 0.49251844749659746)],
}


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """The pinned chain's files: 1,000 dyads (seed 8), obesity waves O1, O2, asthma A1.

    ``dyads_2.csv`` holds the obesity draws revealed, ``dyads_3.csv`` the
    asthma draws too; ``h.csv`` is the phase-1 influence.
    """
    return build_chain(tmp_path_factory.mktemp("chain"))


def build_chain(d, asthma=True):
    """Run the pinned chain in directory ``d`` and return ``d``; without
    ``asthma``, on a ``dyads.csv`` without the asthma pair."""
    (d / "sim.json").write_text(json.dumps({"n": 1000}))
    (d / "strata_O.json").write_text(json.dumps(
        [{"id": f"{e}{s}", "bounds": {"delta_star": db, "x_star": xb}}
         for e, db in (("ev", [0.5, None]), ("no", [None, 0.5]))
         for s, xb in (("lo", [None, 0.3]), ("hi", [0.3, None]))]))
    (d / "strata_A.json").write_text(json.dumps(
        [{"id": "A:ev", "bounds": {"delta_star": [0.5, None]}},
         {"id": "A:no", "bounds": {"delta_star": [None, 0.5]}}]))
    assert run(["simulate", "--config", d / "sim.json", "--out", d, "--seed", 8]) == 0
    if not asthma:
        fileio.write_dyads(d / "dyads.csv", without_asthma(fileio.read_dyads(d / "dyads.csv")))
    assert run(["design", "init", "--frame", "O", "--dyads", d / "dyads.csv",
                "--strata", d / "strata_O.json", "--out", d / "ledger_O0.json"]) == 0
    assert run(["estimate", "--dyads", d / "dyads.csv", "--method", "phase1",
                "--out", d / "p1.csv", "--emit-influence", d / "h.csv"]) == 0
    dyads = d / "dyads.csv"
    for key, target in (("O1", 50), ("O2", 100), ("A1", 40)):
        frame, k = key[0], int(key[1:])
        if key == "A1":
            assert run(["design", "init", "--frame", "A", "--dyads", dyads,
                        "--strata", d / "strata_A.json",
                        "--member-flag", "in_asthma_frame",
                        "--out", d / "ledger_A0.json"]) == 0
        assert run(["design", "allocate", "--ledger", d / f"ledger_{frame}{k - 1}.json",
                    "--dyads", dyads, "--influence", d / "h.csv", "--target", target,
                    "--wave", k, "--out", d / f"alloc_{key}.json"]) == 0
        assert run(["design", "draw", "--ledger", d / f"ledger_{frame}{k - 1}.json",
                    "--dyads", dyads, "--allocation", d / f"alloc_{key}.json",
                    "--seed", 40 + k, "--out", d / f"draw_{key}.json",
                    "--update-ledger", d / f"ledger_{key}.json"]) == 0
        revealed = d / f"dyads_{('O1', 'O2', 'A1').index(key) + 1}.csv"
        assert run(["simulate", "reveal", "--dyads", dyads, "--truth", d / "truth.csv",
                    "--draw", d / f"draw_{key}.json", "--out", revealed]) == 0
        dyads = revealed
    return d


def test_design_chain_matches_pinned_outputs(chain_dir, tmp_path):
    """generate -> design (2 obesity waves, 1 asthma wave) -> reveal -> estimate."""
    d = chain_dir
    for key in ("O1", "O2", "A1"):
        assert fileio.read_allocation(d / f"alloc_{key}.json")["draws"] == \
            CHAIN_ALLOCATIONS[key]
        assert fileio.read_draw(d / f"draw_{key}.json")["by_stratum"] == {
            sid: [f"d{i:06d}" for i in ids] for sid, ids in CHAIN_DRAWS[key].items()}
    final = ["estimate", "--dyads", d / "dyads_3.csv", "--ledger", d / "ledger_O2.json"]
    assert run(final + ["--method", "ipw", "--out", tmp_path / "ipw_single.csv"]) == 0
    assert run(final + ["--method", "raking", "--aux", "naive",
                        "--out", tmp_path / "raking_naive.csv"]) == 0
    assert run(final + ["--method", "ipw", "--frame", "multi", "--asthma-ledger",
                        d / "ledger_A1.json", "--out", tmp_path / "ipw_multi.csv"]) == 0
    for name, want in CHAIN_ESTIMATES.items():
        rows = fileio.read_estimates(tmp_path / f"{name}.csv")
        assert [(r["estimator"], r["term"]) for r in rows] == [
            (name, "x"), (name, "z_0"), (name, "z_1")]
        assert [(r["beta"], r["se"]) for r in rows] == [
            (pytest.approx(b, rel=1e-12), pytest.approx(se, rel=1e-12)) for b, se in want]


def test_a_table_without_the_asthma_pair_runs_the_pinned_cox_chain(tmp_path):
    (tmp_path / "chain").mkdir()
    d = build_chain(tmp_path / "chain", asthma=False)
    for name in ("dyads.csv", "dyads_1.csv", "dyads_2.csv", "dyads_3.csv"):
        header = (d / name).read_text().splitlines()[0].split(",")
        assert not set(rec.ASTHMA) & set(header), name
        assert not fileio.read_dyads(d / name).has_asthma
    test_design_chain_matches_pinned_outputs(d, tmp_path)


def test_a_patch_writes_the_copy_that_write_dyads_writes(chain_dir, tmp_path):
    # Each revealed file of the chain is a patch of the one before, which
    # checked only its newly validated rows and took the ids as read.
    for name in ("dyads_1.csv", "dyads_2.csv", "dyads_3.csv"):
        read = fileio.read_dyads(chain_dir / name)
        # A table of its own, unknown to the reader: every row and id is checked.
        fileio.write_dyads(tmp_path / name, rec.DyadTable(list(read.ids), read.columns))
        for suffix in ("", ".parsed"):
            assert ((tmp_path / f"{name}{suffix}").read_bytes()
                    == (chain_dir / f"{name}{suffix}").read_bytes()), name + suffix


class TestOneParserPerProcess:
    """dispatch builds its parser once per process; every call must still see
    what it would see in a fresh process."""

    @staticmethod
    def resolved(caplog, argv):
        """The exit code of ``argv`` and the configuration dispatch logged for it."""
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="twophase"):
            code = run(argv)
        [record] = [r for r in caplog.records if r.msg.startswith("resolved configuration")]
        return code, record.args

    @staticmethod
    def fresh(argv):
        """The configuration a newly built parser resolves for ``argv``."""
        return dict(sorted(vars(cli.build_parser().parse_args([str(a) for a in argv]))
                           .items()))

    def test_a_rejected_command_line_leaves_the_next_calls_as_fresh(self, tmp_path,
                                                                   caplog, capsys):
        fileio.write_estimates(tmp_path / "a.csv",
                               [("phase1", np.array([0.87]), np.array([0.18]))], ["x"])
        report = ["report", "--inputs", tmp_path / "a.csv", "--out", tmp_path / "in.csv",
                  "--text", tmp_path / "in.txt"]
        for rejected in (["estimate", "--dyads", "d.csv", "--method", "nope", "--out", "o"],
                         ["design", "draw", "--ledger", "l.json", "--seed", "x"],
                         ["report", "--inputs"]):
            with pytest.raises(SystemExit) as exc:
                run(rejected)
            assert exc.value.code == 2
            assert "usage: twophase" in capsys.readouterr().err
            assert self.resolved(caplog, report) == (0, self.fresh(report))
        fresh = ["report", "--inputs", tmp_path / "a.csv", "--out", tmp_path / "fresh.csv",
                 "--text", tmp_path / "fresh.txt"]
        done = subprocess.run([sys.executable, "-m", "twophase.cli", *map(str, fresh)],
                              env=package_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-3000:]
        for suffix in ("csv", "txt"):
            assert ((tmp_path / f"in.{suffix}").read_bytes()
                    == (tmp_path / f"fresh.{suffix}").read_bytes())

    def test_an_estimate_without_aux_after_an_mi_one_gets_the_naive_default(
            self, chain_dir, tmp_path, caplog):
        d = chain_dir
        final = ["estimate", "--dyads", d / "dyads_3.csv", "--ledger", d / "ledger_O2.json",
                 "--method", "raking"]
        mi = final + ["--aux", "mi", "--mi-replicates", 2, "--seed", 3,
                      "--out", tmp_path / "mi.csv"]
        naive = final + ["--out", tmp_path / "naive.csv"]
        assert self.resolved(caplog, mi) == (0, self.fresh(mi))
        code, config = self.resolved(caplog, naive)
        assert (code, config) == (0, self.fresh(naive))
        assert (config["aux"], config["mi_replicates"], config["seed"]) == (
            "naive", imputation.DEFAULT_REPLICATES, 0)
        rows = fileio.read_estimates(tmp_path / "naive.csv")
        assert [(r["estimator"], r["beta"], r["se"]) for r in rows] == [
            ("raking_naive", pytest.approx(b, rel=1e-12), pytest.approx(se, rel=1e-12))
            for b, se in CHAIN_ESTIMATES["raking_naive"]]

    def test_the_pinned_chain_run_again_in_the_process_writes_the_same_bytes(
            self, chain_dir, tmp_path):
        again = build_chain(tmp_path)
        names = sorted(p.name for p in again.iterdir())
        assert names == sorted(p.name for p in chain_dir.iterdir())
        for name in names:
            assert (again / name).read_bytes() == (chain_dir / name).read_bytes(), name


class TestWaveRuleOnTheChain:
    @staticmethod
    def _allocate(out, ledger, dyads, influence, target, wave):
        return run(["design", "allocate", "--ledger", ledger, "--dyads", dyads,
                    "--influence", influence, "--target", target, "--wave", wave,
                    "--out", out])

    def test_every_wave_writes_the_same_flags_keys(self, chain_dir):
        for key in ("O1", "O2", "A1"):
            flags = fileio.read_json(chain_dir / f"alloc_{key}.json")["flags"]
            assert set(flags) == {"spilled", "sd_sources"}, key

    def test_all_zero_influence_gives_degenerate_exit(self, chain_dir, tmp_path, capsys):
        table = fileio.read_dyads(chain_dir / "dyads.csv")
        fileio.write_influence(tmp_path / "h0.csv", dict.fromkeys(table.ids, 0.0))
        code = self._allocate(tmp_path / "alloc.json", chain_dir / "ledger_O0.json",
                              chain_dir / "dyads.csv", tmp_path / "h0.csv", 50, 1)
        assert code == 10
        assert "error: degenerate-design:" in capsys.readouterr().err
        assert not (tmp_path / "alloc.json").exists()

    def test_later_wave_needing_a_closed_leaf_gives_infeasible_exit(self, chain_dir,
                                                                    tmp_path, capsys):
        d = chain_dir
        assert run(["design", "close", "--ledger", d / "ledger_O1.json", "--stratum", "nohi",
                    "--out", tmp_path / "closed.json"]) == 0
        ledger = fileio.read_ledger(tmp_path / "closed.json")
        leaf = ledger.strata["nohi"]
        # One more than the leaves left open can supply.
        target = ledger.population_size() - (leaf.population_size - leaf.total_sampled) + 1
        argv = (tmp_path / "closed.json", d / "dyads_1.csv", d / "h.csv")
        code = self._allocate(tmp_path / "alloc.json", *argv, target, 2)
        assert code == 5
        assert "error: infeasible:" in capsys.readouterr().err
        assert not (tmp_path / "alloc.json").exists()
        # One draw fewer fits without the closed leaf.
        assert self._allocate(tmp_path / "alloc.json", *argv, target - 1, 2) == 0
        assert fileio.read_allocation(tmp_path / "alloc.json")["draws"]["nohi"] == 0

    @pytest.mark.parametrize("alloc, culprit", [("alloc_O2.json", "for wave 2"),
                                                ("alloc_A1.json", "for frame 'A'")])
    def test_draw_refuses_an_allocation_for_another_wave_or_frame(
            self, chain_dir, tmp_path, capsys, alloc, culprit):
        d = chain_dir
        code = run(["design", "draw", "--ledger", d / "ledger_O0.json",
                    "--dyads", d / "dyads.csv", "--allocation", d / alloc, "--seed", 41,
                    "--out", tmp_path / "draw.json",
                    "--update-ledger", tmp_path / "ledger.json"])
        assert code == 6
        err = capsys.readouterr().err
        assert "error: ledger:" in err and culprit in err
        assert not (tmp_path / "draw.json").exists()
        assert not (tmp_path / "ledger.json").exists()


MALFORMED_JSON = {
    "config holding a list": ("sim.json", lambda p: [1], "a JSON object"),
    "config with an unknown trajectory key":
        ("sim.json", lambda p: {"trajectory": {"bogus": 1}}, "bogus"),
    "config with an impossible error rate":
        ("sim.json", lambda p: {"error": {"event_fp": 2}}, "event_fp"),
    # These four ended in a TypeError, a ValueError or an IndexError traceback.
    "config with a string n": ("sim.json", lambda p: {"n": "100"}, "key 'n'"),
    "config with a fractional n": ("sim.json", lambda p: {"n": 1.5}, "key 'n'"),
    "config with a negative n": ("sim.json", lambda p: {"n": -5}, "n must be at least 1"),
    "config with a short beta_z": ("sim.json", lambda p: {"beta_z": [1]}, "key 'beta_z'"),
    # These two ended in a ValueError traceback: the trajectory basis has 3 rows.
    "config with four eigenvalues":
        ("sim.json", lambda p: {"n": 50, "trajectory": {"eigenvalues": [100, 9, 4, 1]}},
         "eigenvalues must be 1 to 3 finite positive values"),
    "config with no eigenvalues":
        ("sim.json", lambda p: {"n": 50, "trajectory": {"eigenvalues": []}},
         "eigenvalues must be 1 to 3 finite positive values"),
    # Exited 0: the basis was orthonormal on this domain, the series drawn on fpca's.
    "config with a trajectory domain":
        ("sim.json", lambda p: {"n": 50, "trajectory": {"domain": [0.0, 100.0]}}, "domain"),
    "ledger holding a list": ("ledger_O0.json", lambda p: [], "a JSON object"),
    "ledger bounds that are a list":
        ("ledger_O0.json", lambda p: {**p, "strata": [{**p["strata"][0], "bounds": [1, 2]}]},
         "key 'bounds' of strata[0]"),
    # A KeyError traceback.
    "ledger bound on an unknown axis":
        ("ledger_O0.json", lambda p: {**p, "strata": [{**p["strata"][0],
                                                        "bounds": {"q_star": [None, 1]}}]},
         "unknown stratum axis 'q_star'"),
    "ledger bound that is a string":
        ("ledger_O0.json", lambda p: {**p, "strata": [{**p["strata"][0],
                                                        "bounds": {"x_star": ["0.3", None]}}]},
         "key 'bounds' of strata[0]"),
    "ledger bound that is a boolean":
        ("ledger_O0.json", lambda p: {**p, "strata": [{**p["strata"][0],
                                                        "bounds": {"x_star": [None, True]}}]},
         "key 'bounds' of strata[0]"),
    # Exited 6, a PartitionError at the first command that assigned records.
    "ledger bound that is an empty interval":
        ("ledger_O0.json", lambda p: {**p, "strata": [{**p["strata"][0],
                                                        "bounds": {"x_star": [0.3, 0.3]}}]},
         "empty interval on axis x_star"),
    "allocation draws that are a list":
        ("alloc_O1.json", lambda p: {**p, "draws": [12, 9, 18, 11]}, "key 'draws'"),
    "allocation draw that is a string":
        ("alloc_O1.json", lambda p: {**p, "draws": {**p["draws"], "evhi": "x"}},
         "key 'draws'"),
    "allocation draw that is negative":
        ("alloc_O1.json", lambda p: {**p, "draws": {**p["draws"], "evhi": -3}},
         "key 'draws'"),
    "allocation draw that is not whole":
        ("alloc_O1.json", lambda p: {**p, "draws": {**p["draws"], "evhi": 2.7}},
         "key 'draws'"),
    "draw by_stratum that is a list":
        ("draw_O1.json", lambda p: {**p, "by_stratum": [["d000059"]]}, "key 'by_stratum'"),
}


@pytest.mark.parametrize("case", MALFORMED_JSON)
def test_malformed_json_input_gives_parse_exit(chain_dir, tmp_path, capsys, case):
    # Each of these used to end in a traceback, or drew 2.7 as 2.
    d = chain_dir
    name, edit, culprit = MALFORMED_JSON[case]
    bad = tmp_path / name
    bad.write_text(json.dumps(edit(json.loads((d / name).read_text()))))
    inputs = {"sim.json": d / "sim.json", "ledger_O0.json": d / "ledger_O0.json",
              "alloc_O1.json": d / "alloc_O1.json", "draw_O1.json": d / "draw_O1.json",
              name: bad}
    out = tmp_path / "out"
    argv = {
        "sim.json": ["simulate", "--config", inputs["sim.json"], "--out", out],
        "draw_O1.json": ["simulate", "reveal", "--dyads", d / "dyads.csv",
                         "--truth", d / "truth.csv", "--draw", inputs["draw_O1.json"],
                         "--out", out],
    }.get(name, ["design", "draw", "--ledger", inputs["ledger_O0.json"],
                 "--dyads", d / "dyads.csv", "--allocation", inputs["alloc_O1.json"],
                 "--seed", 41, "--out", out])
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert f"error: parse: {bad}:" in err and culprit in err
    assert not out.exists()


MALFORMED_DESIGN_ARGS = {
    "repeated stratum id": ("init", [{"id": "a", "bounds": {}}, {"id": "a", "bounds": {}}],
                            "duplicate stratum id 'a'"),
    "unknown init axis": ("init", [{"id": "a", "bounds": {"q_star": [None, 1]}}],
                          "unknown stratum axis 'q_star'"),
    "leaf without an id": ("init", [{"bounds": {}}], 'needs an "id"'),
    "bounds that are a list": ("init", [{"id": "a", "bounds": [1]}], '"bounds" object'),
    "bound that is not a pair": ("init", [{"id": "a", "bounds": {"x_star": [1]}}],
                                 "[lo, hi] pair"),
    # These two were read as 1.0 and 0.1.
    "bound that is a boolean": ("init", [{"id": "a", "bounds": {"x_star": [None, True]}}],
                                "[lo, hi] pair"),
    "bound that is a string": ("init", [{"id": "a", "bounds": {"x_star": ["0.1", None]}}],
                               "[lo, hi] pair"),
    "non-numeric cuts": ("split", ["--axis", "x_star", "--cuts", "abc"], "--cuts"),
    "cut outside the leaf": ("split", ["--axis", "x_star", "--cuts", "0.5"],
                             "strictly inside"),
    "unknown split axis": ("split", ["--axis", "q_star", "--cuts", "0.1"],
                           "unknown axis 'q_star'"),
    # Exited 0, and the second child replaced the first in the ledger.
    "repeated child ids": ("split", ["--axis", "x_star", "--cuts", "0.1",
                                     "--child-ids", "a,a"], "distinct child ids"),
}


@pytest.mark.parametrize("case", MALFORMED_DESIGN_ARGS)
def test_malformed_strata_or_split_gives_parse_exit(chain_dir, tmp_path, capsys, case):
    # Each of these but the last used to end in a ValueError or KeyError traceback.
    d = chain_dir
    action, given, culprit = MALFORMED_DESIGN_ARGS[case]
    out = tmp_path / "ledger.json"
    if action == "init":
        (tmp_path / "strata.json").write_text(json.dumps(given))
        argv = ["design", "init", "--frame", "O", "--dyads", d / "dyads.csv",
                "--strata", tmp_path / "strata.json", "--out", out]
    else:  # leaf "evlo" spans x_star in (-inf, 0.3]
        argv = ["design", "split", "--ledger", d / "ledger_O0.json", "--dyads",
                d / "dyads.csv", "--stratum", "evlo", *given, "--out", out]
    assert run(argv) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("error: parse: ") and culprit in err[-1]
    assert not out.exists()


def test_reveal_of_an_id_not_in_the_dyads_gives_parse_exit(chain_dir, tmp_path, capsys):
    # This used to exit 0, validating nothing for the unknown id.
    d = chain_dir
    (tmp_path / "draw.json").write_text(json.dumps({"wave": 1, "by_stratum": {
        "evlo": ["d000001", "zzz"]}}))
    out = tmp_path / "dyads.csv"
    assert run(["simulate", "reveal", "--dyads", d / "dyads.csv", "--truth",
                d / "truth.csv", "--draw", tmp_path / "draw.json", "--out", out]) == 4
    assert "'zzz'" in capsys.readouterr().err
    assert not out.exists()


# A negative wave, which the readers of allocation and draw files reject.
NEGATIVE_WAVE = {
    "allocate": lambda d: ["design", "allocate", "--ledger", d / "ledger_O0.json",
                           "--dyads", d / "dyads.csv", "--influence", d / "h.csv",
                           "--target", 50, "--wave", -1],
    "draw": lambda d: ["design", "draw", "--ledger", d / "ledger_O0.json",
                       "--dyads", d / "dyads.csv", "--allocation", d / "alloc_O1.json",
                       "--seed", 41, "--wave", -1],
    "reveal": lambda d: ["simulate", "reveal", "--dyads", d / "dyads.csv",
                         "--truth", d / "truth.csv", "--draw", d / "draw_O1.json",
                         "--wave", -2],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_WAVE))
def test_a_negative_wave_gives_parse_exit(chain_dir, tmp_path, capsys, command):
    # allocate exited 0 with a file that read_allocation rejects, and reveal
    # wrote wave_sampled -2 on the rows it validated.
    out = tmp_path / "out"
    assert run(NEGATIVE_WAVE[command](chain_dir) + ["--out", out]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == (f"error: parse: --wave must be a non-negative integer, "
                       f"got {-2 if command == 'reveal' else -1}")
    assert not out.exists()


OUT_OF_RANGE = {
    # A traceback (ValueError: at least two imputation replicates), exit 1.
    "mi_replicates": (lambda d: ["estimate", "--dyads", d / "dyads_3.csv", "--method",
                                 "raking", "--aux", "mi", "--ledger", d / "ledger_O2.json",
                                 "--mi-replicates", 1],
                      "--mi-replicates must be at least 2, got 1"),
    # Exit 0 with an empty report of "replicates: -3".
    "replicates": (lambda d: ["simulate", "experiment", "--replicates", -3],
                   "--replicates must be a positive integer, got -3"),
    # The ValueError of fpca.flag_outliers, after both files were read.
    "level": (lambda d: ["fpca", "flag", "--measurements", d / "none.csv",
                         "--eigensystem", d / "none.json", "--level", 1.5],
              "--level must be in (0, 1), got 1.5"),
    # Exit 0, allocating as with a floor of 0.
    "min_per_stratum": (lambda d: ["design", "allocate", "--ledger", d / "ledger_O0.json",
                                   "--dyads", d / "dyads.csv", "--influence", d / "h.csv",
                                   "--target", 50, "--wave", 1, "--min-per-stratum", -3],
                        "--min-per-stratum must be a non-negative integer, got -3"),
}


@pytest.mark.parametrize("option", sorted(OUT_OF_RANGE))
def test_an_option_out_of_range_gives_parse_exit(chain_dir, tmp_path, capsys, option):
    argv, message = OUT_OF_RANGE[option]
    out = tmp_path / "out"
    assert run(argv(chain_dir) + ["--out", out]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: parse: {message}"
    assert not out.exists()


# An estimate option with a method that never reads it, and the message that
# names both: each was ignored with exit 0, the file to emit never written or
# the influence file never opened.
UNREAD_OPTIONS = {
    "emit-weights with phase1": (["--method", "phase1", "--emit-weights", "w.csv"],
                                 "--emit-weights is not read with --method phase1"),
    "emit-mi-influence with phase1": (["--method", "phase1", "--emit-mi-influence", "h.csv"],
                                      "--emit-mi-influence is not read with --method phase1"),
    "emit-mi-influence with ipw": (["--method", "ipw", "--emit-mi-influence", "h.csv"],
                                   "--emit-mi-influence is not read with --method ipw"),
    "emit-mi-influence with naive raking": (
        ["--method", "raking", "--emit-mi-influence", "h.csv"],
        "--emit-mi-influence is not read with --aux naive"),
    "influence with phase1": (["--method", "phase1", "--influence", "in.csv"],
                              "--influence is not read with --method phase1"),
    "influence with ipw": (["--method", "ipw", "--influence", "in.csv"],
                           "--influence is not read with --method ipw"),
    "influence with mi raking": (["--method", "raking", "--aux", "mi", "--influence", "in.csv"],
                                 "--influence is not read with --aux mi"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
def test_an_option_the_method_never_reads_gives_parse_exit(chain_dir, tmp_path, capsys, case):
    d = chain_dir
    argv, message = UNREAD_OPTIONS[case]
    (tmp_path / "in.csv").write_bytes((d / "h.csv").read_bytes())
    out = tmp_path / "est.csv"
    assert run(["estimate", "--dyads", d / "dyads_3.csv", "--ledger", d / "ledger_O2.json",
                "--out", out] + [tmp_path / a if a.endswith(".csv") else a
                                 for a in argv]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == f"error: parse: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


# Each command that reads --seed, before the option.  A negative seed was
# the uncaught ValueError of numpy's SeedSequence (a traceback, exit 1),
# and design init stored it in the ledger (exit 0).
NEGATIVE_SEED = {
    "simulate generate": lambda d: ["simulate", "generate", "--config", d / "sim.json"],
    "simulate experiment": lambda d: ["simulate", "experiment", "--config", d / "sim.json",
                                      "--replicates", 1],
    "design init": lambda d: ["design", "init", "--frame", "O", "--dyads", d / "dyads.csv",
                              "--strata", d / "strata_O.json"],
    "design draw": lambda d: ["design", "draw", "--ledger", d / "ledger_O0.json",
                              "--dyads", d / "dyads.csv", "--allocation", d / "alloc_O1.json"],
    "estimate": lambda d: ["estimate", "--dyads", d / "dyads_3.csv", "--method", "raking",
                           "--aux", "mi", "--ledger", d / "ledger_O2.json"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED))
def test_a_negative_seed_gives_parse_exit(chain_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(NEGATIVE_SEED[command](chain_dir) + ["--seed", -4, "--out", out]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "error: parse: --seed must be a non-negative integer, got -4"
    assert not out.exists()


def test_a_negative_config_seed_gives_parse_exit(tmp_path, capsys):
    (tmp_path / "sim.json").write_text(json.dumps({"n": 50, "seed": -1}))
    assert run(["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path / "o"]) == 4
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


# A valid command line on the pinned chain for each integer option of each
# (sub)command's parser, by the action that reads it.
INTEGER_OPTIONS = {
    ("simulate", "--seed"): lambda d: ["simulate", "--config", d / "sim.json"],
    ("simulate", "--wave"): lambda d: ["simulate", "reveal", "--dyads", d / "dyads.csv",
                                          "--truth", d / "truth.csv",
                                          "--draw", d / "draw_O1.json"],
    ("simulate", "--replicates"): lambda d: ["simulate", "experiment",
                                                "--config", d / "sim.json"],
    ("fpca", "fit", "--grid-size"): lambda d: ["fpca", "fit",
                                                 "--measurements", d / "none.csv"],
    ("design", "init", "--seed"): NEGATIVE_SEED["design init"],
    **{("design", "allocate", option): lambda d: [
        "design", "allocate", "--ledger", d / "ledger_O0.json", "--dyads", d / "dyads.csv",
        "--influence", d / "h.csv", "--target", 50, "--wave", 1]
       for option in ("--target", "--wave", "--min-per-stratum")},
    **{("design", "draw", option): lambda d: [
        "design", "draw", "--ledger", d / "ledger_O0.json", "--dyads", d / "dyads.csv",
        "--allocation", d / "alloc_O1.json", "--seed", 41, "--wave", 1]
       for option in ("--seed", "--wave")},
    **{("estimate", option): lambda d: [
        "estimate", "--dyads", d / "dyads_3.csv", "--method", "raking", "--aux", "mi",
        "--ledger", d / "ledger_O2.json", "--mi-replicates", 2]
       for option in ("--mi-replicates", "--seed")},
}


def integer_options(parser, path=()):
    """The command words and the option of every ``type=int`` option under
    ``parser``, as one tuple each."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from integer_options(sub, (*path, name))
        elif action.type is int:
            yield (*path, action.option_strings[0])


def test_every_option_is_read_as_an_args_attribute():
    """Every option of every (sub)command is read as ``args.<dest>`` in cli.py,
    so deleting the code that reads an option cannot leave the option behind."""
    source = Path(cli.__file__).read_text(encoding="utf-8")

    def dests(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from dests(sub)
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                yield action.dest
    options = set(dests(cli.build_parser()))
    assert {"dyads", "emit_mi_influence", "mi_replicates"} <= options
    assert "outcome_z" not in options and "outcome_z" not in source
    assert [dest for dest in sorted(options)
            if not re.search(rf"\bargs\.{dest}\b", source)] == []


def test_outcome_z_is_no_option(chain_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--dyads", chain_dir / "dyads_3.csv", "--model", "logistic",
             "--method", "phase1", "--outcome-z", 1, "--out", tmp_path / "est.csv"])
    assert exc.value.code == 2


def test_every_integer_option_has_a_command_line_below():
    assert set(integer_options(cli.build_parser())) == set(INTEGER_OPTIONS)


@pytest.mark.parametrize("key", sorted(INTEGER_OPTIONS), ids=" ".join)
def test_minus_one_for_an_integer_option_exits_with_a_mapped_code(chain_dir, tmp_path, key):
    # The last value of an option wins, so -1 replaces any value given before.
    argv = INTEGER_OPTIONS[key](chain_dir) + [key[-1], -1, "--out", tmp_path / "out"]
    assert run(argv) in {code for _, code, _ in cli.EXIT_CODES}


def test_experiment_without_a_seed_uses_the_config_seed(tmp_path):
    # It passed master_seed=None to run_experiment: a TypeError traceback, exit 1.
    (tmp_path / "sim.json").write_text(json.dumps({"n": 1500}))
    common = ["simulate", "experiment", "--config", tmp_path / "sim.json", "--replicates", 1]
    assert run(common + ["--out", tmp_path / "a"]) == 0
    assert run(common + ["--seed", simulate.SimConfig().seed, "--out", tmp_path / "b"]) == 0
    report = (tmp_path / "a" / "report.csv").read_bytes()
    assert report == (tmp_path / "b" / "report.csv").read_bytes()
    assert report.count(b"\r\n") == 1 + 10  # the header, then one row per estimator


def test_ledger_counts_draws_from_the_drawn_ids(chain_dir, tmp_path):
    # A stale per-wave count in an older ledger no longer moves the estimate.
    d = chain_dir
    payload = json.loads((d / "ledger_O2.json").read_text())
    assert all("sampled_per_wave" not in s for s in payload["strata"])
    for s in payload["strata"]:
        s["sampled_per_wave"] = [len(ids) + 20 for ids in s["drawn"]]
    (tmp_path / "old.json").write_text(json.dumps(payload))
    ledgers = [fileio.read_ledger(p) for p in (d / "ledger_O2.json", tmp_path / "old.json")]
    assert ledgers[0] == ledgers[1]
    final = ["estimate", "--dyads", d / "dyads_3.csv", "--method", "ipw"]
    assert run(final + ["--ledger", d / "ledger_O2.json", "--out", tmp_path / "a.csv"]) == 0
    assert run(final + ["--ledger", tmp_path / "old.json", "--out", tmp_path / "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


FOREIGN_DRAWS = {
    # With these five, estimate --method ipw exited 0 and moved the x estimate.
    "made-up ids": ("evhi", "zzz1", "is not a record of the table"),
    "a member of another leaf": ("evhi", None, "is a member of stratum 'nohi'"),
    "an id counted twice": ("evhi", None, "twice"),
}


@pytest.mark.parametrize("case", FOREIGN_DRAWS)
def test_foreign_ids_in_a_ledger_give_ledger_exit(chain_dir, tmp_path, capsys, case):
    d = chain_dir
    payload = json.loads((d / "ledger_O2.json").read_text())
    leaves = {s["id"]: s for s in payload["strata"]}
    sid, rid, culprit = FOREIGN_DRAWS[case]
    if case == "made-up ids":
        leaves[sid]["drawn"][0] += [f"zzz{i}" for i in range(1, 6)]
    elif case == "a member of another leaf":
        rid = leaves["nohi"]["drawn"][0].pop()
        leaves[sid]["drawn"][0].append(rid)
    else:
        rid = leaves[sid]["drawn"][0][0]
        leaves[sid]["drawn"][1].append(rid)
    (tmp_path / "ledger.json").write_text(json.dumps(payload))
    out = tmp_path / "est.csv"
    assert run(["estimate", "--dyads", d / "dyads_3.csv", "--method", "ipw",
                "--ledger", tmp_path / "ledger.json", "--out", out]) == 6
    err = capsys.readouterr().err
    assert f"error: ledger: stratum {sid!r} counts record {rid!r}" in err and culprit in err
    assert not out.exists()


def _multi(d, dyads="dyads_3.csv", primary="ledger_O2.json", secondary="ledger_A1.json"):
    return ["estimate", "--dyads", d / dyads, "--ledger", d / primary,
            "--frame", "multi", "--asthma-ledger", d / secondary]


class TestEstimateOnTheChain:
    def test_emit_weights_rows_frames_and_hansen_hurwitz_identity(self, chain_dir,
                                                                  tmp_path):
        d = chain_dir
        assert run(_multi(d) + ["--method", "ipw", "--out", tmp_path / "est.csv",
                                "--emit-weights", tmp_path / "w.csv"]) == 0
        with open(tmp_path / "w.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        table = fileio.read_dyads(d / "dyads_3.csv")
        ledgers = {f: fileio.read_ledger(d / f"ledger_{f}.json") for f in ("O2", "A1")}
        drawn = {f: sorted(led.sampled_ids()) for f, led in ledgers.items()}
        # Primary draws first, then secondary, each in record-id order.
        assert [(r["id"], r["frame"]) for r in rows] == (
            [(rid, "O") for rid in drawn["O2"]] + [(rid, "A") for rid in drawn["A1"]])
        assert all(r["cluster"] == r["id"] for r in rows)
        row = {rid: i for i, rid in enumerate(table.ids)}
        pi = {f: rec.frame_arrays(table, led)[0] for f, led in zip("OA", ledgers.values())}
        weight = {(r["id"], r["frame"]): float(r["weight"]) for r in rows}
        both = set(drawn["O2"]) & set(drawn["A1"])
        assert len(both) >= 3
        for rid in both:
            i = row[rid]
            assert (pi["O"][i] * weight[rid, "O"] + pi["A"][i] * weight[rid, "A"]
                    == pytest.approx(1.0, abs=1e-12))
        # A dual-frame record drawn in one frame carries that frame's share.
        for (rid, f), w in weight.items():
            i = row[rid]
            if rid not in both and np.isfinite(pi["A"][i]):
                share = pi[f][i] / (pi["O"][i] + pi["A"][i])
                assert pi[f][i] * w == pytest.approx(share, rel=1e-12)

    @pytest.mark.parametrize("frame", ["single", "multi"])
    def test_raking_emits_the_per_record_influence(self, chain_dir, tmp_path, frame):
        # The emitted influence is the calibrated fit's influence over the
        # calibrated weights, not over the base weights.
        d = chain_dir
        multi = frame == "multi"
        argv = (_multi(d) + ["--emit-weights", tmp_path / "w.csv"] if multi else
                ["estimate", "--dyads", d / "dyads_3.csv", "--ledger", d / "ledger_O2.json"])
        assert run(argv + ["--method", "raking", "--influence", d / "h.csv",
                           "--out", tmp_path / "est.csv",
                           "--emit-influence", tmp_path / "inf.csv"]) == 0
        table = fileio.read_dyads(d / "dyads_3.csv")
        if multi:
            with open(tmp_path / "w.csv", newline="") as fh:
                drawn = [(r["id"], float(r["weight"])) for r in csv.DictReader(fh)]
            row = {rid: i for i, rid in enumerate(table.ids)}
            rows = np.array([row[rid] for rid, _ in drawn])
            base = np.array([w for _, w in drawn])
        else:
            pi, _, sampled = rec.frame_arrays(table, fileio.read_ledger(d / "ledger_O2.json"))
            rows = np.flatnonzero(sampled)
            base = 1.0 / pi[rows]
        h_map = fileio.read_influence(d / "h.csv")
        aux = np.column_stack([np.ones(len(table)), [h_map[rid] for rid in table.ids]])
        cal = raking.calibrate_weights(base, aux[rows], aux.sum(axis=0))
        assert np.ptp(cal.g) > 1e-3
        w = base * cal.g
        cols = table.columns
        x = np.column_stack([cols["x"][rows], cols["z_0"][rows], cols["z_1"][rows]])
        fit = models.fit_cox(cols["y"][rows], cols["delta"][rows], x, w)
        want = fit.influence[:, 0] / w
        # A record drawn in both frames is emitted once per draw; the file
        # keeps its last draw's value.
        ids = [table.ids[i] for i in rows]
        last = {rid: i for i, rid in enumerate(ids)}
        emitted = fileio.read_influence(tmp_path / "inf.csv")
        np.testing.assert_allclose([emitted[rid] for rid in last],
                                   [want[i] for i in last.values()], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("method", ["ipw", "raking"])
    def test_unrevealed_secondary_draws_give_ledger_exit(self, chain_dir, tmp_path,
                                                         capsys, method):
        # dyads_2.csv predates the asthma reveal: its new asthma draws have
        # phase-2 cells that read as 0.
        code = run(_multi(chain_dir, dyads="dyads_2.csv")
                   + ["--method", method, "--out", tmp_path / "est.csv"])
        assert code == 6
        err = capsys.readouterr().err
        assert "error: ledger: record 'd" in err and "drawn in frame 'A'" in err
        assert not (tmp_path / "est.csv").exists()

    def test_swapped_ledgers_give_ledger_exit(self, chain_dir, tmp_path, capsys):
        code = run(_multi(chain_dir, primary="ledger_A1.json", secondary="ledger_O2.json")
                   + ["--method", "ipw", "--out", tmp_path / "est.csv"])
        assert code == 6
        err = capsys.readouterr().err
        assert "error: ledger: record 'd" in err and "primary frame 'A'" in err


def leaf_specs(strata):
    """Harness strata as the leaf specs of a strata file."""
    return [{"id": s.id, "bounds": {k: [None if math.isinf(v) else float(v) for v in b]
                                    for k, b in s.bounds.items()}}
            for s in strata]


def test_wave1_allocation_matches_harness(tmp_path):
    """The CLI's first wave reproduces the harness's first obesity wave."""
    spec = simulate.DesignSpec()
    pop = simulate.generate(simulate.SimConfig(n=3000), seed=21)
    fileio.write_dyads(tmp_path / "dyads.csv", fileio.population_to_records(pop))
    strata = simulate.obesity_strata(pop, spec)[0]
    (tmp_path / "strata.json").write_text(json.dumps(leaf_specs(strata)))
    assert run(["design", "init", "--frame", "O", "--dyads", tmp_path / "dyads.csv",
                "--strata", tmp_path / "strata.json",
                "--out", tmp_path / "ledger.json"]) == 0
    assert run(["estimate", "--dyads", tmp_path / "dyads.csv", "--model", "cox",
                "--method", "phase1", "--out", tmp_path / "est.csv",
                "--emit-influence", tmp_path / "h.csv"]) == 0
    assert run(["design", "allocate", "--ledger", tmp_path / "ledger.json",
                "--dyads", tmp_path / "dyads.csv", "--influence", tmp_path / "h.csv",
                "--wave", 1, "--target", spec.obesity_waves[0],
                "--min-per-stratum", spec.min_per_stratum,
                "--out", tmp_path / "alloc.json"]) == 0
    draws = fileio.read_allocation(tmp_path / "alloc.json")["draws"]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        obesity, _ = simulate.run_design(pop, spec, seed=21)
    wave1 = np.bincount(obesity.assignment[obesity.wave_of == 1],
                        minlength=len(obesity.strata))
    assert len(strata) == 24
    assert {s.id: int(c) for s, c in zip(obesity.strata, wave1)} == draws


def test_phase1_estimate_matches_harness(tmp_path):
    """The CLI's phase-1 fit of each endpoint is the harness's, bit for bit:
    one working model per endpoint."""
    spec = simulate.DesignSpec()
    pop = simulate.generate(simulate.SimConfig(n=3000), seed=21)
    fileio.write_dyads(tmp_path / "dyads.csv", fileio.population_to_records(pop))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        obesity, asthma = simulate.run_design(pop, spec, seed=21)
        harness = {"cox": simulate.estimate_obesity(pop, obesity, asthma, spec, seed=21),
                   "logistic": simulate.estimate_asthma(pop, obesity, asthma, spec, seed=21)}
    for model, rows in harness.items():
        assert run(["estimate", "--dyads", tmp_path / "dyads.csv", "--model", model,
                    "--method", "phase1", "--out", tmp_path / f"{model}.csv"]) == 0
        cli_x = fileio.read_estimates(tmp_path / f"{model}.csv")[
            simulate.WORKING_MODELS[model][0].coefficient]
        phase1 = next(r for r in rows if r.estimator == "phase1")
        assert cli_x["term"] == "x"
        assert (cli_x["beta"], cli_x["se"]) == (phase1.beta, phase1.se), model


@pytest.mark.parametrize("model, ledger", [("cox", "ledger_O2.json"),
                                           ("logistic", "ledger_A1.json")])
def test_mi_influence_is_the_harness_one(chain_dir, tmp_path, model, ledger):
    """estimate --aux mi emits the harness's MI influence of the endpoint, bit for
    bit, given the same phase-1 columns, validated records and seed: imputed from
    every validated record, refitted on the analysis frame."""
    d = chain_dir
    assert run(["estimate", "--dyads", d / "dyads_3.csv", "--model", model,
                "--ledger", d / ledger, "--method", "raking", "--aux", "mi",
                "--mi-replicates", 4, "--seed", 5, "--out", tmp_path / "est.csv",
                "--emit-mi-influence", tmp_path / "h.csv"]) == 0
    table = fileio.read_dyads(d / "dyads_3.csv")
    analysis, specs = simulate.WORKING_MODELS[model]
    # The chain's population, whose phase-2 columns hold the truth on every row.
    cols = simulate._population_columns(simulate.generate(simulate.SimConfig(n=1000), 8))
    want = simulate._mi_influence(cols, table.columns["validated"], specs(), analysis, 4, 5)
    members = np.flatnonzero(analysis.members(table.columns))
    got = fileio.read_influence_rows(tmp_path / "h.csv", [table.ids[i] for i in members])
    assert 0 < members.size == want.size
    assert got.tolist() == want.tolist()


def test_every_cox_mi_refit_reads_its_risk_sets_in_place(chain_dir, tmp_path, monkeypatch):
    # The harness's imputation model imputes y from y_star and the imputed
    # delta, so no two imputed times tie and every row is its own event group.
    # The CLI's own per-column model imputed y from (y_star, delta_star) alone,
    # which tied every record sharing those, and no refit had the flag.
    seen = []

    def recording(event, *args, real=kernels.risk_sets):
        risk = real(event, *args)
        seen.append((event.size, risk.each_row_an_event))
        return risk
    monkeypatch.setattr(kernels, "risk_sets", recording)
    d = chain_dir
    assert run(["estimate", "--dyads", d / "dyads_3.csv", "--ledger", d / "ledger_O2.json",
                "--model", "cox", "--method", "raking", "--aux", "mi", "--mi-replicates", 4,
                "--out", tmp_path / "est.csv"]) == 0
    n = len(fileio.read_dyads(d / "dyads_3.csv"))
    # Four refits on every record, then the raking fit on the validated ones,
    # whose times may tie.
    assert [size for size, _ in seen] == [n] * 4 + [seen[-1][0]] and seen[-1][0] < n
    assert all(flag for _, flag in seen[:4])


@pytest.fixture(scope="module")
def harness_run(tmp_path_factory):
    """``run_design`` on ``generate(SimConfig(n=3000), 21)`` as CLI files:
    ``dyads.csv`` with every drawn record revealed from the truth, and the
    two frames' ledgers, built from the harness's strata and given its
    draws wave by wave."""
    d = tmp_path_factory.mktemp("harness")
    spec = simulate.DesignSpec()
    pop = simulate.generate(simulate.SimConfig(n=3000), 21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        designs = simulate.run_design(pop, spec, 21)
    truth = simulate._population_columns(pop)
    table = fileio.population_to_records(pop)
    wave = np.zeros(pop.n)
    for design in reversed(designs):  # a record's first draw is an obesity one
        wave[design.member_index[design.sampled]] = design.wave_of[design.sampled]
    drawn = wave > 0
    columns = {**table.columns, "validated": drawn, "wave_sampled": wave,
               **{name: np.where(drawn, truth[name], 0.0)
                  for name in ("y", "delta", "x", "z_0", "z_1", "asthma")}}
    table = rec.DyadTable(table.ids, columns)
    fileio.write_dyads(d / "dyads.csv", table)
    for frame, design, budgets, flag in (("O", designs[0], spec.obesity_waves, None),
                                         ("A", designs[1], spec.asthma_waves,
                                          "in_asthma_frame")):
        ledger = rec.build_ledger(frame, leaf_specs(design.strata), table,
                                  member_flag=flag)
        member_ids = np.array(table.ids)[design.member_index]
        for k in range(1, len(budgets) + 1):
            ledger = rec.apply_draw(ledger, k, {
                s.id: member_ids[(design.wave_of == k) & (design.assignment == j)].tolist()
                for j, s in enumerate(design.strata)})
        fileio.write_ledger(d / f"ledger_{frame}.json", ledger)
    return d, pop, spec, designs


@pytest.mark.parametrize("model", ["cox", "logistic"])
def test_harness_design_as_ledgers_gives_the_harness_estimates(harness_run, tmp_path,
                                                               model):
    """Both frames' harness strata are leaf specs the CLI reads, the asthma
    frame's on its own axis, so the CLI's ipw and naive raking estimates on
    the harness's design are the harness's."""
    d, pop, spec, designs = harness_run
    endpoint = {"cox": simulate.estimate_obesity, "logistic": simulate.estimate_asthma}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = {r.estimator: (r.beta, r.se) for r in endpoint[model](pop, *designs, spec, 21)}
    assert all("asthma_star" in s.bounds for s in designs[1].strata)
    base = ["estimate", "--dyads", d / "dyads.csv", "--model", model]
    multi = ["--ledger", d / "ledger_O.json", "--frame", "multi",
             "--asthma-ledger", d / "ledger_A.json"]
    runs = {"ipw_sf": ["--method", "ipw", "--ledger",
                       d / ("ledger_O.json" if model == "cox" else "ledger_A.json")],
            "ipw_mf": ["--method", "ipw", *multi],
            "raking_nv": ["--method", "raking", "--aux", "naive", *multi]}
    target = simulate.WORKING_MODELS[model][0].coefficient
    for name, argv in runs.items():
        assert run(base + argv + ["--out", tmp_path / f"{name}.csv"]) == 0, name
        got = fileio.read_estimates(tmp_path / f"{name}.csv")[target]
        assert got["term"] == "x"
        assert (got["beta"], got["se"]) == (pytest.approx(want[name][0], rel=1e-12),
                                            pytest.approx(want[name][1], rel=1e-12)), name


def test_an_asthma_axis_on_a_table_without_the_pair_gives_parse_exit(chain_dir, tmp_path,
                                                                     capsys):
    d = chain_dir
    fileio.write_dyads(tmp_path / "dyads.csv",
                       without_asthma(fileio.read_dyads(d / "dyads.csv")))
    (tmp_path / "strata.json").write_text(json.dumps(
        [{"id": f"A:a{a}", "bounds": {"asthma_star": bounds}}
         for a, bounds in enumerate([[None, 0.5], [0.5, None]])]))
    init = ["design", "init", "--frame", "A", "--strata", tmp_path / "strata.json",
            "--member-flag", "in_asthma_frame"]
    assert run(init + ["--dyads", d / "dyads.csv", "--out", tmp_path / "ledger.json"]) == 0
    # The strata file, and a ledger written on a table with the pair.
    assert run(init + ["--dyads", tmp_path / "dyads.csv",
                       "--out", tmp_path / "pairless.json"]) == 4
    assert run(["estimate", "--dyads", tmp_path / "dyads.csv", "--model", "cox",
                "--method", "ipw", "--ledger", d / "ledger_O2.json", "--frame", "multi",
                "--asthma-ledger", tmp_path / "ledger.json", "--out", tmp_path / "est.csv"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(
        line.startswith("error: parse: stratum 'A:a0' bounds axis 'asthma_star'")
        for line in err)
    assert not (tmp_path / "pairless.json").exists() and not (tmp_path / "est.csv").exists()


def test_split_on_the_asthma_axis(chain_dir, tmp_path):
    """A leaf splits on asthma_star, and each child inherits the draws in it."""
    d = chain_dir
    assert run(["design", "split", "--ledger", d / "ledger_A1.json", "--dyads",
                d / "dyads_3.csv", "--stratum", "A:ev", "--axis", "asthma_star",
                "--cuts", "0.5", "--out", tmp_path / "split.json"]) == 0
    table = fileio.read_dyads(d / "dyads_3.csv")
    parent = fileio.read_ledger(d / "ledger_A1.json").strata["A:ev"]
    split = fileio.read_ledger(tmp_path / "split.json")
    asthma = dict(zip(table.ids, table.columns["asthma_star"].tolist()))
    members = [rid for rid, flag, event in zip(table.ids, table.columns["in_asthma_frame"],
                                               table.columns["delta_star"])
               if flag and event == 1]
    for cid, value in (("A:ev.1", 0.0), ("A:ev.2", 1.0)):
        child = split.strata[cid]
        assert child.bounds == {"delta_star": (0.5, math.inf),
                                "asthma_star": ((-math.inf, 0.5), (0.5, math.inf))[int(value)]}
        assert child.population_size == sum(asthma[rid] == value for rid in members) > 0
        assert child.inherited_ids == [rid for rid in parent.all_drawn_ids()
                                       if asthma[rid] == value]
    assert run(["estimate", "--dyads", d / "dyads_3.csv", "--model", "logistic",
                "--method", "ipw", "--ledger", tmp_path / "split.json",
                "--out", tmp_path / "est.csv"]) == 0


def test_mi_after_too_few_validated_records_gives_ill_conditioned_exit(chain_dir, tmp_path,
                                                                      capsys):
    # This ended in a ValueError traceback: fit_imputation needs 30 validated records.
    d = chain_dir
    assert run(["design", "allocate", "--ledger", d / "ledger_O0.json", "--dyads",
                d / "dyads.csv", "--influence", d / "h.csv", "--target", 20, "--wave", 1,
                "--out", tmp_path / "alloc.json"]) == 0
    assert run(["design", "draw", "--ledger", d / "ledger_O0.json", "--dyads",
                d / "dyads.csv", "--allocation", tmp_path / "alloc.json", "--seed", 3,
                "--out", tmp_path / "draw.json", "--update-ledger",
                tmp_path / "ledger.json"]) == 0
    assert run(["simulate", "reveal", "--dyads", d / "dyads.csv", "--truth",
                d / "truth.csv", "--draw", tmp_path / "draw.json",
                "--out", tmp_path / "dyads.csv"]) == 0
    capsys.readouterr()
    assert run(["estimate", "--dyads", tmp_path / "dyads.csv", "--ledger",
                tmp_path / "ledger.json", "--method", "raking", "--aux", "mi",
                "--out", tmp_path / "est.csv"]) == 11
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: ill-conditioned: 20 validated records; at least "
                   f"{imputation.MIN_VALIDATED} required"]
    assert not (tmp_path / "est.csv").exists()


class TestFpcaCli:
    def test_fit_score_flag(self, sim_dir, tmp_path):
        assert run(["fpca", "fit", "--measurements", sim_dir / "measurements.csv",
                    "--out", tmp_path / "es.json", "--grid-size", "61"]) == 0
        system = fileio.read_eigensystem(tmp_path / "es.json")
        assert system.n_components >= 1
        assert run(["fpca", "score", "--measurements", sim_dir / "measurements.csv",
                    "--eigensystem", tmp_path / "es.json",
                    "--out", tmp_path / "scores.csv"]) == 0
        with open(tmp_path / "scores.csv") as fh:
            header = fh.readline().strip().split(",")
            first = fh.readline().strip().split(",")
        assert header[0] == "subject_id" and header[-1] == "weekly_gain"
        assert np.isfinite(float(first[-1]))
        assert run(["fpca", "flag", "--measurements", sim_dir / "measurements.csv",
                    "--eigensystem", tmp_path / "es.json",
                    "--out", tmp_path / "flags.csv"]) == 0

    @staticmethod
    def _constant_fit(tmp_path):
        t = np.linspace(-300.0, 250.0, 20)
        fileio.write_measurements(
            tmp_path / "m.csv",
            [fpca.LongitudinalSeries(f"c{i}", t, np.full(20, 70.0)) for i in range(10)])
        assert run(["fpca", "fit", "--measurements", tmp_path / "m.csv",
                    "--out", tmp_path / "es.json"]) == 0

    def _score(self, tmp_path, gestation_text):
        self._constant_fit(tmp_path)
        (tmp_path / "gest.csv").write_text(gestation_text)
        return run(["fpca", "score", "--measurements", tmp_path / "m.csv",
                    "--eigensystem", tmp_path / "es.json",
                    "--gestation-file", tmp_path / "gest.csv",
                    "--out", tmp_path / "scores.csv"])

    def test_score_reads_the_gestation_file(self, tmp_path):
        assert self._score(tmp_path, "subject_id,gestation_days\nc3,250\n") == 0
        with open(tmp_path / "scores.csv") as fh:
            rows = {r["subject_id"]: float(r["gestation_days"]) for r in csv.DictReader(fh)}
        assert rows["c3"] == 250.0 and rows["c0"] == 273.0

    def test_score_non_numeric_gestation_gives_parse_exit(self, tmp_path, capsys):
        code = self._score(tmp_path, "subject_id,gestation_days\nc0,270\nc1,long\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and "row 3" in err and "gestation_days" in err

    def test_score_repeated_gestation_id_gives_parse_exit(self, tmp_path, capsys):
        code = self._score(tmp_path, "subject_id,gestation_days\nc0,270\nc0,250\n")
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and "'c0'" in err and "row 2" in err

    def test_score_empty_gestation_file_gives_parse_exit(self, tmp_path, capsys):
        assert self._score(tmp_path, "") == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and "subject_id,gestation_days" in err

    @pytest.mark.parametrize("action", ["fit", "score", "flag"])
    def test_non_finite_time_gives_parse_exit(self, tmp_path, capsys, action):
        self._constant_fit(tmp_path)
        (tmp_path / "m.csv").write_text(
            "subject_id,t_days,weight_kg\nc0,-10,70\nc0,nan,70\nc0,20,70\n")
        files = (["--out", tmp_path / "es.json"] if action == "fit" else
                 ["--eigensystem", tmp_path / "es.json", "--out", tmp_path / "out.csv"])
        assert run(["fpca", action, "--measurements", tmp_path / "m.csv", *files]) == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and "row 3" in err and "t_days" in err

    @pytest.mark.parametrize("key,edit", [
        ("mean", lambda v: v[:-1]),
        ("grid", lambda v: v[::-1]),
        ("fve", lambda v: v + [1.0]),
        ("em_steps", lambda v: -1),
        ("em_steps", lambda v: "3"),
        ("zero_variation", lambda v: "false"),
        pytest.param("mean", lambda v: [float("nan")] + v[1:], id="mean-nan"),
        pytest.param("noise_var", lambda v: -1.0, id="noise_var-negative"),
    ])
    def test_score_malformed_eigensystem_gives_parse_exit(self, tmp_path, capsys,
                                                          key, edit):
        self._constant_fit(tmp_path)
        path = tmp_path / "es.json"
        payload = json.loads(path.read_text())
        payload[key] = edit(payload[key])
        path.write_text(json.dumps(payload))
        code = run(["fpca", "score", "--measurements", tmp_path / "m.csv",
                    "--eigensystem", path, "--out", tmp_path / "scores.csv"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: parse:" in err and f"eigensystem {key}" in err

    @pytest.mark.parametrize("payload", [5, "x", None, []])
    def test_eigensystem_that_is_not_an_object_gives_parse_exit(self, tmp_path, capsys,
                                                                payload):
        # A TypeError traceback: argument of type 'int' is not iterable.
        self._constant_fit(tmp_path)
        path = tmp_path / "es.json"
        path.write_text(json.dumps(payload))
        code = run(["fpca", "score", "--measurements", tmp_path / "m.csv",
                    "--eigensystem", path, "--out", tmp_path / "scores.csv"])
        assert code == 4
        assert f"error: parse: {path}:" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("action", ["score", "flag"])
    def test_components_without_noise_give_ill_conditioned_exit(self, tmp_path, capsys,
                                                                action):
        self._constant_fit(tmp_path)
        path = tmp_path / "es.json"
        payload = json.loads(path.read_text())
        assert payload["noise_var"] == 0.0
        payload.update(eigenvalues=[2.0], eigenfunctions=[[0.04] * len(payload["grid"])],
                       fve=[1.0], zero_variation=False)
        path.write_text(json.dumps(payload))
        code = run(["fpca", action, "--measurements", tmp_path / "m.csv",
                    "--eigensystem", path, "--out", tmp_path / "out.csv"])
        assert code == 11
        assert "error: ill-conditioned:" in capsys.readouterr().err

    def test_constant_population_fit_then_flag(self, tmp_path):
        # A zero-variation fit has no noise term; flagging from it still
        # runs and finds nothing in on-mean data.
        self._constant_fit(tmp_path)
        assert fileio.read_eigensystem(tmp_path / "es.json").zero_variation
        assert run(["fpca", "flag", "--measurements", tmp_path / "m.csv",
                    "--eigensystem", tmp_path / "es.json",
                    "--out", tmp_path / "flags.csv"]) == 0
        with open(tmp_path / "flags.csv") as fh:
            assert fh.read().strip() == "subject_id,obs_index,t_days,weight_kg"

    def test_missing_file_is_io_error(self, tmp_path):
        code = run(["fpca", "fit", "--measurements", tmp_path / "nope.csv",
                    "--out", tmp_path / "es.json"])
        assert code == 3

    @pytest.mark.parametrize("rows, message", [
        ("s0,-10,70\ns0,20,71\n", "at least two subjects"),
        ("s0,-400,70\ns1,-380,71\ns1,300,72\n", "no observations fall inside"),
        ("s0,-10,70\ns1,20,71\ns1,-400,72\n", "no subject has two observations"),
    ])
    def test_unidentified_fit_gives_ill_conditioned_exit(self, tmp_path, capsys,
                                                         rows, message):
        # Each of these ended in a ValueError traceback.
        (tmp_path / "m.csv").write_text("subject_id,t_days,weight_kg\n" + rows)
        code = run(["fpca", "fit", "--measurements", tmp_path / "m.csv",
                    "--out", tmp_path / "es.json"])
        assert code == 11
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ill-conditioned:") and message in line
        assert not (tmp_path / "es.json").exists()

    @pytest.mark.parametrize("option", [("--grid-size", "1"), ("--grid-size", "0"),
                                        ("--fve", "1.5"), ("--fve", "nan"), ("--fve", "0")])
    def test_bad_fit_option_gives_parse_exit_before_reading(self, tmp_path, capsys, option):
        # The grid sizes ended in an IndexError traceback; the thresholds
        # were taken, giving 12 components or 1.  The measurements file
        # does not exist: the option is checked first.
        code = run(["fpca", "fit", "--measurements", tmp_path / "nope.csv",
                    "--out", tmp_path / "es.json", *option])
        assert code == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: parse:") and option[1] in line

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the E-step forks its workers")
    def test_fit_files_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        (tmp_path / "sim.json").write_text(json.dumps({"n": 3000}))
        assert run(["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path,
                    "--seed", 5, "--with-series"]) == 0
        measurements = tmp_path / "measurements.csv"
        monkeypatch.setattr(fpca, "E_STEP_CHUNK", 1000)       # three chunks
        written = {}
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "_cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            assert run(["fpca", "fit", "--measurements", measurements,
                        "--out", out / "es.json"]) == 0
            assert run(["fpca", "score", "--measurements", measurements,
                        "--eigensystem", out / "es.json", "--out", out / "scores.csv"]) == 0
            assert run(["fpca", "flag", "--measurements", measurements,
                        "--eigensystem", out / "es.json", "--out", out / "flags.csv"]) == 0
            written[cpus] = [(out / name).read_bytes()
                             for name in ("es.json", "scores.csv", "flags.csv")]
            assert multiprocessing.active_children() == []
        assert written[2] == written[1]


def test_module_run_returns_the_mapped_exit_code(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "twophase.cli", "fpca", "fit",
         "--measurements", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "es.json")],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert "error: io:" in done.stderr


def test_cli_does_not_import_the_smoothing_layer():
    # Only the benchmark's trace table still reads ``smoothing``.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, twophase.cli; print('twophase.smoothing' in sys.modules)"],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout.strip() == "False"


def test_report_merges_estimates(tmp_path):
    fileio.write_estimates(tmp_path / "a.csv",
                           [("phase1", np.array([0.87]), np.array([0.18]))], ["x"])
    fileio.write_estimates(tmp_path / "b.csv",
                           [("raking_naive", np.array([1.06]), np.array([0.27]))],
                           ["x"])
    assert run(["report", "--inputs", tmp_path / "a.csv", tmp_path / "b.csv",
                "--out", tmp_path / "table.csv",
                "--text", tmp_path / "table.txt"]) == 0
    text = (tmp_path / "table.txt").read_text()
    assert "phase1" in text and "raking_naive" in text
    with open(tmp_path / "table.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["term", "phase1_beta", "phase1_se",
                      "raking_naive_beta", "raking_naive_se"]


def test_short_estimates_row_gives_parse_exit(tmp_path, capsys):
    # A row with too few cells used to end in an IndexError traceback.
    (tmp_path / "est.csv").write_text("estimator,term,beta,se\nipw,x\n")
    assert run(["report", "--inputs", tmp_path / "est.csv", "--out", tmp_path / "r.csv"]) == 4
    assert "error: parse: row 2: expected 4 cells, found 2" in capsys.readouterr().err
